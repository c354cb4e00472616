"""Termination orders: the standard matrix order pulled back over
evaluation into the biaffine PROP, the connectivity order, and their
lexicographic compositions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Signature
from .freeprop import NetClass
from .network import evaluate
from .props import BAFF_NAT, CONNECTIVITY, BaffElem, ConnElem, parse_assignment
from .rewrite import Rule

LT, GT, EQUIV, INCOMPARABLE = "LT", "GT", "EQUIV", "INCOMPARABLE"


class OrderError(ValueError):
    pass


def _verdict(le: bool, ge: bool) -> str:
    if le and ge:
        return EQUIV
    if le:
        return LT
    if ge:
        return GT
    return INCOMPARABLE


@dataclass(frozen=True)
class BaffStage:
    """Pullback of the entrywise order on biaffine matrices over
    evaluation with the given generator assignment."""

    assignment: Mapping[str, BaffElem]

    def value(self, a: NetClass) -> BaffElem:
        return evaluate(a.rep, BAFF_NAT, dict(self.assignment))

    def compare(self, a: NetClass, b: NetClass) -> str:
        fa, fb = self.value(a).full, self.value(b).full
        le = all(
            fa.entries[i][j] <= fb.entries[i][j]
            for i in range(fa.rows)
            for j in range(fa.cols)
        )
        ge = all(
            fa.entries[i][j] >= fb.entries[i][j]
            for i in range(fa.rows)
            for j in range(fa.cols)
        )
        return _verdict(le, ge)


@dataclass(frozen=True)
class ConnectivityStage:
    """The connectivity order: partition refinement plus cycle count."""

    def value(self, a: NetClass) -> ConnElem:
        return evaluate(a.rep, CONNECTIVITY, CONNECTIVITY.generator_image)

    def compare(self, a: NetClass, b: NetClass) -> str:
        va, vb = self.value(a), self.value(b)
        return _verdict(CONNECTIVITY.leq(va, vb), CONNECTIVITY.leq(vb, va))


Stage = BaffStage | ConnectivityStage


@dataclass(frozen=True)
class OrderSpec:
    """A monomial order: the lexicographic composite of its stages."""

    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise OrderError("an order needs at least one stage")


def lex_compose(specs: Sequence[OrderSpec]) -> OrderSpec:
    """Concatenate the stage lists; associative by construction."""
    if not specs:
        raise OrderError("lexicographic composition of no orders")
    stages: tuple[Stage, ...] = ()
    for spec in specs:
        stages = stages + spec.stages
    return OrderSpec(stages)


def compare(a: NetClass, b: NetClass, spec: OrderSpec) -> str:
    """Stagewise comparison: the first non-EQUIV stage decides."""
    if (a.coarity, a.arity) != (b.coarity, b.arity):
        raise OrderError("compared elements have different shapes")
    for stage in spec.stages:
        verdict = stage.compare(a, b)
        if verdict != EQUIV:
            return verdict
    return EQUIV


@dataclass(frozen=True)
class StageReport:
    kind: str
    ok: bool
    notes: tuple[str, ...]


@dataclass(frozen=True)
class StrictnessReport:
    ok: bool
    stages: tuple[StageReport, ...]

    def __str__(self) -> str:
        lines = []
        for i, st in enumerate(self.stages, 1):
            status = "ok" if st.ok else "FAIL"
            lines.append(f"stage {i} ({st.kind}): {status}")
            for note in st.notes:
                lines.append(f"  - {note}")
        lines.append("order admissible" if self.ok else "order NOT admissible")
        return "\n".join(lines)


def check_strictness(spec: OrderSpec, sig: Signature) -> StrictnessReport:
    """Verify the strictness preconditions of every stage.

    A biaffine stage passes when every generator image has at least one
    positive entry in each row and column of its full padded matrix; the
    order is then a well-founded strict PROP quasi-order with the strict
    uncut property.  A connectivity stage is always admissible."""
    reports = []
    ok = True
    for stage in spec.stages:
        if isinstance(stage, ConnectivityStage):
            reports.append(
                StageReport(
                    "connectivity",
                    True,
                    (
                        "strict partial order by construction; rules that only "
                        "permute legs compare EQUIV, so compose with a pullback "
                        "stage to orient them",
                    ),
                )
            )
            continue
        notes = []
        stage_ok = True
        for sym in sig:
            if sym.name not in stage.assignment:
                notes.append(f"symbol {sym.name!r} has no image")
                stage_ok = False
                continue
            full = stage.assignment[sym.name].full
            for i in range(full.rows):
                if all(full.entries[i][j] == 0 for j in range(full.cols)):
                    notes.append(f"symbol {sym.name!r}: row {i + 1} has no positive entry")
                    stage_ok = False
            for j in range(full.cols):
                if all(full.entries[i][j] == 0 for i in range(full.rows)):
                    notes.append(
                        f"symbol {sym.name!r}: column {j + 1} has no positive entry"
                    )
                    stage_ok = False
        reports.append(StageReport("baff", stage_ok, tuple(notes)))
        ok = ok and stage_ok
    return StrictnessReport(ok, tuple(reports))


def rule_compatible(rule: Rule, spec: OrderSpec) -> tuple[bool, list[tuple[NetClass, str]]]:
    """True iff every monomial of the rhs is strictly below the lhs.

    Returns the verdict together with per-monomial witnesses."""
    witnesses = []
    ok = True
    for term in rule.rhs.monomials():
        verdict = compare(term, rule.lhs, spec)
        witnesses.append((term, verdict))
        if verdict != LT:
            ok = False
    return ok, witnesses


# ---------------------------------------------------------------------------
# Order preset files
# ---------------------------------------------------------------------------


def parse_order(text: str, sig: Signature, resolve_file) -> OrderSpec:
    """Parse an order preset:

        order { stage baff <assignment-file> ; stage connectivity }

    ``resolve_file`` maps a file name to its text content."""
    stripped = " ".join(
        part.split("#", 1)[0] for part in text.splitlines()
    )
    stripped = stripped.strip()
    if not stripped.startswith("order"):
        raise OrderError("order file must start with 'order {'")
    body = stripped[len("order") :].strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise OrderError("order body must be wrapped in braces")
    stages: list[Stage] = []
    for chunk in body[1:-1].split(";"):
        words = chunk.split()
        if not words:
            continue
        if words[0] != "stage":
            raise OrderError(f"expected 'stage', got {words[0]!r}")
        if words[1] == "connectivity":
            if len(words) != 2:
                raise OrderError("stage connectivity takes no arguments")
            stages.append(ConnectivityStage())
        elif words[1] == "baff":
            if len(words) != 3:
                raise OrderError("stage baff needs an assignment file")
            assignment = parse_assignment(resolve_file(words[2]), sig, BAFF_NAT)
            stages.append(BaffStage(assignment))
        else:
            raise OrderError(f"unknown stage kind {words[1]!r}")
    return OrderSpec(tuple(stages))
