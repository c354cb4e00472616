"""Termination orders: the order of an ordered PROP (the biaffine PROP
over N, or the connectivity PROP) pulled back over evaluation, and the
lexicographic compositions of such pullbacks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Signature
from .freeprop import NetClass
from .network import evaluate
from .props import (
    BAFF_NAT,
    CONNECTIVITY,
    BaffElem,
    BaffTarget,
    ConnectivityTarget,
    ConnElem,
    connectivity_assignment,
    parse_assignment,
)
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
class Stage:
    """The pullback of ``target``'s order over evaluation with
    ``assignment``: a is below b when ``target.leq`` holds between their
    values."""

    target: BaffTarget | ConnectivityTarget
    assignment: Mapping[str, BaffElem | ConnElem]

    def value(self, a: NetClass) -> BaffElem | ConnElem:
        return evaluate(a.net, self.target, self.assignment)

    def compare(self, a: NetClass, b: NetClass) -> str:
        va, vb = self.value(a), self.value(b)
        return _verdict(self.target.leq(va, vb), self.target.leq(vb, va))


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
    return OrderSpec(tuple(stage for spec in specs for stage in spec.stages))


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


_CONNECTIVITY_NOTE = (
    "strict partial order by construction; rules that only permute legs "
    "compare EQUIV, so compose with a pullback stage to orient them",
)


def check_strictness(spec: OrderSpec, sig: Signature) -> StrictnessReport:
    """Verify the strictness preconditions of every stage.

    A biaffine stage passes when every generator image has at least one
    positive entry in each row and column of its full padded matrix; the
    order is then a well-founded strict PROP quasi-order with the strict
    uncut property.  A connectivity stage passes when it sends every
    generator to its one-block image, as ``parse_order`` builds it."""
    reports = []
    for stage in spec.stages:
        if isinstance(stage.target, ConnectivityTarget):
            image = connectivity_assignment(sig)
            notes = tuple(
                f"symbol {sym.name!r} is not sent to its one-block image"
                for sym in sig
                if stage.assignment.get(sym.name) != image[sym.name]
            )
            reports.append(StageReport("connectivity", not notes, notes or _CONNECTIVITY_NOTE))
            continue
        notes = []
        for sym in sig:
            if sym.name not in stage.assignment:
                notes.append(f"symbol {sym.name!r} has no image")
                continue
            rows = stage.assignment[sym.name].full.entries
            notes += [
                f"symbol {sym.name!r}: row {i} has no positive entry"
                for i, row in enumerate(rows, 1)
                if not any(row)
            ]
            notes += [
                f"symbol {sym.name!r}: column {j} has no positive entry"
                for j, column in enumerate(zip(*rows), 1)
                if not any(column)
            ]
        reports.append(StageReport("baff", not notes, tuple(notes)))
    return StrictnessReport(all(st.ok for st in reports), tuple(reports))


def rule_compatible(rule: Rule, spec: OrderSpec) -> tuple[bool, list[tuple[NetClass, str]]]:
    """True iff every monomial of the rhs is strictly below the lhs.

    Returns the verdict together with per-monomial witnesses."""
    witnesses = [(term, compare(term, rule.lhs, spec)) for term in rule.rhs.monomials()]
    return all(verdict == LT for _, verdict in witnesses), witnesses


def check_compatible(rules: Sequence[Rule], spec: OrderSpec) -> None:
    """Raise OrderError at the first rule, in the order given, that
    :func:`rule_compatible` rejects."""
    for rule in rules:
        if not rule_compatible(rule, spec)[0]:
            raise OrderError(f"rule {rule.rule_id!r} is not compatible with the order")


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
        if len(words) == 1:
            raise OrderError("'stage' needs a kind: baff or connectivity")
        if words[1] == "connectivity":
            if len(words) != 2:
                raise OrderError("stage connectivity takes no arguments")
            stages.append(Stage(CONNECTIVITY, connectivity_assignment(sig)))
        elif words[1] == "baff":
            if len(words) != 3:
                raise OrderError("stage baff needs an assignment file")
            assignment = parse_assignment(resolve_file(words[2]), sig, BAFF_NAT)
            stages.append(Stage(BAFF_NAT, assignment))
        else:
            raise OrderError(f"unknown stage kind {words[1]!r}")
    return OrderSpec(tuple(stages))
