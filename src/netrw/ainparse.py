"""Parser and printer for abstract index notation terms and rule files.

Closed terms look like ``[a b| m^a_{c d} S^c_e |e d]``: an output label
list, a product of labelled factors, and an input label list.  A naked
term is just the product; its unmatched superscripts (in order of first
appearance) become the outputs and its unmatched subscripts the inputs.

Labels are single characters; braces are grouping only, so ``m^a_bc``,
``m^a_{bc}``, and ``m^a_{b c}`` all have subscripts b and c.
Coefficients are rationals ``p/q``, written before a term or inside a
closed term's bars.  A term with no factors is its coefficient times the
empty product: ``1`` alone is the (0, 0) unit, ``[a b|1|b a]`` the wire
crossing, and ``[a||a]`` the wire.  ``delta`` and ``d`` are the
Kronecker delta, a wire with no vertex, each unless the signature
declares a symbol of that name.

The text is read in one left-to-right pass, one reader per production of
the grammar that README states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .core import Signature, Symbol
from .freeprop import LinComb, NetClass
from .network import (
    Edge,
    InvalidNetworkError,
    Network,
    Violation,
    _topological_order,
    transference,
    validate,
)
from .rewrite import Rule, RuleError, make_rule


class AinError(ValueError):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


@dataclass
class Factor:
    name: str
    sups: list[str]
    subs: list[str]


@dataclass
class Term:
    coeff: Fraction
    closed: bool
    outs: list[str] | None
    ins: list[str] | None
    factors: list[Factor]


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


# the coefficient of a term written without one, shared, since a Fraction
# is immutable and the product by a unit coefficient is not taken
_ONE = Fraction(1)

_BARE_LABEL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")

# Each reader below reads one production of README's grammar at
# ``text[i]`` and returns what it read and the position after it.
# Whitespace may stand between tokens but not inside a factor or a
# rational, so every reader but ``_labels``, which reads a script, skips
# the whitespace after what it read.
_SPACE = re.compile(r"\s*")
_LABEL_RUN = re.compile(r"[0-9A-Za-z]*")
_LEGLIST = re.compile(r"(?:\{[0-9A-Za-z\s]*\}|[0-9A-Za-z\s]+)*")
_NAME = re.compile(r"[^\W\d_][^\W_]*")  # a letter, then letters and digits
_RATIONAL = re.compile(r"([0-9][0-9/]*)\s*")


def _expression(text: str) -> list[tuple[int, Term]]:
    """``expr := [sign] term (sign term)*``, as (sign, term) pairs."""
    terms = []
    i = _SPACE.match(text).end()
    while True:
        sign = -1 if text.startswith("-", i) else 1
        if text.startswith(("+", "-"), i):
            i = _SPACE.match(text, i + 1).end()
        term, i = _term(text, i)
        terms.append((sign, term))
        if i == len(text):
            return terms
        if text[i] not in "+-":
            raise _unexpected(text, i)


def _term(text: str, i: int) -> tuple[Term, int]:
    """``term := [rational] (closed | factor*)``, not empty, where
    ``closed := '[' leglist '|' [rational] factor* '|' leglist ']'``."""
    coeff, j = _rational(text, i)
    if text.startswith("[", j):
        outs, j = _leglist(text, j + 1)
        inner, j = _rational(text, _expect(text, j, "|"))
        factors, j = _factors(text, j)
        ins, j = _leglist(text, _expect(text, j, "|"))
        coeff = inner if coeff is _ONE else coeff * inner
        return Term(coeff, True, outs, ins, factors), _expect(text, j, "]")
    factors, j = _factors(text, j)
    if j == i:
        if i == len(text):
            raise AinError("Syntax", f"dangling sign or empty expression in {text!r}")
        if text[i] in "+-":
            raise AinError("Syntax", f"two signs in a row in {text!r}")
        raise _unexpected(text, i)
    return Term(coeff, False, None, None, factors), j


def _rational(text: str, i: int) -> tuple[Fraction, int]:
    """``rational := digit+ ['/' digit+]``, or 1 where none is written."""
    found = _RATIONAL.match(text, i)
    if found is None:
        return _ONE, i
    return _coefficient(found.group(1)), found.end()


def _coefficient(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise AinError("Syntax", f"zero denominator in {text!r}") from None
    except ValueError:
        raise AinError("Syntax", f"bad coefficient {text!r}") from None


def _factors(text: str, i: int) -> tuple[list[Factor], int]:
    """``factor*``, where ``factor := name script*`` with at most one
    ``'^'`` and one ``'_'`` script, and ``script := ('^' | '_') labels``
    with at least one label or braces."""
    factors = []
    while found := _NAME.match(text, i):
        name = found.group()
        i = found.end()
        scripts: dict[str, list[str]] = {}
        while (mark := text[i : i + 1]) in ("^", "_"):
            labels, j = _labels(text, i + 1)
            if j == i + 1:
                raise AinError("Syntax", "empty script")
            if mark in scripts:
                which = "superscripts" if mark == "^" else "subscripts"
                raise AinError("Syntax", f"two {which} on {name!r}")
            scripts[mark] = labels
            i = j
        factors.append(Factor(name, scripts.get("^", []), scripts.get("_", [])))
        i = _SPACE.match(text, i).end()
    return factors, i


def _leglist(text: str, i: int) -> tuple[list[str], int]:
    """``leglist := labels*``, whitespace between the groups or not."""
    found = _LEGLIST.match(text, i)
    return [ch for ch in found.group() if ch in _BARE_LABEL_CHARS], found.end()


def _labels(text: str, i: int) -> tuple[list[str], int]:
    """``labels := label* | '{' (label | whitespace)* '}'``: a run of bare
    labels, maybe empty, or a braced group."""
    if not text.startswith("{", i):
        j = _LABEL_RUN.match(text, i).end()
        return list(text[i:j]), j
    j = text.find("}", i)
    if j < 0:
        raise AinError("Syntax", f"unterminated brace in {text!r}")
    labels = "".join(text[i + 1 : j].split())
    for ch in labels:
        if ch not in _BARE_LABEL_CHARS:
            raise AinError("Syntax", f"bad label character {ch!r}")
    return list(labels), j + 1


def _expect(text: str, i: int, mark: str) -> int:
    """The position after ``mark`` at ``text[i]`` and the whitespace after it."""
    if text.startswith(mark, i):
        return _SPACE.match(text, i + 1).end()
    if i == len(text):
        raise AinError("Syntax", f"unterminated bracket in {text!r}")
    raise _unexpected(text, i)


def _unexpected(text: str, i: int) -> AinError:
    """The error for the number or character at ``text[i]``."""
    if number := _RATIONAL.match(text, i):
        return AinError("Syntax", f"unexpected number at {number.group(1)!r}")
    return AinError("Syntax", f"unexpected {text[i]!r} in {text!r}")


# ---------------------------------------------------------------------------
# Building networks from terms
# ---------------------------------------------------------------------------


def _delta_names(sig: Signature) -> set[str]:
    """The factor names read as a delta: ``d`` and ``delta``, each unless
    the signature declares a symbol of that name."""
    return {name for name in ("d", "delta") if name not in sig}


Legs = tuple[list[str], list[str]]  # the leg labels (outs, ins) of a term


def _build_term(
    term: Term, sig: Signature, legs: Legs | None, typed: bool
) -> tuple[NetClass, Legs]:
    """The class of a term's network, deferred (canonicalized on the first
    read of its code or rep), and the term's legs: a closed term's own, or
    a naked term's unmatched superscripts and subscripts in order of first
    appearance, reordered as ``legs`` when given.

    Each label is registered once with its producer and once with its
    consumer: a port (vertex, index), or, at a delta ``d^a_b``, which
    continues wire b as wire a, the delta's other label.  A wire is one
    edge, with the id of its tailmost label in sorted label order.  With
    every label produced and consumed once and every factor of the right
    arities, a directed cycle is the one axiom the network can break: a
    loop of deltas, which no wire passes, or vertices that a topological
    order misses, and only then are the parts validated, for the message
    that names the cycle's edges.  When ``typed``, the transference is
    computed along that order."""
    deltas = _delta_names(sig)
    producers: dict[str, tuple[int, int] | str] = {}
    consumers: dict[str, tuple[int, int] | str] = {}

    def add_producer(label: str, where: tuple[int, int] | str) -> None:
        if label in producers:
            raise AinError("RepeatedLabel", f"label {label!r} produced twice")
        producers[label] = where

    def add_consumer(label: str, where: tuple[int, int] | str) -> None:
        if label in consumers:
            raise AinError("RepeatedLabel", f"label {label!r} consumed twice")
        consumers[label] = where

    if term.closed:
        outs, ins = term.outs, term.ins
        for j, label in enumerate(ins, 1):
            add_producer(label, (1, j))
        for i, label in enumerate(outs, 1):
            add_consumer(label, (0, i))

    deco: dict[int, Symbol] = {}
    for f in term.factors:
        if f.name in deltas:
            if len(f.sups) != 1 or len(f.subs) != 1:
                raise AinError("ArityMismatch", "delta takes one superscript and one subscript")
            [a], [b] = f.sups, f.subs
            add_producer(a, b)
            add_consumer(b, a)
            continue
        if f.name not in sig:
            raise AinError("UnknownSymbol", f"{f.name!r} not in signature")
        sym = sig[f.name]
        if len(f.sups) != sym.coarity or len(f.subs) != sym.arity:
            raise AinError(
                "ArityMismatch",
                f"{f.name!r} wants {sym.coarity} superscripts and {sym.arity} subscripts",
            )
        vid = len(deco) + 2
        deco[vid] = sym
        for i, label in enumerate(f.sups, 1):
            add_producer(label, (vid, i))
        for i, label in enumerate(f.subs, 1):
            add_consumer(label, (vid, i))

    if not term.closed:
        outs = [label for label in producers if label not in consumers]
        ins = [label for label in consumers if label not in producers]
        if legs is not None:
            if sorted(outs) != sorted(legs[0]) or sorted(ins) != sorted(legs[1]):
                raise AinError(
                    "LegOrderMismatchAcrossTerms",
                    "additive terms have different unmatched label sets",
                )
            outs, ins = legs
        for i, label in enumerate(outs, 1):
            consumers[label] = (0, i)
        for j, label in enumerate(ins, 1):
            producers[label] = (1, j)
    elif producers.keys() != consumers.keys():
        only_p = sorted(producers.keys() - consumers.keys())
        only_c = sorted(consumers.keys() - producers.keys())
        raise AinError(
            "RepeatedLabel",
            f"unbalanced labels (produced only: {only_p}, consumed only: {only_c})",
        )

    labels = sorted(producers)
    edges: dict[int, Edge] = {}
    passed: list[str] = []  # the labels that wires take on at deltas
    for eid, label in enumerate(labels):
        tail = producers[label]
        if isinstance(tail, str):
            continue  # on the wire of the delta's input label
        head = consumers[label]
        while isinstance(head, str):
            passed.append(head)
            head = consumers[head]
        edges[eid] = Edge(*head, *tail)
    if len(passed) < len(term.factors) - len(deco):  # deltas on a loop of their own
        witness = tuple(
            eid
            for eid, label in enumerate(labels)
            if isinstance(producers[label], str) and label not in passed
        )
        raise AinError("CycleInTerm", str(Violation("CycleFound", witness)))

    order = _topological_order(deco, edges.values())
    if len(order) < len(deco):
        try:
            validate(edges, deco)
        except InvalidNetworkError as exc:
            raise AinError("CycleInTerm", str(exc)) from None
    net = Network(edges, deco)
    return NetClass(net, transference(net, order) if typed else None), (outs, ins)


def parse_term(text: str, sig: Signature) -> LinComb:
    """Parse a sum of closed or naked terms into a linear combination."""
    return _combination(_parse_summands(text, sig, None, False)[0])


def _combination(summands: list[tuple[NetClass, Fraction]]) -> LinComb:
    """The combination of parsed summands, which share one shape."""
    first = summands[0][0]
    return LinComb.sum_of(first.coarity, first.arity, summands)


def _parse_summands(
    text: str, sig: Signature, legs: Legs | None, typed: bool
) -> tuple[list[tuple[NetClass, Fraction]], Legs]:
    """The ``(class, coefficient)`` summands of a combination in the order
    written, each class deferred, and the legs that order its naked terms:
    ``legs`` when given, else the first term's own.  When ``typed``, each
    class's transference is computed as it is built."""
    terms = _expression(text)
    summands: list[tuple[NetClass, Fraction]] = []
    for sign, term in terms:
        cls, own = _build_term(term, sig, legs, typed)
        if legs is None:
            legs = own
        if summands and (cls.coarity, cls.arity) != (summands[0][0].coarity, summands[0][0].arity):
            raise AinError("LegOrderMismatchAcrossTerms", "terms have different shapes")
        summands.append((cls, term.coeff if sign > 0 else -term.coeff))
    assert legs is not None
    return summands, legs


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------


def parse_rules(text: str, sig: Signature) -> list[Rule]:
    """Parse a rule file: one rule per line,

        rule <id> [sharp]: <lhs> -> <rhs> [where <out> ~> <in>[, ...]]

    Each side is parsed in one pass, and every check reads only the
    terms' transferences, each computed along the order that rules out a
    cycle, and the rhs ones only when the rule's type is not all ones.  A
    lhs written as one term with coefficient 1 is one monomial as it
    stands; it is canonicalized only when a redex search, an ambiguity
    search, an order check or ``complete`` first reads it.  Any other lhs
    is merged, which canonicalizes its terms, to see whether it is one
    monomial.  The rule keeps the rhs terms as written and canonicalizes
    them on the first read of ``Rule.rhs``."""
    rules: list[Rule] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rules.append(_parse_rule(line, sig, seen))
        except AinError as exc:
            raise AinError(exc.kind, f"line {lineno}: {exc.message}") from None
    return rules


def _parse_rule(line: str, sig: Signature, seen: set[str]) -> Rule:
    """The rule on one stripped line of a rule file; its id joins ``seen``."""
    if not line.startswith("rule "):
        raise AinError("Syntax", "expected 'rule'")
    head, _, rest = line[5:].partition(":")
    head_words = head.split()
    if not head_words:
        raise AinError("Syntax", "missing rule id")
    rule_id = head_words[0]
    sharp = head_words[1:] == ["sharp"]
    if head_words[1:] not in ([], ["sharp"]):
        raise AinError("Syntax", "bad rule header")
    if rule_id in seen:
        raise AinError("Syntax", f"duplicate rule id {rule_id!r}")
    seen.add(rule_id)

    body, _, where = rest.partition(" where ")
    lhs_text, arrow, rhs_text = body.partition("->")
    if not arrow:
        raise AinError("Syntax", "missing '->'")
    lhs_summands, legs = _parse_summands(lhs_text, sig, None, True)
    if len(lhs_summands) == 1 and lhs_summands[0][1] == 1:
        lhs = mu = lhs_summands[0][0]
    else:
        lhs = _combination(lhs_summands)
        if not lhs.is_monomial():
            raise RuleError(f"rule {rule_id!r}: LhsNotMonomial")
        mu = lhs.monomials()[0]
    # make_rule reads the rhs transferences only under a type that is
    # not all ones: tr(lhs) for a sharp rule, one with a zero for a
    # where clause
    typed = bool(where.strip()) or (sharp and not mu.tr.is_ones())
    rhs = _parse_summands(rhs_text, sig, legs, typed)[0]
    outs, ins = legs

    if where.strip():
        if sharp:
            raise AinError("Syntax", "sharp rule with a where clause")
        zeros = []
        for clause in where.split(","):
            out_label, arrow2, in_label = clause.partition("~>")
            if not arrow2:
                raise AinError("Syntax", "bad where clause")
            out_label, in_label = out_label.strip(), in_label.strip()
            if out_label not in outs or in_label not in ins:
                raise AinError("Syntax", "where clause labels not legs")
            zeros.append((outs.index(out_label), ins.index(in_label)))
        typespec = zeros
    elif sharp:
        typespec = "sharp"
    else:
        typespec = []
    return make_rule(rule_id, lhs, rhs, typespec)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


_PRINT_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
)


def _edge_names(n: int) -> list[str]:
    if n > len(_PRINT_ALPHABET):
        raise AinError("Syntax", f"cannot print a monomial with {n} edges")
    return list(_PRINT_ALPHABET[:n])


def format_class(cls: NetClass) -> str:
    """Deterministic closed-form AIN for one monomial."""
    rep = cls.rep
    # edges named outputs first, then inputs, then the rest by id
    order = dict.fromkeys([*rep.in_edges(0), *rep.out_edges(1), *sorted(rep.edges)])
    names = dict(zip(order, _edge_names(len(rep.edges))))
    outs = [names[e] for e in rep.in_edges(0)]
    ins = [names[e] for e in rep.out_edges(1)]
    parts = []
    for v in rep.inner_vertices():
        sym = rep.deco[v]
        sups = [names[e] for e in rep.out_edges(v)]
        subs = [names[e] for e in rep.in_edges(v)]
        piece = sym.name
        if sups:
            piece += "^" + "".join(sups)
        if subs:
            piece += "_" + "".join(subs)
        parts.append(piece)
    body = " ".join(parts) if parts else "1"
    return f"[{' '.join(outs)}|{body}|{' '.join(ins)}]"


def format_term(x: LinComb) -> str:
    """Deterministic closed-form AIN; parse(format(x)) == x."""
    if x.is_zero():
        return "0"
    pieces = []
    for cls, coeff in x.items():
        body = format_class(cls)
        if coeff == 1:
            text = body
        elif coeff == -1:
            text = f"- {body}"
        elif coeff < 0:
            text = f"- {-coeff} {body}"
        else:
            text = f"{coeff} {body}"
        pieces.append(text)
    out = " + ".join(pieces)
    return out.replace("+ - ", "- ")
