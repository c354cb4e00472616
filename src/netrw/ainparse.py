"""Parser and printer for abstract index notation terms and rule files.

Closed terms look like ``[a b| m^a_{c d} S^c_e |e d]``: an output label
list, a product of labelled factors, and an input label list.  A naked
term is just the product; its unmatched superscripts (in order of first
appearance) become the outputs and its unmatched subscripts the inputs.

Labels are single characters; braces are grouping only, so ``m^a_bc``,
``m^a_{bc}``, and ``m^a_{b c}`` all have subscripts b and c.
Coefficients are rationals ``p/q``.  ``delta`` is the Kronecker delta
(as is ``d``, unless the signature declares a symbol of that name), and
the factor ``1`` denotes the empty product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .core import NEUTRAL, Signature, Symbol
from .freeprop import LinComb, NetClass
from .network import (
    Edge,
    InvalidNetworkError,
    Network,
    _topological_order,
    smoothen,
    transference,
    validate,
)
from .rewrite import Rule, RuleError, make_rule


class AinError(ValueError):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


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


_ADDITIVE_MARKS = re.compile(r"[][+-]")


def _split_additive(text: str) -> list[tuple[int, str]]:
    """Split at top-level +/- into (sign, chunk) pieces.  One sign may
    stand between two terms or before the first; the text after the last
    sign, or the whole text when there is none, must be a term.  Only
    brackets and signs are visited."""
    pieces = []
    depth = 0
    sign = 0  # the sign since the last term; 0 before any
    start = 0
    for mark in _ADDITIVE_MARKS.finditer(text):
        ch = mark.group()
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif depth == 0:
            chunk = text[start : mark.start()]
            if chunk.strip():
                pieces.append((sign or 1, chunk))
            elif sign:
                raise AinError("Syntax", f"two signs in a row in {text!r}")
            sign = -1 if ch == "-" else 1
            start = mark.end()
    chunk = text[start:]
    if not chunk.strip():
        raise AinError("Syntax", f"dangling sign or empty expression in {text!r}")
    pieces.append((sign or 1, chunk))
    return pieces


def _braced_labels(body: str) -> list[str]:
    labels = []
    for word in body.split():
        for ch in word:
            if ch not in _BARE_LABEL_CHARS:
                raise AinError("Syntax", f"bad label character {ch!r}")
            labels.append(ch)
    return labels


def _parse_leglist(text: str) -> list[str]:
    labels = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "{":
            j = text.find("}", i)
            if j < 0:
                raise AinError("Syntax", "unterminated brace in label list")
            labels.extend(_braced_labels(text[i + 1 : j]))
            i = j + 1
        elif ch in _BARE_LABEL_CHARS:
            labels.append(ch)
            i += 1
        else:
            raise AinError("Syntax", f"unexpected {ch!r} in label list")
    return labels


def _parse_script(text: str, i: int) -> tuple[list[str], int]:
    """Parse the script immediately after ^ or _, returning (labels, pos)."""
    if i < len(text) and text[i] == "{":
        j = text.find("}", i)
        if j < 0:
            raise AinError("Syntax", "unterminated brace in script")
        return _braced_labels(text[i + 1 : j]), j + 1
    labels = []
    while i < len(text) and text[i] in _BARE_LABEL_CHARS:
        labels.append(text[i])
        i += 1
    if not labels:
        raise AinError("Syntax", "empty script")
    return labels, i


def _coefficient(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise AinError("Syntax", f"zero denominator in {text!r}") from None
    except ValueError:
        raise AinError("Syntax", f"bad coefficient {text!r}") from None


def _parse_product(text: str) -> tuple[Fraction, list[Factor]]:
    """Parse ``[coefficient] factor*`` (the part between bars, or a naked term)."""
    i = 0
    n = len(text)
    coeff = _ONE
    factors: list[Factor] = []
    seen_coeff = False
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i].isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "/"):
                j += 1
            if seen_coeff or factors:
                raise AinError("Syntax", f"unexpected number at {text[i:j]!r}")
            coeff = _coefficient(text[i:j])
            seen_coeff = True
            i = j
            continue
        if not text[i].isalpha():
            raise AinError("Syntax", f"unexpected {text[i]!r} in term")
        j = i
        while j < n and (text[j].isalnum()):
            j += 1
        name = text[i:j]
        i = j
        sups: list[str] = []
        subs: list[str] = []
        while i < n and text[i] in "^_":
            marker = text[i]
            labels, i = _parse_script(text, i + 1)
            if marker == "^":
                if sups:
                    raise AinError("Syntax", f"two superscripts on {name!r}")
                sups = labels
            else:
                if subs:
                    raise AinError("Syntax", f"two subscripts on {name!r}")
                subs = labels
        factors.append(Factor(name, sups, subs))
    return coeff, factors


def _parse_chunk(chunk: str) -> Term:
    s = chunk.strip()
    coeff = _ONE
    # leading coefficient before a bracket
    i = 0
    while i < len(s) and (s[i].isdigit() or s[i] == "/"):
        i += 1
    if i and i < len(s) and s[i:].lstrip().startswith("["):
        coeff = _coefficient(s[:i])
        s = s[i:].lstrip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise AinError("Syntax", f"unterminated bracket in {chunk!r}")
        inner = s[1:-1]
        parts = inner.split("|")
        if len(parts) != 3:
            raise AinError("Syntax", "closed term needs two bars")
        outs = _parse_leglist(parts[0])
        ins = _parse_leglist(parts[2])
        body = parts[1].strip()
        if body == "1":
            c2, factors = _ONE, []
        else:
            c2, factors = _parse_product(parts[1])
        return Term(c2 if coeff is _ONE else coeff * c2, True, outs, ins, factors)
    # a leading coefficient was taken above only before a bracket
    body = s.strip()
    if body == "1" or body == "":
        return Term(_ONE, False, None, None, [])
    c2, factors = _parse_product(s)
    return Term(c2, False, None, None, factors)


# ---------------------------------------------------------------------------
# Building networks from terms
# ---------------------------------------------------------------------------


def _delta_names(sig: Signature) -> set[str]:
    names = {"delta"}
    if "d" not in sig:
        names.add("d")
    return names


def _term_label_roles(term: Term, sig: Signature) -> tuple[list[str], list[str]]:
    """Unmatched (superscript, subscript) labels in first-appearance order."""
    sups: list[str] = []
    subs: list[str] = []
    for f in term.factors:
        sups.extend(f.sups)
        subs.extend(f.subs)
    sup_set, sub_set = set(sups), set(subs)
    if len(sup_set) != len(sups) or len(sub_set) != len(subs):
        raise AinError("RepeatedLabel", "label used twice in the same role")
    outs = [l for l in sups if l not in sub_set]
    ins = [l for l in subs if l not in sup_set]
    return outs, ins


def _term_parts(
    term: Term, sig: Signature, outs: list[str], ins: list[str]
) -> tuple[list[int], dict[int, Edge], dict[int, Symbol]]:
    """The vertices, edges and decorations of a term's network.

    Each label joins the port that produces it to the one that consumes it,
    so once every label is produced and consumed exactly once and each
    factor has its symbol's arities, ports are unique and contiguous and
    every vertex id is valid.  A directed cycle is the one network axiom
    the parts can still break."""
    deltas = _delta_names(sig)
    producers: dict[str, tuple[int, int]] = {}
    consumers: dict[str, tuple[int, int]] = {}

    def add_producer(label: str, where: tuple[int, int]) -> None:
        if label in producers:
            raise AinError("RepeatedLabel", f"label {label!r} produced twice")
        producers[label] = where

    def add_consumer(label: str, where: tuple[int, int]) -> None:
        if label in consumers:
            raise AinError("RepeatedLabel", f"label {label!r} consumed twice")
        consumers[label] = where

    for j, label in enumerate(ins, 1):
        add_producer(label, (1, j))
    for i, label in enumerate(outs, 1):
        add_consumer(label, (0, i))

    deco: dict[int, Symbol] = {}
    vid = 2
    for f in term.factors:
        if f.name in deltas:
            sym = NEUTRAL
            if len(f.sups) != 1 or len(f.subs) != 1:
                raise AinError("ArityMismatch", "delta takes one superscript and one subscript")
        elif f.name in sig:
            sym = sig[f.name]
            if len(f.sups) != sym.coarity or len(f.subs) != sym.arity:
                raise AinError(
                    "ArityMismatch",
                    f"{f.name!r} wants {sym.coarity} superscripts and {sym.arity} subscripts",
                )
        else:
            raise AinError("UnknownSymbol", f"{f.name!r} not in signature")
        deco[vid] = sym
        for i, label in enumerate(f.sups, 1):
            add_producer(label, (vid, i))
        for i, label in enumerate(f.subs, 1):
            add_consumer(label, (vid, i))
        vid += 1

    if set(producers) != set(consumers):
        only_p = sorted(set(producers) - set(consumers))
        only_c = sorted(set(consumers) - set(producers))
        raise AinError(
            "RepeatedLabel",
            f"unbalanced labels (produced only: {only_p}, consumed only: {only_c})",
        )

    edges = {}
    for eid, label in enumerate(sorted(producers)):
        tail, tindex = producers[label]
        head, hindex = consumers[label]
        edges[eid] = Edge(head, hindex, tail, tindex)
    return [0, 1, *deco], edges, deco


def _build_term(
    term: Term, sig: Signature, outs: list[str], ins: list[str], typed: bool
) -> NetClass:
    """The class of a term's network, deferred: it is canonicalized only
    when its code or rep is first read.  Only a cycle can make the parts
    invalid, so they are validated only when a topological order misses a
    vertex, for the message that names the cycle's edges.

    When ``typed``, the class's transference is computed along that same
    order, before smoothening: a delta passes its input's reach on to its
    output, so the result is the smoothened network's.  Otherwise it is
    computed on its first read, if any."""
    vertices, edges, deco = _term_parts(term, sig, outs, ins)
    order = _topological_order(deco, edges.values())
    if len(order) < len(deco):
        try:
            validate(vertices, edges, deco)
        except InvalidNetworkError as exc:
            raise AinError("CycleInTerm", str(exc)) from None
    net = Network(vertices, edges, deco)
    return NetClass(smoothen(net), transference(net, order) if typed else None)


def parse_term(text: str, sig: Signature) -> LinComb:
    """Parse a sum of closed or naked terms into a linear combination."""
    return _combination(_parse_summands(text, sig, None, None, False)[0])


def _combination(summands: list[tuple[NetClass, Fraction]]) -> LinComb:
    """The combination of parsed summands, which share one shape."""
    first = summands[0][0]
    return LinComb.sum_of(first.coarity, first.arity, summands)


def _parse_summands(
    text: str,
    sig: Signature,
    lead_outs: list[str] | None,
    lead_ins: list[str] | None,
    typed: bool,
) -> tuple[list[tuple[NetClass, Fraction]], list[str], list[str]]:
    """The ``(class, coefficient)`` summands of a combination in the order
    written, each class deferred, and the leg labels (outs, ins) that order
    its naked terms: the given ones, else the first term's own.  When
    ``typed``, each class's transference is computed as it is built."""
    terms = [(sign, _parse_chunk(chunk)) for sign, chunk in _split_additive(text)]
    summands: list[tuple[NetClass, Fraction]] = []
    for sign, term in terms:
        if term.closed:
            outs, ins = term.outs, term.ins
        else:
            outs, ins = _term_label_roles(term, sig)
            if lead_outs is None:
                lead_outs, lead_ins = outs, ins
            else:
                if sorted(outs) != sorted(lead_outs) or sorted(ins) != sorted(lead_ins):
                    raise AinError(
                        "LegOrderMismatchAcrossTerms",
                        "additive terms have different unmatched label sets",
                    )
                outs, ins = lead_outs, lead_ins
        if lead_outs is None:
            lead_outs, lead_ins = outs, ins
        cls = _build_term(term, sig, outs, ins, typed)
        if summands and (cls.coarity, cls.arity) != (summands[0][0].coarity, summands[0][0].arity):
            raise AinError("LegOrderMismatchAcrossTerms", "terms have different shapes")
        summands.append((cls, term.coeff if sign > 0 else -term.coeff))
    assert lead_outs is not None and lead_ins is not None
    return summands, lead_outs, lead_ins


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
        if not line.startswith("rule "):
            raise AinError("Syntax", f"line {lineno}: expected 'rule'")
        head, _, rest = line[5:].partition(":")
        head_words = head.split()
        if not head_words:
            raise AinError("Syntax", f"line {lineno}: missing rule id")
        rule_id = head_words[0]
        sharp = head_words[1:] == ["sharp"]
        if head_words[1:] not in ([], ["sharp"]):
            raise AinError("Syntax", f"line {lineno}: bad rule header")
        if rule_id in seen:
            raise AinError("Syntax", f"line {lineno}: duplicate rule id {rule_id!r}")
        seen.add(rule_id)

        body, _, where = rest.partition(" where ")
        lhs_text, arrow, rhs_text = body.partition("->")
        if not arrow:
            raise AinError("Syntax", f"line {lineno}: missing '->'")
        lhs_summands, outs, ins = _parse_summands(lhs_text, sig, None, None, True)
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
        rhs = _parse_summands(rhs_text, sig, outs, ins, typed)[0]

        if where.strip():
            if sharp:
                raise AinError("Syntax", f"line {lineno}: sharp rule with a where clause")
            zeros = []
            for clause in where.split(","):
                out_label, arrow2, in_label = clause.partition("~>")
                if not arrow2:
                    raise AinError("Syntax", f"line {lineno}: bad where clause")
                out_label, in_label = out_label.strip(), in_label.strip()
                if out_label not in outs or in_label not in ins:
                    raise AinError(
                        "Syntax", f"line {lineno}: where clause labels not legs"
                    )
                zeros.append((outs.index(out_label), ins.index(in_label)))
            typespec = zeros
        elif sharp:
            typespec = "sharp"
        else:
            typespec = []
        rules.append(make_rule(rule_id, lhs, rhs, typespec))
    return rules


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
    order = []
    for i in range(1, rep.coarity + 1):
        order.append(rep.in_edge(0, i))
    for j in range(1, rep.arity + 1):
        e = rep.out_edge(1, j)
        if e not in order:
            order.append(e)
    order.extend(e for e in sorted(rep.edges) if e not in order)
    names = {e: n for e, n in zip(order, _edge_names(len(rep.edges)))}
    outs = [names[rep.in_edge(0, i)] for i in range(1, rep.coarity + 1)]
    ins = [names[rep.out_edge(1, j)] for j in range(1, rep.arity + 1)]
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
