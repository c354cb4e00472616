"""Rules, simple reductions, normalization, irreducibility, and
joinability over the typed modules of the free linear PROP."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterator, Sequence

from .core import BoolMat
from .freeprop import LinComb, NetClass, _join_network, _summands, class_of
from .match import (
    Embedding,
    PatternParts,
    context_type_ok,
    contexts,
    embeddings,
    features,
    pattern_parts,
)
from .network import Network


class RuleError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    def __init__(self, partial: LinComb, steps: int):
        super().__init__(f"reduction budget exhausted after {steps} steps")
        self.partial = partial
        self.steps = steps


@dataclass(frozen=True, eq=False)
class Rule:
    """A rewrite rule: transference type, lhs monomial, and the rhs as its
    ``(class, coefficient)`` summands in the order written.  A rule is equal
    only to itself.

    The lhs and the summands' classes are checked against the type when
    the rule is made, which reads only their transferences.  The lhs is
    canonicalized on the first read of its ``rep``: by a redex search in a
    monomial that has all its ``lhs_needs``, an ambiguity search, an order
    check or ``complete``.  ``rhs``, the canonical combination, is built
    on its first read, so the right-hand side of a rule that never fires
    is never canonicalized."""

    rule_id: str
    qtype: BoolMat
    lhs: NetClass
    summands: tuple[tuple[NetClass, Fraction], ...]
    sharp: bool

    @property
    def coarity(self) -> int:
        return self.lhs.coarity

    @property
    def arity(self) -> int:
        return self.lhs.arity

    @cached_property
    def rhs(self) -> LinComb:
        """The right-hand side, its summands merged on the first read."""
        return LinComb.sum_of(self.coarity, self.arity, self.summands)

    @cached_property
    def lhs_needs(self) -> frozenset:
        """The lhs's :func:`~netrw.match.features`: its inner vertices'
        symbols and the types of its edges between inner vertices.  A
        monomial whose features do not include them holds no redex of the
        rule.  Read off the network the lhs holds, canonical or not."""
        return frozenset(features(self.lhs.net))

    @cached_property
    def lhs_parts(self) -> PatternParts:
        """``pattern_parts`` of the lhs representative, found once per rule."""
        return pattern_parts(self.lhs.rep)


def make_rule(
    rule_id: str,
    lhs: NetClass | LinComb,
    rhs: NetClass | LinComb | Sequence[tuple[NetClass, Fraction]],
    typespec="sharp",
) -> Rule:
    """Assemble and check a rule.

    ``rhs`` is a class, a combination, or a sequence of ``(class,
    coefficient)`` summands as written, which may repeat a class or cancel;
    a combination's terms are taken in code order.  ``typespec`` is
    ``"sharp"`` (type = lhs transference), a list of 0-based ``(output,
    input)`` positions to zero out of the all-ones type, or an explicit
    :class:`BoolMat`.  ``RhsOutsideType(term k)`` names the first summand,
    counting from 1, whose class is outside the type and does not cancel.

    A class lhs is taken as it is, not canonicalized; a combination must
    be one monomial with coefficient 1.
    """
    if isinstance(lhs, NetClass):
        mu = lhs
    elif not lhs.is_monomial() or lhs.items()[0][1] != 1:
        raise RuleError(f"rule {rule_id!r}: LhsNotMonomial")
    else:
        mu = lhs.monomials()[0]
    shape = (mu.coarity, mu.arity)
    if isinstance(rhs, (NetClass, LinComb)):
        if (rhs.coarity, rhs.arity) != shape:
            raise RuleError(f"rule {rule_id!r}: lhs and rhs shapes differ")
        summands = tuple(_summands(rhs))
    else:
        summands = tuple(rhs)
        if any((t.coarity, t.arity) != shape for t, _ in summands):
            raise RuleError(f"rule {rule_id!r}: lhs and rhs shapes differ")

    if typespec == "sharp":
        q = mu.tr
        sharp = True
    elif isinstance(typespec, BoolMat):
        q = typespec
        sharp = q == mu.tr
    else:
        q = BoolMat.ones(mu.coarity, mu.arity)
        for i, j in typespec:
            q = q.set(i, j, 0)
        sharp = q == mu.tr
    if (q.rows, q.cols) != shape:
        raise RuleError(f"rule {rule_id!r}: type shape mismatch")
    if not mu.tr.leq(q):
        raise RuleError(f"rule {rule_id!r}: TrExceedsType")
    if q.is_ones():  # every transference fits: no summand's is read
        outside = []
    else:
        outside = [pos for pos, (t, c) in enumerate(summands, 1) if c and not t.tr.leq(q)]
    if outside:
        # only a class outside the type needs the merge, to see whether it cancels
        kept = LinComb.sum_of(*shape, summands).terms
        for pos in outside:
            if summands[pos - 1][0] in kept:
                raise RuleError(f"rule {rule_id!r}: RhsOutsideType(term {pos})")
    return Rule(rule_id, q, mu, summands, sharp)


@dataclass(frozen=True)
class ReductionStep:
    rule_id: str
    context: NetClass
    before: NetClass
    after: LinComb
    coefficient: Fraction


def _admitted_contexts(
    rule: Rule, emb: Embedding, subject: Network, q: BoolMat
) -> Iterator[NetClass]:
    """The contexts K of the embedding of rule's lhs representative into
    ``subject`` that are admissible for the rule at ambient type q, for a
    subject with tr(subject) <= q.

    Each context of a sharp rule is admissible unchecked: annexing the
    lhs to K gives the subject, which is acyclic, so K annexes the rule's
    type tr(lhs) without a cycle, and by the block formula the result's
    transference is tr(subject) <= q."""
    return (
        k
        for k in contexts(emb, rule.lhs.rep, subject)
        if rule.sharp or context_type_ok(k.tr, rule.qtype, q)
    )


def _monomial_redexes(nu: NetClass, q: BoolMat, rules: Sequence[Rule]):
    """Yield (rule, context K) pairs admissible at ambient type q, in the
    deterministic redex order; ``rules`` are sorted by id, and tr(nu) <= q,
    which :meth:`_Redexes._see` checks.

    A rule whose ``lhs_needs`` are not all features of nu has no
    embedding into nu, so it is passed over before its lhs is
    canonicalized."""
    have = features(nu.net)
    for rule in rules:
        if not rule.lhs_needs <= have:
            continue
        subject = nu.rep
        for emb in embeddings(rule.lhs.rep, subject, rule.lhs_parts):
            for ctx in _admitted_contexts(rule, emb, subject, q):
                yield rule, ctx


def _replacement(rule: Rule, ctx: NetClass) -> LinComb:
    """``lc_annex(ctx, rule.rhs)`` for a context that
    :func:`~netrw.match.context_type_ok` admitted for the rule.  The context
    annexes the rule's type without a cycle and every term of ``rhs`` has
    its transference below that type, so each join is defined: it is built
    with no second nilpotence test."""
    r, q = rule.arity, rule.coarity
    return LinComb.sum_of(
        ctx.coarity - r,
        ctx.arity - q,
        ((class_of(_join_network(ctx.net, t.net, r, q)), c) for t, c in rule.rhs.terms.items()),
    )


class _Redexes:
    """The admissible redexes of each monomial at one ambient type, and the
    agenda of the combination last reduced, kept for one call of
    :func:`normalize` or :func:`joinable`.

    A simple reduction is fixed by its monomial and redex, so the search
    for a monomial's redexes runs once per call however often the monomial
    recurs.  ``found`` maps a monomial to ``[redexes, rest]``: the
    ``(rule, ctx, _replacement(rule, ctx))`` found so far, in the redex
    order of :func:`_monomial_redexes`, and the rest of that search, None
    once it is exhausted.

    The agenda lets a step touch only the monomials it changes.  ``last``
    is the combination the last step produced, ``fresh`` the monomials that
    step brought in, and ``heap`` a heap by code of ``(code, monomial)``
    holding every monomial of ``last`` not yet known to be irreducible;
    ``queued`` is the set of monomials on the heap or known to be
    irreducible.  Entries whose monomial has left the combination stay on
    the heap until they reach its top.
    """

    __slots__ = ("q", "any_type", "rules", "found", "last", "fresh", "heap", "queued")

    def __init__(self, q: BoolMat, rules: Sequence[Rule]):
        self.q = q
        # under the all-ones type every transference fits
        self.any_type = q.is_ones()
        self.rules = sorted(rules, key=lambda r: r.rule_id)
        self.found: dict[NetClass, list] = {}
        self.last: LinComb | None = None
        self.fresh: list[NetClass] = []
        self.heap: list[tuple] = []
        self.queued: set[NetClass] = set()

    def admit(self, x: LinComb) -> None:
        """Check x's shape, and each monomial's type the first time it is
        seen."""
        q = self.q
        if (q.rows, q.cols) != (x.coarity, x.arity):
            raise RuleError("ambient type shape mismatch")
        for t in x.terms:
            self._see(t)

    def _see(self, t: NetClass) -> None:
        """Check t's type and set up its redex search, the first time; t's
        transference is read only when the ambient type can exclude it."""
        if t not in self.found:
            if not (self.any_type or t.tr.leq(self.q)):
                raise RuleError("combination outside ambient type")
            self.found[t] = [[], _monomial_redexes(t, self.q, self.rules)]

    def redexes(self, nu: NetClass, every: bool) -> list:
        """nu's first redex, or all of them when ``every``; the search goes
        on from where it stopped, only as far as needed."""
        done, rest = entry = self.found[nu]
        if rest is not None and (every or not done):
            for rule, ctx in rest:
                done.append((rule, ctx, _replacement(rule, ctx)))
                if not every:
                    break
            else:
                entry[1] = None
        return done if every else done[:1]

    def first_step(self, x: LinComb) -> tuple[LinComb, ReductionStep] | None:
        """The first simple reduction of x: the least monomial by code that
        has a redex, at its first redex; None if x is irreducible.

        For the combination the last step produced, the agenda goes on
        from that step; for any other it starts afresh from x."""
        heap, queued = self.heap, self.queued
        last, self.last = self.last, None
        if x is last:
            for t in self.fresh:
                self._see(t)
                if t not in queued:
                    queued.add(t)
                    heappush(heap, (t.code, t))
        else:
            self.admit(x)
            heap[:] = [(t.code, t) for t in x.terms]
            heapify(heap)
            queued.clear()
            queued.update(x.terms)
        terms = x.terms
        while heap:
            nu = heap[0][1]
            if nu not in terms:
                queued.discard(nu)
            elif first := self.redexes(nu, False):
                break
            heappop(heap)
        else:
            self.last, self.fresh = x, []
            return None
        rule, ctx, replacement = first[0]
        coeff = terms[nu]
        out = _reduct(x, nu, coeff, replacement)
        self.last = out
        self.fresh = [t for t in replacement.terms if t not in terms]
        return out, ReductionStep(rule.rule_id, ctx, nu, replacement, coeff)


def _reduct(x: LinComb, nu: NetClass, coeff: Fraction, replacement: LinComb) -> LinComb:
    """x with its term coeff*nu replaced by coeff*replacement, built on one
    copy of x's terms; terms that cancel are dropped."""
    terms = dict(x.terms)
    del terms[nu]
    for t, c in replacement.terms.items():
        c = terms.get(t, 0) + coeff * c
        if c:
            terms[t] = c
        else:
            del terms[t]
    return LinComb._unchecked(x.coarity, x.arity, terms)


def reduce_once(
    x: LinComb, q: BoolMat, rules: Sequence[Rule], memo: _Redexes | None = None
) -> tuple[LinComb, ReductionStep] | None:
    """Apply the first admissible simple reduction, or None if irreducible.

    Monomials are tried by canonical code, rules by id, occurrences by
    canonical order.  ``memo`` holds the redexes already found for the
    same q and rules, and the agenda of the combination it last produced."""
    return (memo or _Redexes(q, rules)).first_step(x)


def all_single_steps(
    x: LinComb, q: BoolMat, rules: Sequence[Rule], memo: _Redexes | None = None
) -> list[LinComb]:
    """Every result of one simple reduction acting nontrivially on x, in
    the order of :func:`reduce_once`'s search.

    ``memo`` holds the redexes already found for the same q and rules."""
    memo = memo or _Redexes(q, rules)
    memo.admit(x)
    out: dict[LinComb, None] = {}
    for nu, coeff in x.items():
        for _, _, replacement in memo.redexes(nu, True):
            out[_reduct(x, nu, coeff, replacement)] = None
    return list(out)


def is_irreducible(x: LinComb, q: BoolMat, rules: Sequence[Rule]) -> bool:
    """Whether no simple reduction admissible at type q acts on x."""
    return reduce_once(x, q, rules) is None


def normalize(
    x: LinComb,
    q: BoolMat,
    rules: Sequence[Rule],
    max_steps: int | None = None,
    order_backed: bool = False,
    trace: list[ReductionStep] | None = None,
    memo: _Redexes | None = None,
) -> LinComb:
    """Reduce to a fixpoint of :func:`reduce_once`.

    With ``order_backed`` the caller asserts the rules are compatible with
    a well-founded order, so no step bound is needed; otherwise at most
    ``max_steps`` steps are applied, and when the result is still
    reducible :class:`BudgetExceededError` carries it.

    The first redex of each monomial of a combination with two or more
    terms is searched once per call and kept in a memo that every step
    reads; the memo is dropped when the call returns.  ``memo`` lets
    :func:`joinable` share its own, which keeps lone monomials too.

    The memo also keeps an agenda of the combination each step produced:
    its monomials not yet known to be irreducible, on a heap by code.  A
    step takes the least of them that is present and reducible, moves its
    coefficient onto the replacement, type-checks monomials it has not
    seen, and copies the terms once, so it touches only the monomials it
    changes rather than re-sorting the whole combination.  Steps, trace
    and errors are those of repeated :func:`reduce_once` calls without a
    memo.
    """
    if not order_backed and max_steps is None:
        raise ValueError("normalize needs either order_backed or max_steps")
    shared = memo is not None
    if memo is None:
        memo = _Redexes(q, rules)
    steps = 0
    cur = x
    while True:
        # A lone monomial cannot recur in a terminating normalization of its
        # own, as all that follows descends from its reducts.  Keeping it in
        # the memo would only hold its memory from reuse, which measurably
        # slows the normalization of large single monomials.
        hit = reduce_once(cur, q, rules, memo if shared or len(cur.terms) > 1 else None)
        if hit is None:
            return cur
        if max_steps is not None and steps >= max_steps:
            raise BudgetExceededError(cur, steps)
        cur, step = hit
        if trace is not None:
            trace.append(step)
        steps += 1


@dataclass(frozen=True)
class JoinResult:
    status: str  # "yes" | "no" | "unknown"
    common: LinComb | None = None
    difference: LinComb | None = None  # nf(x) - nf(y) when "no"


def joinable(
    x: LinComb,
    y: LinComb,
    q: BoolMat,
    rules: Sequence[Rule],
    max_steps: int | None = None,
    order_backed: bool = False,
) -> JoinResult:
    """Search for reductions taking x and y to a common form.

    First the deterministic normal forms are compared; on a mismatch a
    bidirectional breadth-first search over all one-step reducts runs to
    the given depth.  "no" is only reported when both reachable sets are
    fully explored, and carries the difference of the normal forms.

    Both normalizations and every breadth-first expansion share one memo
    of each monomial's redexes, dropped when the call returns; results are
    those of the same search without it.
    """
    if x == y:
        return JoinResult("yes", x)
    memo = _Redexes(q, rules)
    try:
        nx = normalize(x, q, rules, max_steps, order_backed, memo=memo)
        ny = normalize(y, q, rules, max_steps, order_backed, memo=memo)
    except BudgetExceededError:
        return JoinResult("unknown")
    if nx == ny:
        return JoinResult("yes", nx)

    def expand(frontier: list[LinComb], seen: set[LinComb]) -> list[LinComb]:
        """The one-step reducts of the frontier not seen before, now seen."""
        new = []
        for z in frontier:
            for w in all_single_steps(z, q, rules, memo):
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        return new

    seen_x = {x, nx}
    seen_y = {y, ny}
    frontier_x = [x]
    frontier_y = [y]
    depth = 0
    while frontier_x or frontier_y:
        if max_steps is not None and depth >= max_steps:
            return JoinResult("unknown")
        depth += 1
        frontier_x = expand(frontier_x, seen_x)
        frontier_y = expand(frontier_y, seen_y)
        common = seen_x & seen_y
        if common:
            return JoinResult("yes", min(common, key=_lc_key))
    return JoinResult("no", difference=nx - ny)


def _lc_key(x: LinComb):
    return tuple((t.code, c) for t, c in x.items())
