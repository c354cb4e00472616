"""Rules, simple reductions, normalization, irreducibility, and
joinability over the typed modules of the free linear PROP."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
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
    """:func:`normalize` stopped after ``steps`` first replacements at the
    reduct ``partial``."""

    def __init__(self, partial: LinComb, steps: int):
        super().__init__(f"reduction budget exhausted after {steps} replacements")
        self.partial = partial
        self.steps = steps


class ReductionCycleError(RuntimeError):
    """A monomial recurs inside its own reduction in a normalization
    without a budget, so no well-founded order is compatible with the
    rules."""

    def __init__(self, monomial: NetClass):
        super().__init__("a monomial recurs in its own reduction")
        self.monomial = monomial


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
    """coefficient*before replaced by coefficient*after, the reduct of rule
    ``rule_id`` at ``context``, by :func:`reduce_once` or :func:`normalize`."""

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


_ONE = Fraction(1)


class _Stop(Exception):
    """``(t, c)``: the walk stops at the term c*t, whose first replacement
    the budget does not allow, or which recurs inside its own reduction."""


class _Redexes:
    """The admissible redexes and the normal forms of monomials at one
    ambient type, kept for one call of :func:`normalize` or
    :func:`joinable`, with the budget, count and trace of the
    normalization under way.

    A simple reduction is fixed by its monomial and redex, so the search
    for a monomial's redexes runs once per memo, resumed, never repeated.
    ``found`` maps a monomial to ``[redexes, rest]``: the ``(rule, ctx,
    _replacement(rule, ctx))`` found so far, in the redex order of
    :func:`_monomial_redexes`, and the rest of that search, None once it
    is exhausted.  Unless ``keep_links``, a chain link's search is dropped
    once its first replacement is taken, so that its memory is free for
    reuse; :func:`joinable` keeps them for its breadth-first search.

    ``nf`` maps a monomial to the terms of its normal form, for each
    monomial that is irreducible or whose first replacement has other than
    one term.
    """

    __slots__ = ("q", "any_type", "rules", "found", "nf", "keep_links", "budget", "steps", "trace")

    def __init__(self, q: BoolMat, rules: Sequence[Rule], keep_links: bool = True):
        self.q = q
        # under the all-ones type every transference fits
        self.any_type = q.is_ones()
        self.rules = sorted(rules, key=lambda r: r.rule_id)
        self.found: dict[NetClass, list] = {}
        self.nf: dict[NetClass, dict[NetClass, Fraction]] = {}
        self.keep_links = keep_links
        self.budget: int | None = None
        self.steps = 0
        self.trace: list[ReductionStep] | None = None

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

    def follow(self, t: NetClass, c: Fraction, under_way: set) -> tuple[NetClass, Fraction]:
        """Follow c*t down its chain, taking first replacements while they
        are single terms: ``(end, c')`` with c*NF(t) = c'*NF(end), where
        end's normal form is known or end's first replacement, taken, has
        other than one term.

        Each replacement taken counts against ``budget``, which raises
        :class:`_Stop` where it runs out, and goes to ``trace``.  A link's
        normal form is not kept; an irreducible end is kept as its own.  A
        link ``under_way`` in the walk raises :class:`_Stop` before its
        replacement is taken again, and so does a chain that returns to one
        of its links, found as Brent's cycle search does: by comparing each
        link with the one saved at the last power of two, the only one held."""
        nf, found = self.nf, self.found
        saved, power, run = None, 1, 0
        while t not in nf:
            self._see(t)
            first = self.redexes(t, False)
            if not first:
                nf[t] = {t: _ONE}
                break
            if self.steps == self.budget or t in under_way:
                raise _Stop(t, c)
            self.steps += 1
            rule, ctx, replacement = first[0]
            if self.trace is not None:
                self.trace.append(ReductionStep(rule.rule_id, ctx, t, replacement, c))
            if len(replacement.terms) != 1:
                break
            if not self.keep_links:
                del found[t]
            ((t, d),) = replacement.terms.items()
            c *= d
            if t == saved:
                raise _Stop(t, c)
            run += 1
            if run == power:
                saved, power, run = t, 2 * power, 0
        return t, c


def _add_scaled(acc: dict[NetClass, Fraction], terms: dict[NetClass, Fraction], c: Fraction) -> None:
    """acc += c*terms, dropping terms that cancel."""
    for t, d in terms.items():
        v = acc.get(t, 0) + c * d
        if v:
            acc[t] = v
        else:
            del acc[t]


def _normal_form(x: LinComb, memo: _Redexes) -> dict[NetClass, Fraction]:
    """The terms of x's normal form, sum c*NF(nu) over the terms c*nu of
    x, where NF(nu) is nu if it is irreducible, else sum d*NF(t) over the
    terms d*t of its first replacement.

    The monomials below x are walked in post-order on an explicit stack,
    and each normal form is kept in ``memo.nf`` once found, so each is
    found once per memo; chains of single-term replacements are followed
    by :meth:`_Redexes.follow`.  A monomial that recurs inside its own
    reduction raises :class:`ReductionCycleError` without a budget.  A
    walk that stops raises :class:`BudgetExceededError` with its stack
    unwound: from the top, each frame's finished normal forms, the term it
    stopped at (the frame above, unwound) and the terms it has not walked
    yet, summed in the root frame."""
    nf = memo.nf
    root: dict[NetClass, Fraction] = {}
    # frames (monomial, rest of its first replacement's terms, its normal
    # form so far, its coefficient in the frame below); the root's terms are x's
    stack = [(None, iter(x.terms.items()), root, _ONE)]
    under_way = set()
    try:
        while True:
            mu, rest, acc, coeff = stack[-1]
            for t, c in rest:
                t, c = memo.follow(t, c, under_way)
                if t in nf:
                    _add_scaled(acc, nf[t], c)
                    continue
                under_way.add(t)
                stack.append((t, iter(memo.found[t][0][0][2].terms.items()), {}, c))
                break
            else:
                stack.pop()
                if not stack:
                    return root
                under_way.discard(mu)
                nf[mu] = acc
                _add_scaled(stack[-1][2], acc, coeff)
    except _Stop as stop:
        t, c = stop.args
        if memo.budget is None:
            raise ReductionCycleError(t) from None
        above, scale = {t: _ONE}, c
        for _, rest, acc, coeff in reversed(stack):
            _add_scaled(acc, above, scale)
            _add_scaled(acc, dict(rest), _ONE)
            above, scale = acc, coeff
        raise BudgetExceededError(LinComb._unchecked(x.coarity, x.arity, above), memo.steps) from None


def _reduct(x: LinComb, nu: NetClass, coeff: Fraction, replacement: LinComb) -> LinComb:
    """x with its term coeff*nu replaced by coeff*replacement, built on one
    copy of x's terms; terms that cancel are dropped."""
    terms = dict(x.terms)
    del terms[nu]
    _add_scaled(terms, replacement.terms, coeff)
    return LinComb._unchecked(x.coarity, x.arity, terms)


def reduce_once(x: LinComb, q: BoolMat, rules: Sequence[Rule]) -> tuple[LinComb, ReductionStep] | None:
    """Apply the first admissible simple reduction, or None if irreducible.

    Monomials are tried by canonical code, rules by id, occurrences by
    canonical order."""
    memo = _Redexes(q, rules)
    memo.admit(x)
    for nu, coeff in x.items():
        if first := memo.redexes(nu, False):
            rule, ctx, replacement = first[0]
            step = ReductionStep(rule.rule_id, ctx, nu, replacement, coeff)
            return _reduct(x, nu, coeff, replacement), step
    return None


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
    """x's normal form, sum c*NF(nu) over its terms c*nu.

    Each monomial nu is always reduced by its own first replacement T(nu),
    the reduct of its first redex, so where the rules terminate NF(nu) =
    sum d*NF(t) over the terms d*t of T(nu), nu itself when irreducible,
    is well defined.  A step replaces c*nu by c*T(nu), which keeps the sum
    of NF, so the fixpoint of :func:`reduce_once` is that sum, on every
    system, confluent or not.  One post-order walk, :func:`_normal_form`,
    finds each monomial's normal form once.

    With ``order_backed`` the caller asserts the rules are compatible with
    a well-founded order; a monomial that recurs inside its own reduction
    then raises :class:`ReductionCycleError`.  ``max_steps`` caps the first
    replacements the walk takes, chain links included; an irreducible or
    memoized monomial costs none.  A walk that needs more, or meets a
    recurring monomial, raises :class:`BudgetExceededError` with the
    replacements taken and its partial reduct of x: the normal forms it
    finished, the replacement terms it had not walked yet, and x's terms
    it had not reached.  ``trace`` receives one :class:`ReductionStep` per
    replacement taken, in that order, with the walk's running coefficient.

    ``memo`` lets :func:`joinable` share its redexes and normal forms
    between calls; the memo is dropped when its owner returns.
    """
    if not order_backed and max_steps is None:
        raise ValueError("normalize needs either order_backed or max_steps")
    if memo is None:
        memo = _Redexes(q, rules, keep_links=False)
    memo.admit(x)
    memo.budget, memo.steps, memo.trace = max_steps, 0, trace
    return LinComb._unchecked(x.coarity, x.arity, _normal_form(x, memo))


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
    of each monomial's redexes and normal forms, which keeps the searches
    of chain links for the breadth-first search to resume; the memo is
    dropped when the call returns.  A budget does not count the normal
    forms the memo holds, so y's normalization is charged only beyond x's,
    and can finish where a fresh one, or joinable(y, x)'s, would stop.
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
