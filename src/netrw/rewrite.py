"""Rules, simple reductions, normalization, irreducibility, and
joinability over the typed modules of the free linear PROP."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import attrgetter
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


class ReductionCycleError(RuntimeError):
    """A monomial recurs inside its own order-backed reduction, so no
    well-founded order is compatible with the rules."""

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


class _Redexes:
    """The admissible redexes and the normal forms of monomials at one
    ambient type, kept for one call of :func:`normalize` or
    :func:`joinable`.

    A simple reduction is fixed by its monomial and redex, so the search
    for a monomial's redexes runs once per call however often the monomial
    recurs.  ``found`` maps a monomial to ``[redexes, rest]``: the
    ``(rule, ctx, _replacement(rule, ctx))`` found so far, in the redex
    order of :func:`_monomial_redexes`, and the rest of that search, None
    once it is exhausted.

    ``nf`` maps a monomial to the terms of its normal form, found by
    :func:`monomial_normal_form`, for each monomial that is irreducible or
    whose first replacement has other than one term.
    """

    __slots__ = ("q", "any_type", "rules", "found", "nf")

    def __init__(self, q: BoolMat, rules: Sequence[Rule]):
        self.q = q
        # under the all-ones type every transference fits
        self.any_type = q.is_ones()
        self.rules = sorted(rules, key=lambda r: r.rule_id)
        self.found: dict[NetClass, list] = {}
        self.nf: dict[NetClass, dict[NetClass, Fraction]] = {}

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
        has a redex, at its first redex; None if x is irreducible.  A
        monomial whose search ended with no redex is left out of the sort."""
        self.admit(x)
        terms, found = x.terms, self.found
        candidates = (nu for nu in terms if found[nu][0] or found[nu][1] is not None)
        for nu in sorted(candidates, key=attrgetter("code")):
            if first := self.redexes(nu, False):
                break
        else:
            return None
        rule, ctx, replacement = first[0]
        coeff = terms[nu]
        out = _reduct(x, nu, coeff, replacement)
        return out, ReductionStep(rule.rule_id, ctx, nu, replacement, coeff)

    def follow(self, t: NetClass, c: Fraction) -> tuple[NetClass, Fraction]:
        """Follow c*t down its chain, while the first replacement is a single
        term: ``(end, c')`` with c*NF(t) = c'*NF(end), where end's normal
        form is known or its first replacement has other than one term.

        A link's normal form is not kept and its search is dropped once its
        first redex is taken, so that its memory is free for reuse; an
        irreducible end is kept as its own normal form.  Raises
        :class:`ReductionCycleError` if the chain returns to one of its
        links, found as Brent's cycle search does: by comparing each link
        with the one saved at the last power of two, the only link held."""
        nf, found = self.nf, self.found
        saved, power, run = None, 1, 0
        while t not in nf:
            self._see(t)
            first = self.redexes(t, False)
            if not first:
                nf[t] = {t: _ONE}
                break
            replacement = first[0][2].terms
            if len(replacement) != 1:
                break
            del found[t]
            ((t, d),) = replacement.items()
            c *= d
            if t == saved:
                raise ReductionCycleError(t)
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


def monomial_normal_form(nu: NetClass, memo: _Redexes) -> dict[NetClass, Fraction]:
    """The terms of nu's normal form NF(nu): nu if it is irreducible, else
    sum c*NF(t) over the terms c*t of its first replacement.

    The monomials below nu are walked in post-order on an explicit stack,
    and each normal form is kept in ``memo.nf`` once found, so each is
    found once per memo; chains of single-term replacements are followed
    by :meth:`_Redexes.follow`.  Raises :class:`ReductionCycleError` if a
    monomial recurs inside its own reduction."""
    nf = memo.nf
    root: dict[NetClass, Fraction] = {}
    # frames (monomial, rest of its first replacement's terms, its normal
    # form so far, its coefficient in the frame below); the root's one term is nu
    stack = [(None, iter(((nu, _ONE),)), root, _ONE)]
    under_way = set()
    while True:
        mu, rest, acc, coeff = stack[-1]
        for t, c in rest:
            t, c = memo.follow(t, c)
            if t in nf:
                _add_scaled(acc, nf[t], c)
                continue
            if t in under_way:
                raise ReductionCycleError(t)
            under_way.add(t)
            stack.append((t, iter(memo.redexes(t, False)[0][2].terms.items()), {}, c))
            break
        else:
            stack.pop()
            if not stack:
                return root
            under_way.discard(mu)
            nf[mu] = acc
            _add_scaled(stack[-1][2], acc, coeff)


def _reduct(x: LinComb, nu: NetClass, coeff: Fraction, replacement: LinComb) -> LinComb:
    """x with its term coeff*nu replaced by coeff*replacement, built on one
    copy of x's terms; terms that cancel are dropped."""
    terms = dict(x.terms)
    del terms[nu]
    _add_scaled(terms, replacement.terms, coeff)
    return LinComb._unchecked(x.coarity, x.arity, terms)


def reduce_once(
    x: LinComb, q: BoolMat, rules: Sequence[Rule], memo: _Redexes | None = None
) -> tuple[LinComb, ReductionStep] | None:
    """Apply the first admissible simple reduction, or None if irreducible.

    Monomials are tried by canonical code, rules by id, occurrences by
    canonical order.  ``memo`` holds the redexes already found for the
    same q and rules."""
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

    Each monomial nu is always reduced by its own first replacement T(nu),
    so under a well-founded order its normal form NF(nu) = sum c*NF(t) over
    the terms c*t of T(nu), and nu itself when it is irreducible, is well
    defined.  A step of :func:`reduce_once` replaces c*nu by c*T(nu), which
    keeps the sum of NF over the combination, and stops only where every
    monomial is its own normal form; so the fixpoint is that sum, on every
    system, confluent or not.

    An order-backed call with neither ``max_steps`` nor ``trace`` computes
    the sum directly, finding each monomial's normal form once by
    :func:`monomial_normal_form`; it applies no step, and raises
    :class:`ReductionCycleError` if a monomial recurs inside its own
    reduction.  Every other call applies the steps of :func:`reduce_once`
    one at a time, appends each to ``trace``, and counts them against
    ``max_steps``: a budget counts steps of that deterministic strategy.
    The redexes of each monomial of a combination with two or more terms
    are searched once per call, in a memo that every step reads.

    ``memo`` lets :func:`joinable` share its redexes and normal forms
    between calls; the memo is dropped when its owner returns.
    """
    if not order_backed and max_steps is None:
        raise ValueError("normalize needs either order_backed or max_steps")
    shared = memo is not None
    if memo is None:
        memo = _Redexes(q, rules)
    if max_steps is None and trace is None:
        memo.admit(x)
        terms: dict[NetClass, Fraction] = {}
        for nu, c in x.terms.items():
            _add_scaled(terms, monomial_normal_form(nu, memo), c)
        return LinComb._unchecked(x.coarity, x.arity, terms)
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
    of each monomial's redexes, and order-backed normalizations share its
    normal forms; the memo is dropped when the call returns, and results
    are those of the same search without it.
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
