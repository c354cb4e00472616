"""Every reduction step preserves value in a model of the rules.

Evaluation in a target PROP is a PROP homomorphism from the free PROP, so
when both sides of every rule have the same value, so do the two sides of
every simple reduction, and a combination and its normal form.  The
models are built here: the circle rule in 1x1 rational matrices, and the
Hopf rules in the group algebra of S3 and in its dual, the functions on
S3, whose tensor is the tensor product of vector spaces (the
``rat-matrix`` target's tensor is the direct sum).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netrw.ainparse import parse_rules, parse_term
from netrw.core import BoolMat, parse_signature
from netrw.freeprop import LinComb, lc_annex
from netrw.match import context_type_ok
from netrw.network import evaluate
from netrw.props import Mat, get_target
from netrw.rewrite import BudgetExceededError, normalize

from conftest import exact_shape_class

CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"


def _load(system):
    sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
    return sig, parse_rules((CORPUS / f"{system}.rules").read_text(encoding="utf-8"), sig)


# ---------------------------------------------------------------------------
# The group algebra Q[S3] as a PROP
# ---------------------------------------------------------------------------

S3 = list(permutations(range(3)))
UNIT = (0, 1, 2)


def _mul(g, h):
    """The product g.h: apply h, then g."""
    return tuple(g[h[i]] for i in range(3))


def _inv(g):
    out = [0, 0, 0]
    for i, gi in enumerate(g):
        out[gi] = i
    return tuple(out)


N = len(S3)


def _number(x) -> int:
    """A basis tensor's number: its factors' indices in S3, read in base N
    with the first factor first, as numpy lays out an array of N x ... x N."""
    index = 0
    for g in x:
        index = index * N + S3.index(g)
    return index


class GroupAlgebra:
    """The linear PROP of Q[S3]: an element of shape (m, n) is a linear map
    from the n-th to the m-th tensor power of Q[S3], held as
    ``(m, n, apply)`` where ``apply`` takes an integer array of shape
    (..., N^n, B), vectors in its columns, to the (..., N^m, B) array of
    their images.  Maps are composed, never multiplied out: evaluating a
    network costs the vectors passed from one vertex to the next, not the
    square of a layer."""

    def dims(self, a):
        return a[0], a[1]

    def compose(self, a, b):
        return a[0], b[1], lambda x: a[2](b[2](x))

    def tensor(self, a, b):
        (ma, na, fa), (mb, nb, fb) = a, b

        def apply(x):
            # b acts on the last nb factors, stacked over the first na;
            # then a acts on the first na, with b's outputs in its columns
            *lead, _, batch = x.shape
            y = fb(x.reshape(*lead, N**na, N**nb, batch))
            y = fa(y.reshape(*lead, N**na, N**mb * batch))
            return y.reshape(*lead, N ** (ma + mb), batch)

        return ma + mb, na + nb, apply

    def phi(self, p):
        # input j goes to output p(j), as in MatrixTarget.phi
        axes = [0] * p.n
        for j in range(1, p.n + 1):
            axes[p(j) - 1] = j - 1

        def apply(x):
            *lead, _, batch = x.shape
            k = len(lead)
            factors = x.reshape(*lead, *(N,) * p.n, batch)
            order = [*range(k), *(k + i for i in axes), k + p.n]
            return factors.transpose(order).reshape(*lead, N**p.n, batch)

        return p.n, p.n, apply


def _linear(m, n, image):
    """The element of a map given on basis tensors (tuples of n group
    elements) as sparse vectors {tuple of m elements: coeff}."""
    mat = np.zeros((N**m, N**n), dtype=np.int64)
    for j, x in enumerate(product(S3, repeat=n)):
        for y, c in image(x).items():
            mat[_number(y), j] = c
    return m, n, mat.__matmul__


# each generator's image of a basis tensor (a tuple of group elements), as a
# sparse vector {tuple of group elements: coefficient}
HOPF_IMAGES = {
    "m": (1, 2, lambda x: {(_mul(x[0], x[1]),): 1}),
    "eta": (1, 0, lambda x: {(UNIT,): 1}),
    "D": (2, 1, lambda x: {(x[0], x[0]): 1}),
    "eps": (0, 1, lambda x: {(): 1}),
    "S": (1, 1, lambda x: {(_inv(x[0]),): 1}),
}


# The dual Hopf algebra: functions on S3, with the basis of point masses
# delta_g.  Its product is pointwise and its coproduct is dual to the group
# product, delta_g -> sum over hk = g of delta_h (x) delta_k, so it is
# commutative but not cocommutative, and sees faults that permute outputs.
DUAL_HOPF_IMAGES = {
    "m": (1, 2, lambda x: {(x[0],): 1} if x[0] == x[1] else {}),
    "eta": (1, 0, lambda x: {(g,): 1 for g in S3}),
    "D": (2, 1, lambda x: {(h, _mul(_inv(h), x[0])): 1 for h in S3}),
    "eps": (0, 1, lambda x: {(): 1} if x[0] == UNIT else {}),
    "S": (1, 1, lambda x: {(_inv(x[0]),): 1}),
}

HOPF_MODEL = {name: _linear(*image) for name, image in HOPF_IMAGES.items()}
DUAL_HOPF_MODEL = {name: _linear(*image) for name, image in DUAL_HOPF_IMAGES.items()}


def _group_algebra_entries(value):
    """(output, input) basis tensor numbers with their coefficients."""
    m, n, apply = value
    mat = apply(np.eye(N**n, dtype=np.int64))
    for i, j in zip(*np.nonzero(mat)):
        yield (int(i), int(j)), int(mat[i, j])


class BasisGroupAlgebra:
    """The same PROP one basis tensor at a time, as the reference for
    GroupAlgebra: an element is ``(m, n, image)`` with ``image`` as in
    HOPF_IMAGES."""

    def dims(self, a):
        return a[0], a[1]

    def compose(self, a, b):
        def image(x):
            out = {}
            for y, c in b[2](x).items():
                for z, d in a[2](y).items():
                    out[z] = out.get(z, 0) + c * d
            return out

        return a[0], b[1], image

    def tensor(self, a, b):
        def image(x):
            left, right = a[2](x[: a[1]]), b[2](x[a[1] :])
            return {y + z: c * d for y, c in left.items() for z, d in right.items()}

        return a[0] + b[0], a[1] + b[1], image

    def phi(self, p):
        def image(x):
            y = [None] * p.n
            for j in range(1, p.n + 1):
                y[p(j) - 1] = x[j - 1]
            return {tuple(y): 1}

        return p.n, p.n, image


def _basis_entries(value):
    m, n, image = value
    for x in product(S3, repeat=n):
        for y, c in image(x).items():
            yield (_number(y), _number(x)), c


# ---------------------------------------------------------------------------
# Values of combinations
# ---------------------------------------------------------------------------

RAT = get_target("rat-matrix")
CIRCLE_MODEL = {
    "x": Mat.from_rows([[Fraction(3, 5)]]),
    "y": Mat.from_rows([[Fraction(4, 5)]]),
}


def _matrix_entries(value):
    for i, row in enumerate(value.entries):
        for j, c in enumerate(row):
            yield (i, j), c


MODELS = {
    "circle": (RAT, CIRCLE_MODEL, _matrix_entries),
    "hopf": (GroupAlgebra(), HOPF_MODEL, _group_algebra_entries),
    "hopf-dual": (GroupAlgebra(), DUAL_HOPF_MODEL, _group_algebra_entries),
}


def value(x: LinComb, model, memo=None) -> dict:
    """The value of a combination as its nonzero entries; ``memo`` keeps
    each monomial's entries for the next call."""
    target, assign, entries = model
    memo = {} if memo is None else memo
    out = {}
    for cls, coeff in x.items():
        if cls not in memo:
            memo[cls] = list(entries(evaluate(cls.rep, target, assign)))
        for key, c in memo[cls]:
            out[key] = out.get(key, 0) + coeff * c
    return {key: c for key, c in out.items() if c}


def normalization(x: LinComb, rules, max_steps):
    """The first replacements that normalizing x takes, and the normal form
    (or the partial result at the budget)."""
    q = BoolMat.ones(x.coarity, x.arity)
    trace = []
    try:
        result = normalize(x, q, rules, max_steps=max_steps, trace=trace)
    except BudgetExceededError as exc:
        result = exc.partial
    return tuple(trace), result


def check_steps(x: LinComb, trace, result, model):
    """Require every first replacement that x's normalization takes to keep
    its monomial's value, and the result to keep x's value.  A
    replacement's monomial is a term of x or of an earlier replacement,
    so each is evaluated once."""
    memo = {}
    for step in trace:
        assert value(LinComb.monomial(step.before), model, memo) == value(step.after, model, memo)
    assert value(result, model, memo) == value(x, model, memo)


def check_preserved(x: LinComb, rules, model, max_steps):
    """Normalize x and require every replacement to keep its monomial's
    value, and the normal form (or the partial result at the budget) to
    keep x's value."""
    check_steps(x, *normalization(x, rules, max_steps), model)


def _word(letters, labels):
    """A chain of 1x1 generators read left to right along ``labels``."""
    if not letters:
        return f"d^{labels[0]}_{labels[1]}"
    return " ".join(f"{g}^{a}_{b}" for g, a, b in zip(letters, labels, labels[1:]))


COEFFS = st.sampled_from([1, 2, -1, Fraction(1, 2), Fraction(-3, 4)])


class TestCircle:
    SIG, RULES = _load("circle")

    def test_rule_holds_in_model(self):
        (rule,) = self.RULES
        assert value(LinComb.monomial(rule.lhs), MODELS["circle"]) == value(
            rule.rhs, MODELS["circle"]
        )

    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(COEFFS, st.lists(st.sampled_from("xy"), max_size=10)), min_size=1, max_size=3)
    )
    def test_steps_preserve_value(self, summands):
        # single chains only: the rat-matrix tensor is the direct sum, which
        # is not bilinear, so a context with a wire beside the redex would
        # not act linearly on its value; a chain's contexts only compose
        x = LinComb.zero(1, 1)
        for coeff, letters in summands:
            x += parse_term(_word(letters, "abcdefghijk"), self.SIG).scale(coeff)
        check_preserved(x, self.RULES, MODELS["circle"], max_steps=200)


HOPF_SIG, HOPF_RULES = _load("hopf")
# a random sum of Hopf networks of shape (m, n): (rng, m, n, coefficients)
HOPF_SUMS = (
    st.randoms(use_true_random=False),
    st.integers(0, 2),
    st.integers(0, 2),
    st.lists(COEFFS, min_size=2, max_size=3),
)


def check_hopf_sum(rng, m, n, coeffs, model):
    x = LinComb.zero(m, n)
    for coeff in coeffs:
        x += LinComb.monomial(exact_shape_class(rng, HOPF_SIG, m, n), coeff)
    check_preserved(x, HOPF_RULES, MODELS[model], max_steps=400)


# a random context with k extra outputs and l extra inputs for each rule:
# (seed, k, l)
HOPF_CONTEXTS = (st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 2))
# Every (k, l) with k, l in {0, 1, 2}, two seeds each.  Hypothesis's
# derandomized draws put l = 0 in most examples, and such contexts hide a
# fault that swaps two joined outputs of the annexed operand.
HOPF_CONTEXT_GRID = [(seed, k, l) for k in range(3) for l in range(3) for seed in range(2)]


def admissible_context(rng, rule, k, l):
    """A random Hopf context with k extra outputs and l extra inputs that
    admits the rule at the all-ones type."""
    q = BoolMat.ones(k, l)
    for _ in range(200):
        ctx = exact_shape_class(rng, HOPF_SIG, k + rule.arity, l + rule.coarity)
        if context_type_ok(ctx.tr, rule.qtype, q):
            return ctx
    raise AssertionError(f"no admissible context for {rule.rule_id}")


@cache
def hopf_annexations(seed, k, l):
    """For each Hopf rule, a random context K that admits it, with k extra
    outputs and l extra inputs: annex(K, lhs), annex(K, rhs) and the
    normalization of annex(K, lhs).  None of it depends on a model, so the
    model classes share it."""
    rng = random.Random(seed)
    out = []
    for rule in HOPF_RULES:
        ctx = admissible_context(rng, rule, k, l)
        lhs = lc_annex(ctx, rule.lhs)
        out.append((rule.rule_id, lhs, lc_annex(ctx, rule.rhs), normalization(lhs, HOPF_RULES, 400)))
    return tuple(out)


def check_hopf_annexation(seed, k, l, model):
    # a context K annexes a rule's sides: K's last outputs feed the rule's
    # inputs and the rule's outputs K's last inputs; where K admits the
    # rule, both annexations have the same value, and so does every
    # replacement that normalizing the annexed lhs takes, so each rule also runs inside a
    # random context, not only on its own
    for rule_id, lhs, rhs, (trace, result) in hopf_annexations(seed, k, l):
        assert value(lhs, MODELS[model]) == value(rhs, MODELS[model]), rule_id
        check_steps(lhs, trace, result, MODELS[model])


# r06 and r10 need a coproduct fed by another coproduct or by a product,
# which the random sums above seldom build: they fired 7 times in 150 of
# them.  The sums of this grid hold an annexed left hand side of each.
COPRODUCT_RULES = ("r06", "r10")
COPRODUCT_GRID = [(seed, k, l) for k in range(3) for l in range(3) for seed in range(4)]


@cache
def hopf_coproduct_sums():
    """For each (seed, k, l) of the grid and each of r06 and r10, a random
    sum of shape (k, l) with annex(K, lhs) among its terms, for a random
    context K that admits the rule, and the sum's normalization."""
    rules = {rule.rule_id: rule for rule in HOPF_RULES}
    out = []
    for seed, k, l in COPRODUCT_GRID:
        rng = random.Random(f"coproduct sums/{seed}")
        for rule_id in COPRODUCT_RULES:
            rule = rules[rule_id]
            x = lc_annex(admissible_context(rng, rule, k, l), rule.lhs)
            for _ in range(rng.randint(1, 2)):
                coeff = rng.choice((1, -1, 2, Fraction(1, 2)))
                x += LinComb.monomial(exact_shape_class(rng, HOPF_SIG, k, l), coeff)
            out.append((x, normalization(x, HOPF_RULES, 400)))
    return tuple(out)


def check_coproduct_sums(model):
    # every replacement of each sum keeps its value, and other redexes of the
    # sum, reduced first, leave r06 and r10 enough of theirs to fire
    fired = Counter()
    for x, (trace, result) in hopf_coproduct_sums():
        check_steps(x, trace, result, MODELS[model])
        fired.update(step.rule_id for step in trace)
    assert fired["r06"] >= 15 and fired["r10"] >= 8, fired


def test_group_algebra_matches_basis_reference(rng):
    for model, images in (("hopf", HOPF_IMAGES), ("hopf-dual", DUAL_HOPF_IMAGES)):
        reference = (BasisGroupAlgebra(), images, _basis_entries)
        for _ in range(60):
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            x = LinComb.monomial(exact_shape_class(rng, HOPF_SIG, m, n))
            assert value(x, MODELS[model]) == value(x, reference)


class TestHopf:
    SIG, RULES = HOPF_SIG, HOPF_RULES
    MODEL = "hopf"

    def test_rules_hold_in_model(self):
        for rule in self.RULES:
            assert value(LinComb.monomial(rule.lhs), MODELS[self.MODEL]) == value(
                rule.rhs, MODELS[self.MODEL]
            ), rule.rule_id

    def test_model_is_faithful_enough(self):
        # the antipode reverses products: a model in which m were
        # commutative would not tell S(m(a, b)) from m(S(a), S(b))
        swapped = parse_term("[a| m^a_bc S^b_d S^c_e |e d]", self.SIG)
        kept = parse_term("[a| m^a_bc S^b_d S^c_e |d e]", self.SIG)
        assert value(swapped, MODELS["hopf"]) != value(kept, MODELS["hopf"])

    def test_left_hand_sides_keep_value(self):
        # each left hand side is a redex in the empty context, so every rule
        # runs here, not only the ones the random networks happen to hold
        for rule in self.RULES:
            check_preserved(LinComb.monomial(rule.lhs), self.RULES, MODELS[self.MODEL], max_steps=400)

    @settings(max_examples=60)
    @given(*HOPF_SUMS)
    def test_steps_preserve_value(self, rng, m, n, coeffs):
        check_hopf_sum(rng, m, n, coeffs, self.MODEL)

    @settings(max_examples=25)
    @given(*HOPF_CONTEXTS)
    def test_annexation_preserves_value(self, seed, k, l):
        check_hopf_annexation(seed, k, l, self.MODEL)

    @pytest.mark.parametrize("seed, k, l", HOPF_CONTEXT_GRID)
    def test_annexation_grid_preserves_value(self, seed, k, l):
        check_hopf_annexation(seed, k, l, self.MODEL)

    def test_coproduct_sums_preserve_value(self):
        check_coproduct_sums(self.MODEL)


class TestHopfDual:
    SIG, RULES = HOPF_SIG, HOPF_RULES
    MODEL = "hopf-dual"
    test_rules_hold_in_model = TestHopf.test_rules_hold_in_model
    test_left_hand_sides_keep_value = TestHopf.test_left_hand_sides_keep_value

    @settings(max_examples=60)
    @given(*HOPF_SUMS)
    def test_steps_preserve_value(self, rng, m, n, coeffs):
        check_hopf_sum(rng, m, n, coeffs, self.MODEL)

    @settings(max_examples=25)
    @given(*HOPF_CONTEXTS)
    def test_annexation_preserves_value(self, seed, k, l):
        check_hopf_annexation(seed, k, l, self.MODEL)

    @pytest.mark.parametrize("seed, k, l", HOPF_CONTEXT_GRID)
    def test_annexation_grid_preserves_value(self, seed, k, l):
        check_hopf_annexation(seed, k, l, self.MODEL)

    def test_coproduct_sums_preserve_value(self):
        check_coproduct_sums(self.MODEL)

    def test_model_is_not_cocommutative(self):
        # the coproduct is not symmetric, so this model tells a network from
        # the one with two of its outputs swapped
        swapped = parse_term("[b a| D^ab_c |c]", self.SIG)
        kept = parse_term("[a b| D^ab_c |c]", self.SIG)
        assert value(swapped, MODELS[self.MODEL]) != value(kept, MODELS[self.MODEL])
