"""Rules, simple reductions, normalization, and joinability."""

import sys
from fractions import Fraction

import pytest

import netrw.match
from netrw.ainparse import parse_rules, parse_term
from netrw.core import BoolMat, cross, parse_signature, same
from netrw.freeprop import (
    LinComb,
    annex,
    compose,
    generator,
    identity,
    lc_annex,
    phi,
    tensor,
)
from netrw.order import LT, BaffStage, OrderSpec, compare
from netrw.props import BAFF_NAT, parse_assignment
from netrw.rewrite import (
    BudgetExceededError,
    Rule,
    RuleError,
    all_single_steps,
    format_step,
    is_irreducible,
    joinable,
    make_rule,
    normalize,
    reduce_once,
)

from conftest import random_class


@pytest.fixture
def msig():
    return parse_signature("gen m 1 2\n")


@pytest.fixture
def assoc(msig):
    return parse_rules("rule assoc sharp: m^a_bc m^c_de -> m^a_ce m^c_bd", msig)


@pytest.fixture
def circle():
    """The circle rule and y^8, which takes 15 steps to normalize."""
    sig = parse_signature("gen x 1 1\ngen y 1 1\n")
    rules = parse_rules("rule circ sharp: y^a_b y^b_c -> d^a_c - x^a_b x^b_c", sig)
    labels = "abcdefghi"
    y8 = parse_term(" ".join(f"y^{a}_{b}" for a, b in zip(labels, labels[1:])), sig)
    return rules, y8, BoolMat.ones(1, 1)


@pytest.fixture
def zig():
    sig = parse_signature("gen cup 0 2\ngen cap 2 0\n")
    rules = parse_rules(
        "rule zig1: cup_12 cap^23 -> d^3_1\nrule zig2: cap^32 cup_21 -> d^3_1\n",
        sig,
    )
    return sig, rules


class TestMakeRule:
    def test_assoc_sharp_type(self, assoc):
        assert assoc[0].sharp
        assert assoc[0].qtype == BoolMat.ones(1, 3)

    def test_bridge_sharp_rejected(self):
        sig = parse_signature("gen eta 1 0\ngen eps 0 1\n")
        eta, eps = generator(sig["eta"]), generator(sig["eps"])
        lhs = LinComb.monomial(compose(eta, eps))
        rhs = LinComb.monomial(phi(same(1)))
        with pytest.raises(RuleError, match="RhsOutsideType"):
            make_rule("bridge", lhs, rhs, "sharp")
        rule = make_rule("bridge", lhs, rhs, BoolMat.ones(1, 1))
        assert not rule.sharp

    def test_zeros_typespec(self):
        sig = parse_signature("gen eta 1 0\ngen eps 0 1\n")
        bridge = compose(generator(sig["eta"]), generator(sig["eps"]))
        lhs = LinComb.monomial(tensor(bridge, identity(1)))
        rule = make_rule("z", lhs, lhs, [(0, 0)])
        assert rule.qtype == BoolMat.from_rows([[0, 1], [1, 1]])
        assert not rule.sharp

    def test_lhs_not_monomial(self, msig):
        m = generator(msig["m"])
        two = LinComb.monomial(m, 2)
        with pytest.raises(RuleError, match="LhsNotMonomial"):
            make_rule("bad", two, two, "sharp")


class TestReduceOnce:
    def test_right_comb_to_left_comb(self, msig, assoc):
        m = generator(msig["m"])
        rc = LinComb.monomial(compose(m, tensor(identity(1), m)))
        lc = LinComb.monomial(compose(m, tensor(m, identity(1))))
        q = BoolMat.ones(1, 3)
        out, step = reduce_once(rc, q, assoc)
        assert out == lc
        assert step.rule_id == "assoc"
        # the step record witnesses the congruence: the replaced monomial
        # is the context-annexed lhs and the replacement the annexed rhs
        assert annex(step.context, assoc[0].lhs) == step.before
        assert lc_annex(step.context, assoc[0].rhs) == step.after
        assert "apply assoc" in format_step(step)

    def test_identity_irreducible(self, msig, assoc):
        for n in range(3):
            x = LinComb.monomial(phi(same(n)))
            assert reduce_once(x, BoolMat.ones(n, n), assoc) is None

    def test_zigzag_types(self, zig):
        sig, rules = zig
        m1 = parse_term("cup_12 cap^23", sig)
        assert reduce_once(m1, BoolMat.zeros(1, 1), rules) is None
        out, _ = reduce_once(m1, BoolMat.ones(1, 1), rules)
        assert out == LinComb.monomial(phi(same(1)))

    def test_type_monotonicity(self, rng, zig):
        # reductions available at q stay available at q' >= q
        sig, rules = zig
        for text in ("cup_12 cap^23", "cap^32 cup_21"):
            x = parse_term(text, sig)
            assert reduce_once(x, BoolMat.zeros(1, 1), rules) is None
            assert reduce_once(x, BoolMat.ones(1, 1), rules) is not None


class TestNormalize:
    def test_right_nested_depth_four(self, msig, assoc):
        # right comb on 4 leaves reaches the left comb; the step count is a
        # valid rotation distance in the Tamari lattice (between 2 and 3)
        m = generator(msig["m"])
        rc = compose(m, tensor(identity(1), compose(m, tensor(identity(1), m))))
        lc = compose(m, tensor(compose(m, tensor(m, identity(1))), identity(1)))
        trace = []
        q = BoolMat.ones(1, 4)
        nf = normalize(LinComb.monomial(rc), q, assoc, order_backed=True, trace=trace)
        assert nf == LinComb.monomial(lc)
        assert 2 <= len(trace) <= 3

    def test_idempotent(self, rng, msig, assoc):
        for _ in range(50):
            x = LinComb.monomial(random_class(rng, list(msig), max_inner=4))
            q = BoolMat.ones(x.coarity, x.arity)
            nf = normalize(x, q, assoc, order_backed=True)
            assert normalize(nf, q, assoc, order_backed=True) == nf
            assert is_irreducible(nf, q, assoc)

    def test_cancellation_normalizes_to_zero(self, rng, msig, assoc):
        x = LinComb.monomial(random_class(rng, list(msig), max_inner=3))
        q = BoolMat.ones(x.coarity, x.arity)
        assert normalize(x + (-x), q, assoc, max_steps=5).is_zero()
        assert is_irreducible(x + (-x), q, assoc)
        assert is_irreducible(LinComb.zero(1, 3), BoolMat.ones(1, 3), assoc)

    def test_budget_exceeded(self, msig, assoc):
        m = generator(msig["m"])
        deep = m
        for _ in range(3):
            deep = compose(m, tensor(identity(1), deep))
        q = BoolMat.ones(1, deep.arity)
        with pytest.raises(BudgetExceededError) as info:
            normalize(LinComb.monomial(deep), q, assoc, max_steps=1)
        assert not info.value.partial.is_zero()

    def test_zero_budget_applies_no_step(self, msig, assoc, circle):
        rules, y8, q = circle
        trace = []
        with pytest.raises(BudgetExceededError) as info:
            normalize(y8, q, rules, max_steps=0, trace=trace)
        assert info.value.steps == 0
        assert info.value.partial == y8
        assert trace == []
        m = LinComb.monomial(generator(msig["m"]))
        assert normalize(m, BoolMat.ones(1, 2), assoc, max_steps=0) == m

    def test_budget_counts_steps(self, circle):
        rules, y8, q = circle
        nf = normalize(y8, q, rules, max_steps=15)
        for k in (1, 7, 14):
            trace = []
            with pytest.raises(BudgetExceededError) as info:
                normalize(y8, q, rules, max_steps=k, trace=trace)
            assert info.value.steps == k == len(trace)
            assert normalize(info.value.partial, q, rules, max_steps=15 - k) == nf

    def test_one_complement_per_labeling(self, monkeypatch, circle):
        # each context is computed once: strong_embeddings returns the
        # labelings, and exactly one complement is taken of each
        rules, y8, q = circle
        counts = {"complement": 0, "labelings": 0}
        real_complement = netrw.match.complement
        real_strong = netrw.match.strong_embeddings

        def counting_complement(*args):
            counts["complement"] += 1
            return real_complement(*args)

        def counting_strong(*args, **kwargs):
            labelings = real_strong(*args, **kwargs)
            counts["labelings"] += len(labelings)
            return labelings

        swap = {id(real_complement): counting_complement, id(real_strong): counting_strong}
        for name, module in list(sys.modules.items()):
            if name == "netrw" or name.startswith("netrw."):
                for attr, value in list(vars(module).items()):
                    if id(value) in swap:
                        monkeypatch.setattr(module, attr, swap[id(value)])
        normalize(y8, q, rules, max_steps=15)
        assert counts["labelings"] > 0
        assert counts["complement"] == counts["labelings"]

    def test_every_step_decreases(self, rng, msig, assoc):
        assignment = parse_assignment(
            "map m = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 2", msig, BAFF_NAT
        )
        spec = OrderSpec((BaffStage(assignment),))
        for _ in range(40):
            x = LinComb.monomial(random_class(rng, list(msig), max_inner=4))
            q = BoolMat.ones(x.coarity, x.arity)
            trace = []
            normalize(x, q, assoc, order_backed=True, trace=trace)
            for step in trace:
                for term in step.after.monomials():
                    assert compare(term, step.before, spec) == LT


class TestFeedbackTypedRule:
    def test_wrap_context_needs_the_type_zero(self):
        # the smallest feedback-typed rule: its where clause lets the
        # context wire output a back into input e; with the all-ones type
        # the same occurrence is rejected
        sig = parse_signature(
            "gen m 1 2\ngen S 1 1\ngen D 2 1\ngen eta 1 0\ngen eps 0 1\n"
        )
        rules = parse_rules(
            "rule fb: m^b_cd m^c_ef S^d_g d^f_h D^{a h}_i D^{i g}_j"
            " -> d^a_j d^b_e where a ~> e",
            sig,
        )
        subject = parse_term(
            "m^b_cd m^c_ef S^d_g d^f_h D^{a h}_i D^{i g}_j D^{x e}_a", sig
        )
        q = BoolMat.ones(subject.coarity, subject.arity)
        hit = reduce_once(subject, q, rules)
        assert hit is not None
        assert hit[0] == parse_term("[b x|D^{x b}_j|j]", sig)

        untyped = parse_rules(
            "rule fbj: m^b_cd m^c_ef S^d_g d^f_h D^{a h}_i D^{i g}_j"
            " -> d^a_j d^b_e",
            sig,
        )
        assert is_irreducible(subject, q, untyped)


class TestJoinable:
    def test_trivial(self, rng, msig, assoc):
        x = LinComb.monomial(random_class(rng, list(msig)))
        q = BoolMat.ones(x.coarity, x.arity)
        assert joinable(x, x, q, assoc, max_steps=3).status == "yes"

    def test_zigzag_joinability(self, zig):
        sig, rules = zig
        x = parse_term("cup_12 cap^23", sig)
        y = parse_term("cap^32 cup_21", sig)
        assert joinable(x, y, BoolMat.zeros(1, 1), rules, max_steps=10).status == "no"
        res = joinable(x, y, BoolMat.ones(1, 1), rules, max_steps=10)
        assert res.status == "yes"
        assert res.common == LinComb.monomial(phi(same(1)))

    def test_pentagon(self, msig, assoc):
        m = generator(msig["m"])
        site = compose(m, tensor(identity(1), compose(m, tensor(identity(1), m))))
        q = BoolMat.ones(1, 4)
        steps = all_single_steps(LinComb.monomial(site), q, assoc)
        assert len(steps) == 2
        res = joinable(steps[0], steps[1], q, assoc, max_steps=10)
        assert res.status == "yes"
