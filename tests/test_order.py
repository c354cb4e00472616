"""Termination orders: pullback biaffine stages, connectivity stages,
lexicographic composition, strictness, and rule compatibility."""

import pytest

from netrw.ainparse import parse_rules
from netrw.core import BoolMat, cross, parse_signature, same
from netrw.freeprop import (
    LinComb,
    compose,
    generator,
    identity,
    join_condition,
    phi,
    sym_join,
    tensor,
)
from netrw.order import (
    EQUIV,
    GT,
    INCOMPARABLE,
    LT,
    BaffStage,
    ConnectivityStage,
    OrderError,
    OrderSpec,
    check_strictness,
    compare,
    lex_compose,
    parse_order,
    rule_compatible,
)
from netrw.props import BAFF_NAT, BaffElem, Mat, parse_assignment

from conftest import class_pool, is_identity, random_class, random_perm


@pytest.fixture
def msig():
    return parse_signature("gen m 1 2\n")


@pytest.fixture
def f1_spec(msig):
    assignment = parse_assignment("map m = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 2", msig, BAFF_NAT)
    return OrderSpec((BaffStage(assignment),))


@pytest.fixture
def assoc_rule(msig):
    return parse_rules("rule assoc sharp: m^a_bc m^c_de -> m^a_ce m^c_bd", msig)[0]


class TestCompare:
    def test_paper_compatibility_example(self, msig, f1_spec, assoc_rule):
        stage = f1_spec.stages[0]
        lhs_val = stage.value(assoc_rule.lhs).full
        rhs_val = stage.value(assoc_rule.rhs.monomials()[0]).full
        assert lhs_val.entries == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 2, 4))
        assert rhs_val.entries == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 2, 2))
        assert compare(assoc_rule.rhs.monomials()[0], assoc_rule.lhs, f1_spec) == LT
        assert compare(assoc_rule.lhs, assoc_rule.rhs.monomials()[0], f1_spec) == GT

    def test_reflexive_equiv(self, rng, msig, f1_spec):
        a = random_class(rng, list(msig))
        assert compare(a, a, f1_spec) == EQUIV

    def test_incomparable(self, msig):
        # two generators whose images have entries (1,2) vs (2,1)
        sig = parse_signature("gen x 1 1\ngen y 1 1\n")
        assignment = parse_assignment(
            "map x = 1 0 0 ; 0 1 0 ; 0 1 2\nmap y = 1 0 0 ; 0 1 0 ; 0 2 1",
            sig,
            BAFF_NAT,
        )
        spec = OrderSpec((BaffStage(assignment),))
        x, y = generator(sig["x"]), generator(sig["y"])
        assert compare(x, y, spec) == INCOMPARABLE

    def test_shape_mismatch(self, rng, msig, f1_spec):
        m = generator(msig["m"])
        with pytest.raises(OrderError):
            compare(m, identity(1), f1_spec)

    def test_permutation_comparisons_never_strict(self, rng, msig, f1_spec):
        # permuted variants are equivalent or incomparable, never strictly
        # ordered (a strict comparison would contradict finite permutation
        # order under a strict PROP order)
        for _ in range(100):
            a = random_class(rng, list(msig), max_inner=3)
            s, t = random_perm(rng, a.coarity), random_perm(rng, a.arity)
            conj = compose(compose(phi(s), a), phi(t))
            assert compare(conj, a, f1_spec) in (EQUIV, INCOMPARABLE)
            if is_identity(s) and is_identity(t):
                assert compare(conj, a, f1_spec) == EQUIV


class TestStrictness:
    def test_f1_passes(self, msig, f1_spec):
        assert check_strictness(f1_spec, msig).ok

    def test_zero_row_fails(self, msig):
        assignment = {"m": BaffElem(Mat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]))}
        spec = OrderSpec((BaffStage(assignment),))
        report = check_strictness(spec, msig)
        assert not report.ok
        assert any("row" in note for st in report.stages for note in st.notes)

    def test_connectivity_separates_cycle_counts(self):
        # both elements connect the input to the output, but plugging a
        # unit in is less connected than duplicating and remerging
        from netrw.ainparse import parse_term

        sig = parse_signature("gen m 1 2\ngen u 1 0\ngen D 2 1\n")
        spec = OrderSpec((ConnectivityStage(),))
        less = parse_term("m^a_{b c} u^c", sig).monomials()[0]
        more = parse_term("m^a_{b c} D^{b c}_d", sig).monomials()[0]
        assert compare(less, more, spec) == LT
        assert compare(more, less, spec) == GT

    def test_connectivity_always_admissible(self, msig):
        spec = OrderSpec((ConnectivityStage(),))
        report = check_strictness(spec, msig)
        assert report.ok
        assert report.stages[0].kind == "connectivity"

    def test_strict_in_contexts(self, rng, msig, f1_spec, assoc_rule):
        # a < b stays strict under composition and tensoring with contexts
        a = assoc_rule.rhs.monomials()[0]
        b = assoc_rule.lhs
        cases = 0
        pool = class_pool(rng, list(msig), 200, max_inner=2)
        for (cm, cn), citems in pool.items():
            if cn != b.coarity:
                continue
            for (dm, dn), ditems in pool.items():
                if dm != b.arity:
                    continue
                for c in citems[:4]:
                    for d in ditems[:4]:
                        lhs = compose(compose(c, a), d)
                        rhs = compose(compose(c, b), d)
                        assert compare(lhs, rhs, f1_spec) == LT
                        cases += 1
        for _ in range(max(0, 250 - cases)):
            c = random_class(rng, list(msig), max_inner=2)
            d = random_class(rng, list(msig), max_inner=2)
            lhs = tensor(tensor(c, a), d)
            rhs = tensor(tensor(c, b), d)
            assert compare(lhs, rhs, f1_spec) == LT
            cases += 1
        assert cases >= 250

    def test_preserved_under_join(self, rng, msig, f1_spec, assoc_rule):
        # a < a' implies a join b < a' join b when both joins are defined
        a = assoc_rule.rhs.monomials()[0]
        a2 = assoc_rule.lhs
        cases = 0
        while cases < 500:
            b = random_class(rng, list(msig), max_inner=2)
            r = rng.randint(0, min(a.coarity, b.arity))
            q = rng.randint(0, min(a.arity, b.coarity))
            c1 = join_condition(a.tr, b.tr, r, q)
            c2 = join_condition(a2.tr, b.tr, r, q)
            if not (c1 and c1.is_nilpotent() and c2 and c2.is_nilpotent()):
                if c1 is None or c2 is None:
                    continue
                if not (c1.is_nilpotent() and c2.is_nilpotent()):
                    continue
            j1 = sym_join(a, r, q, b)
            j2 = sym_join(a2, r, q, b)
            assert compare(j1, j2, f1_spec) == LT
            cases += 1


class TestRuleCompatible:
    def test_assoc_compatible(self, f1_spec, assoc_rule):
        ok, witnesses = rule_compatible(assoc_rule, f1_spec)
        assert ok and all(v == LT for _, v in witnesses)

    def test_identity_rule_incompatible(self, msig, f1_spec):
        from netrw.rewrite import make_rule

        m = generator(msig["m"])
        rule = make_rule("noop", LinComb.monomial(m), LinComb.monomial(m), "sharp")
        ok, witnesses = rule_compatible(rule, f1_spec)
        assert not ok and witnesses[0][1] == EQUIV

    def test_rhs_containing_lhs_incompatible(self, msig, f1_spec, assoc_rule):
        from netrw.rewrite import make_rule

        rhs = assoc_rule.rhs + LinComb.monomial(assoc_rule.lhs)
        rule = make_rule("bad", LinComb.monomial(assoc_rule.lhs), rhs, "sharp")
        ok, _ = rule_compatible(rule, f1_spec)
        assert not ok


class TestLexCompose:
    def test_single_stage_identity(self, f1_spec):
        assert lex_compose([f1_spec]) == f1_spec

    def test_associative(self, rng, msig, f1_spec):
        conn = OrderSpec((ConnectivityStage(),))
        p = lex_compose([lex_compose([conn, f1_spec]), conn])
        q = lex_compose([conn, lex_compose([f1_spec, conn])])
        assert p == q
        for _ in range(100):
            a = random_class(rng, list(msig), max_inner=3)
            b = random_class(rng, list(msig), max_inner=3)
            if (a.coarity, a.arity) != (b.coarity, b.arity):
                continue
            assert compare(a, b, p) == compare(a, b, q)

    def test_equiv_defers_to_second_stage(self, msig, f1_spec, assoc_rule):
        conn = OrderSpec((ConnectivityStage(),))
        both = lex_compose([conn, f1_spec])
        lhs, rhs = assoc_rule.lhs, assoc_rule.rhs.monomials()[0]
        # connectivity alone cannot separate the two association trees
        assert compare(lhs, rhs, conn) == EQUIV
        assert compare(rhs, lhs, both) == LT

    def test_empty_rejected(self):
        with pytest.raises(OrderError):
            lex_compose([])


class TestOrderFiles:
    def test_parse_preset(self, msig):
        files = {"f1.map": "map m = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 2"}
        spec = parse_order(
            "order { stage baff f1.map ; stage connectivity }", msig, files.__getitem__
        )
        assert len(spec.stages) == 2
        assert isinstance(spec.stages[0], BaffStage)
        assert isinstance(spec.stages[1], ConnectivityStage)

    def test_bad_preset(self, msig):
        with pytest.raises(OrderError):
            parse_order("order { stage nope }", msig, lambda n: "")
