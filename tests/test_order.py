"""Termination orders: pullback biaffine stages, connectivity stages,
lexicographic composition, strictness, and rule compatibility."""

from collections import Counter
from functools import cache

import pytest

from netrw.ainparse import parse_rules
from netrw.network import evaluate
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
    OrderError,
    OrderSpec,
    Stage,
    check_strictness,
    compare,
    lex_compose,
    parse_order,
    rule_compatible,
)
from netrw.props import (
    BAFF_NAT,
    CONNECTIVITY,
    BaffElem,
    ConnElem,
    Mat,
    connectivity_assignment,
    parse_assignment,
)

from conftest import (
    class_pool,
    exact_shape_class,
    is_identity,
    random_class,
    random_perm,
)


@pytest.fixture
def msig():
    return parse_signature("gen m 1 2\n")


@pytest.fixture
def f1_spec(msig):
    assignment = parse_assignment("map m = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 2", msig, BAFF_NAT)
    return OrderSpec((Stage(BAFF_NAT, assignment),))


def conn_spec(sig):
    return OrderSpec((Stage(CONNECTIVITY, connectivity_assignment(sig)),))


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
        spec = OrderSpec((Stage(BAFF_NAT, assignment),))
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
        spec = OrderSpec((Stage(BAFF_NAT, assignment),))
        report = check_strictness(spec, msig)
        assert not report.ok
        assert any("row" in note for st in report.stages for note in st.notes)

    def test_symbol_without_image_fails(self):
        # a stage whose assignment lacks one symbol of the signature (built
        # in the library, as parse_assignment rejects such a file): the
        # report names that symbol, and the order is not admissible
        sig = parse_signature("gen m 1 2\ngen u 1 0\n")
        assignment = {"m": BaffElem(Mat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2]]))}
        report = check_strictness(OrderSpec((Stage(BAFF_NAT, assignment),)), sig)
        assert not report.ok and not report.stages[0].ok
        assert report.stages[0].notes == ("symbol 'u' has no image",)
        assert "symbol 'u' has no image" in str(report)

    def test_connectivity_separates_cycle_counts(self):
        # both elements connect the input to the output, but plugging a
        # unit in is less connected than duplicating and remerging
        from netrw.ainparse import parse_term

        sig = parse_signature("gen m 1 2\ngen u 1 0\ngen D 2 1\n")
        spec = conn_spec(sig)
        less = parse_term("m^a_{b c} u^c", sig).monomials()[0]
        more = parse_term("m^a_{b c} D^{b c}_d", sig).monomials()[0]
        assert compare(less, more, spec) == LT
        assert compare(more, less, spec) == GT

    def test_connectivity_always_admissible(self, msig):
        spec = conn_spec(msig)
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
        conn = conn_spec(msig)
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
        conn = conn_spec(msig)
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
        assert [stage.target for stage in spec.stages] == [BAFF_NAT, CONNECTIVITY]

    def test_bad_preset(self, msig):
        with pytest.raises(OrderError):
            parse_order("order { stage nope }", msig, lambda n: "")
        with pytest.raises(OrderError, match="needs a kind"):
            parse_order("order { stage }", msig, lambda n: "")


class TestStage:
    def test_connectivity_needs_one_block_images(self, hopf_sig):
        # any other connectivity assignment is not known to be admissible
        images = dict(connectivity_assignment(hopf_sig))
        images["S"] = ConnElem(1, 1, images["S"].blocks, 1)
        del images["eta"]
        report = check_strictness(OrderSpec((Stage(CONNECTIVITY, images),)), hopf_sig)
        assert not report.ok
        assert report.stages[0].notes == (
            "symbol 'eta' is not sent to its one-block image",
            "symbol 'S' is not sent to its one-block image",
        )


# ---------------------------------------------------------------------------
# Reference comparisons: the biaffine stage's two entrywise passes, and the
# connectivity order on values read off the leg graph
# ---------------------------------------------------------------------------


def reference_verdict(le: bool, ge: bool) -> str:
    return {
        (True, True): EQUIV,
        (True, False): LT,
        (False, True): GT,
        (False, False): INCOMPARABLE,
    }[le, ge]


def reference_baff_verdict(fa, fb) -> str:
    """The verdict on two biaffine values from their full matrices,
    compared entry by entry, once each way."""
    le = all(
        fa.entries[i][j] <= fb.entries[i][j] for i in range(fa.rows) for j in range(fa.cols)
    )
    ge = all(
        fa.entries[i][j] >= fb.entries[i][j] for i in range(fa.rows) for j in range(fa.cols)
    )
    return reference_verdict(le, ge)


def leg_graph_connectivity(net):
    """The connectivity value of a network without evaluation: the
    terminals of each component of its leg graph form a block, and the
    cycle count is the graph's cycle rank."""
    verts = {("v", v) for v in net.inner_vertices()}
    verts |= {("o", i) for i in range(1, net.coarity + 1)}
    verts |= {("i", j) for j in range(1, net.arity + 1)}
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for ends in net.edges.values():
        head = ("o", ends.hindex) if ends.head == 0 else ("v", ends.head)
        tail = ("i", ends.tindex) if ends.tail == 1 else ("v", ends.tail)
        parent[find(head)] = find(tail)
    roots = {find(v) for v in verts}
    blocks = {}
    for kind, k in verts:
        if kind != "v":
            blocks.setdefault(find((kind, k)), set()).add((0 if kind == "o" else 1, k))
    cyc = len(net.edges) - len(verts) + len(roots)
    return ConnElem(
        net.coarity, net.arity, frozenset(frozenset(b) for b in blocks.values()), cyc
    )


def random_admissible_baff(rng, sig):
    """Random biaffine images, entries below 3, redrawn until
    check_strictness accepts them."""
    while True:
        assignment = {}
        for sym in sig:
            rows = [[1] + [rng.randrange(3) for _ in range(sym.arity + 1)]]
            rows.append([0, 1] + [0] * sym.arity)
            for _ in range(sym.coarity):
                rows.append([0] + [rng.randrange(3) for _ in range(sym.arity + 1)])
            assignment[sym.name] = BaffElem(Mat.from_rows(rows))
        if check_strictness(OrderSpec((Stage(BAFF_NAT, assignment),)), sig).ok:
            return assignment


def binary_trees(m, leaves):
    """Every way to multiply ``leaves`` inputs in order with ``m``."""
    if leaves == 1:
        return [identity(1)]
    return [
        compose(m, tensor(left, right))
        for k in range(1, leaves)
        for left in binary_trees(m, k)
        for right in binary_trees(m, leaves - k)
    ]


def same_shape_pairs(rng, system, sig):
    """Pairs of classes of equal shape: random classes, each also paired
    with itself and with a conjugate by permutations, and for assoc the
    ordered trees of 3 and 4 leaves, which the biaffine stage can order
    strictly."""
    if system == "assoc":
        groups = list(class_pool(rng, list(sig), 30, max_inner=4).values())
        groups += [binary_trees(generator(sig["m"]), n) for n in (3, 4)]
    else:
        shapes = ((1, 1), (1, 2), (2, 1), (1, 0), (0, 1), (2, 2))
        groups = [[exact_shape_class(rng, sig, m, n) for _ in range(8)] for m, n in shapes]
    pairs = []
    for items in groups:
        for a in items:
            sigma, tau = random_perm(rng, a.coarity), random_perm(rng, a.arity)
            conj = compose(compose(phi(sigma), a), phi(tau))
            pairs += [(a, a), (a, conj)] + [(a, b) for b in items[:6] if b is not a]
    return pairs


# about half the verdicts of each kind that the seeded run sees; connected
# trees leave the connectivity stage on assoc without strict verdicts
MIN_VERDICTS = {
    "assoc": {
        ("baff", LT): 5,
        ("baff", GT): 5,
        ("baff", EQUIV): 250,
        ("baff", INCOMPARABLE): 250,
        ("connectivity", EQUIV): 70,
        ("connectivity", INCOMPARABLE): 20,
    },
    "hopf": {
        ("baff", LT): 110,
        ("baff", GT): 110,
        ("baff", EQUIV): 480,
        ("baff", INCOMPARABLE): 330,
        ("connectivity", LT): 12,
        ("connectivity", GT): 20,
        ("connectivity", EQUIV): 110,
        ("connectivity", INCOMPARABLE): 20,
    },
}


class TestStageOracle:
    """Stage.compare against the reference comparisons, on random assoc
    and Hopf classes, under the connectivity assignment and six admissible
    biaffine ones: random draws, and for assoc the paper's f1 in place of
    the first, since few random draws order two trees strictly."""

    @pytest.mark.parametrize("system", ["assoc", "hopf"])
    def test_matches_reference(self, rng, msig, hopf_sig, f1_spec, system):
        sig = msig if system == "assoc" else hopf_sig
        pairs = same_shape_pairs(rng, system, sig)
        seen = Counter()
        conn = Stage(CONNECTIVITY, connectivity_assignment(sig))
        value = cache(lambda c: leg_graph_connectivity(c.rep))
        for a, b in pairs:
            verdict = conn.compare(a, b)
            va, vb = value(a), value(b)
            assert verdict == reference_verdict(CONNECTIVITY.leq(va, vb), CONNECTIVITY.leq(vb, va))
            seen["connectivity", verdict] += 1
        assignments = [random_admissible_baff(rng, sig) for _ in range(6)]
        if system == "assoc":
            assignments[0] = f1_spec.stages[0].assignment
        for assignment in assignments:
            baff = Stage(BAFF_NAT, assignment)
            value = cache(lambda c: evaluate(c.rep, BAFF_NAT, assignment).full)
            for a, b in pairs:
                verdict = baff.compare(a, b)
                assert verdict == reference_baff_verdict(value(a), value(b))
                seen["baff", verdict] += 1
        short = {key: low for key, low in MIN_VERDICTS[system].items() if seen[key] < low}
        assert not short, (short, seen)
