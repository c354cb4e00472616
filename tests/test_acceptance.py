"""Acceptance suite: one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion, or ``-s`` to also see the PASS summary prints.
"""

import itertools
import time
from fractions import Fraction
from pathlib import Path

import pytest

from netrw.ainparse import parse_rules, parse_term
from netrw.ambiguity import confluence_report, enumerate_decisive, resolve
from netrw.core import BoolMat, Perm, Symbol, cross, parse_signature, same
from netrw.freeprop import (
    LinComb,
    annex,
    class_of,
    compose,
    generator,
    identity,
    join_condition,
    join_transference,
    phi,
    sym_join,
    tensor,
)
from netrw.match import complement, embeddings, strong_embeddings
from netrw.network import Edge, evaluate, validate
from netrw.order import LT, OrderSpec, Stage, compare, check_strictness, rule_compatible
from netrw.props import (
    BAFF_NAT,
    BOOL_MATRIX,
    CONNECTIVITY,
    NAT_MATRIX,
    Mat,
    connectivity_assignment,
    matrix_feedback,
    parse_assignment,
)
from netrw.rewrite import is_irreducible, joinable, normalize, reduce_once

from conftest import (
    FreePropTarget,
    all_cuts,
    all_ones_assignment,
    check_prop_axioms,
    cut,
    exact_shape_class,
    obvious_ordering,
    random_class,
    random_nat_mat,
    random_network,
    random_perm,
    split,
)
from test_match import brute_force_embeddings
from test_network import nat_assign

CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"


def timed(budget_s):
    def wrap(fn):
        def inner(*args, **kw):
            t0 = time.monotonic()
            fn(*args, **kw)
            took = time.monotonic() - t0
            assert took < budget_s, f"{fn.__name__} took {took:.1f}s > {budget_s}s"
            print(f"ACCEPTANCE PASS: {fn.__name__} ({took:.2f}s)")

        inner.__name__ = fn.__name__
        return inner

    return wrap


@timed(1.0)
def test_matrix_evaluation_golden():
    """The reference 3-vertex, 9-edge network evaluates to the displayed
    matrix, exactly."""
    VA, VB, VC = 2, 3, 4
    edges = {
        0: Edge(VA, 1, 1, 1),
        1: Edge(VA, 2, 1, 2),
        2: Edge(VB, 2, 1, 3),
        3: Edge(VB, 1, VA, 2),
        4: Edge(VC, 1, VA, 1),
        5: Edge(VC, 2, VB, 2),
        6: Edge(0, 1, VB, 1),
        7: Edge(0, 2, VC, 1),
        8: Edge(0, 3, VC, 2),
    }
    net = validate(
        edges,
        {VA: Symbol("A", 2, 2), VB: Symbol("B", 2, 2), VC: Symbol("C", 2, 2)},
    )
    a = Mat.from_rows([[1, 2], [3, 4]])
    b = Mat.from_rows([[5, 6], [7, 8]])
    c = Mat.from_rows([[9, 10], [11, 12]])
    value = evaluate(net, NAT_MATRIX, {"A": a, "B": b, "C": c})
    # substitute into the displayed symbolic entry pattern (b11*a21 ...)
    (a11, a12), (a21, a22) = a.entries
    (b11, b12), (b21, b22) = b.entries
    (c11, c12), (c21, c22) = c.entries
    expected = Mat.from_rows(
        [
            [b11 * a21, b11 * a22, b12],
            [c11 * a11 + c12 * b21 * a21, c11 * a12 + c12 * b21 * a22, c12 * b22],
            [c21 * a11 + c22 * b21 * a21, c21 * a12 + c22 * b21 * a22, c22 * b22],
        ]
    )
    assert value == expected
    assert value == Mat.from_rows([[15, 20, 6], [219, 298, 80], [263, 358, 96]])


@timed(5.0)
def test_associativity_suite():
    """One nontrivial decisive self-ambiguity, resolvable; the system is
    certified confluent under the biaffine order; all 14 binary trees on
    5 leaves share one normal form."""
    sig = parse_signature((CORPUS / "assoc.sig").read_text())
    rules = parse_rules((CORPUS / "assoc.rules").read_text(), sig)
    assignment = parse_assignment((CORPUS / "assoc.map").read_text(), sig, BAFF_NAT)
    spec = OrderSpec((Stage(BAFF_NAT, assignment),))

    ambs = enumerate_decisive(rules[0], rules[0])
    nontrivial = [a for a in ambs if not a.trivial]
    assert len(nontrivial) == 1
    assert resolve(nontrivial[0], rules, spec).status == "resolved"

    assert check_strictness(spec, sig).ok
    assert rule_compatible(rules[0], spec)[0]
    report = confluence_report(rules, spec)
    assert report.verdict == "confluent" and not report.advisory

    m = generator(sig["m"])

    def trees(n):
        if n == 1:
            yield identity(1)
            return
        for k in range(1, n):
            for left in trees(k):
                for right in trees(n - k):
                    yield compose(m, tensor(left, right))

    all_trees = list(trees(5))
    assert len(all_trees) == 14
    q = BoolMat.ones(1, 5)
    forms = {
        normalize(LinComb.monomial(t), q, rules, order_backed=True) for t in all_trees
    }
    assert len(forms) == 1
    left_comb = identity(1)
    for _ in range(4):
        left_comb = compose(m, tensor(left_comb, identity(1))) if left_comb.arity else m
    left_comb = compose(
        m, tensor(compose(m, tensor(compose(m, tensor(m, identity(1))), identity(1))), identity(1))
    )
    assert forms == {LinComb.monomial(left_comb)}


@timed(1.0)
def test_zigzag_suite():
    """Both composites are irreducible at type 0 and reduce to the wire at
    the full type; joinability matches."""
    sig = parse_signature((CORPUS / "zigzag.sig").read_text())
    rules = parse_rules((CORPUS / "zigzag.rules").read_text(), sig)
    x = parse_term("cup_12 cap^23", sig)
    y = parse_term("cap^32 cup_21", sig)
    zero = BoolMat.zeros(1, 1)
    ones = BoolMat.ones(1, 1)
    wire = LinComb.monomial(phi(same(1)))

    assert is_irreducible(x, zero, rules) and is_irreducible(y, zero, rules)
    rx = reduce_once(x, ones, rules)
    ry = reduce_once(y, ones, rules)
    assert rx is not None and rx[0] == wire
    assert ry is not None and ry[0] == wire
    assert joinable(x, y, zero, rules, max_steps=10).status == "no"
    res = joinable(x, y, ones, rules, max_steps=10)
    assert res.status == "yes" and res.common == wire


@timed(5.0)
def test_frobenius_wrap_detection():
    """The wrap ambiguity is flagged unresolved with two distinct
    irreducible reducts."""
    sig = parse_signature((CORPUS / "frobenius.sig").read_text())
    rules = parse_rules((CORPUS / "frobenius.rules").read_text(), sig)
    report = confluence_report(rules, max_steps=25)
    assert report.verdict == "not-confluent"
    assert report.advisory
    wraps = [
        r
        for r in report.results
        if not r.ambiguity.terse
        and r.status == "unresolved"
        and r.ambiguity.rule1_id != r.ambiguity.rule2_id
    ]
    assert wraps
    amb = wraps[0].ambiguity
    assert (amb.site.coarity, amb.site.arity) == (2, 2)
    assert len(amb.site.rep.deco) == 4
    assert amb.reduct1 != amb.reduct2
    assert is_irreducible(amb.reduct1, amb.amb_type, rules)
    assert is_irreducible(amb.reduct2, amb.amb_type, rules)


@timed(600.0)
def test_hopf_sporadic_system():
    """All 14 sporadic rules load sharp; every decisive ambiguity resolves
    with budgeted joinability (depth 25)."""
    sig = parse_signature((CORPUS / "hopf.sig").read_text())
    rules = parse_rules((CORPUS / "hopf.rules").read_text(), sig)
    assert len(rules) == 14
    assert all(r.sharp for r in rules)
    report = confluence_report(rules, max_steps=25)
    assert report.verdict == "confluent"
    counts = report.counts()
    assert counts["unresolved"] == 0 and counts["unknown"] == 0


class TestPropertySuites:
    """Each suite runs at least 500 randomized cases, exact equality."""

    def test_join_transference_block_formula(self, rng, sig2):
        cases = 0
        while cases < 500:
            a = random_class(rng, list(sig2), max_inner=3)
            b = random_class(rng, list(sig2), max_inner=3)
            r = rng.randint(0, min(a.coarity, b.arity))
            q = rng.randint(0, min(a.arity, b.coarity))
            cond = join_condition(a.tr, b.tr, r, q)
            if not cond.is_nilpotent():
                continue
            assert sym_join(a, r, q, b).tr == join_transference(a.tr, b.tr, r, q)
            cases += 1
        print("ACCEPTANCE PASS: TrSymJoin block formula (500 cases)")

    def test_transference_is_boolean_evaluation(self, rng, sig2):
        for _ in range(500):
            net = random_network(rng, list(sig2), max_inner=4)
            assert class_of(net).tr == evaluate(net, BOOL_MATRIX, all_ones_assignment(sig2))
        print("ACCEPTANCE PASS: Tr = eval under all-ones assignment (500 cases)")

    def test_cut_split_multiplicativity(self, rng, sig2):
        cases = 0
        while cases < 500:
            net = random_network(rng, list(sig2), max_inner=5)
            cuts = all_cuts(net)
            w0, w1 = cuts[rng.randrange(len(cuts))]
            ordering = list(obvious_ordering(net, w0, w1).items())
            rng.shuffle(ordering)
            ordering = {e: i for i, (e, _) in enumerate(ordering, 1)}
            upper, lower = cut(net, w0, w1, ordering)
            assign = nat_assign(rng, list(sig2))
            assert evaluate(net, NAT_MATRIX, assign) == NAT_MATRIX.compose(
                evaluate(upper, NAT_MATRIX, assign),
                evaluate(lower, NAT_MATRIX, assign),
            )
            cases += 1
        # splits: tensor-assembled networks decompose multiplicatively
        cases = 0
        while cases < 500:
            left = random_network(rng, list(sig2), max_inner=2)
            right = random_network(rng, list(sig2), max_inner=2)
            voff = max(left.vertices) + 1
            eoff = max(left.edges, default=-1) + 1
            edges = dict(left.edges)
            wl, wr = set(left.inner_vertices()), set()
            for e, ends in right.edges.items():
                head = 0 if ends.head == 0 else ends.head + voff
                tail = 1 if ends.tail == 1 else ends.tail + voff
                hindex = ends.hindex + (left.coarity if ends.head == 0 else 0)
                tindex = ends.tindex + (left.arity if ends.tail == 1 else 0)
                edges[e + eoff] = Edge(head, hindex, tail, tindex)
            deco = dict(left.deco)
            for v, s in right.deco.items():
                deco[v + voff] = s
                wr.add(v + voff)
            whole = validate(edges, deco)
            l2, r2 = split(whole, set(left.edges), {e + eoff for e in right.edges}, wl, wr)
            assign = nat_assign(rng, list(sig2))
            assert evaluate(whole, NAT_MATRIX, assign) == NAT_MATRIX.tensor(
                evaluate(l2, NAT_MATRIX, assign), evaluate(r2, NAT_MATRIX, assign)
            )
            cases += 1
        print("ACCEPTANCE PASS: cut/split evaluation multiplicativity (500+500 cases)")

    def test_feedback_join_formula(self, rng, sig2):
        t = NAT_MATRIX
        cases = 0
        while cases < 500:
            kc = random_class(rng, list(sig2), max_inner=2)
            hc = random_class(rng, list(sig2), max_inner=2)
            r = rng.randint(0, min(kc.coarity, hc.arity))
            q = rng.randint(0, min(kc.arity, hc.coarity))
            cond = join_condition(kc.tr, hc.tr, r, q)
            if not cond.is_nilpotent():
                continue
            k_, l_ = kc.coarity - r, kc.arity - q
            m_, n_ = hc.coarity - q, hc.arity - r
            assign = nat_assign(rng, list(sig2))
            lhs = evaluate(sym_join(kc, r, q, hc).rep, t, assign)
            inner = t.compose(
                t.compose(
                    t.compose(
                        t.phi(same(k_).star(cross(r, m_))),
                        t.tensor(evaluate(kc.rep, t, assign), t.identity(m_)),
                    ),
                    t.tensor(t.identity(l_), evaluate(hc.rep, t, assign)),
                ),
                t.phi(same(l_).star(cross(n_, r))),
            )
            assert lhs == matrix_feedback(inner, r)
            cases += 1
        print("ACCEPTANCE PASS: feedback-join formula in the nat-matrix target (500 cases)")

    def test_matrix_feedback_axioms(self, rng):
        from test_props import TestMatrixFeedback

        helper = TestMatrixFeedback()
        t = NAT_MATRIX
        cases = 0
        while cases < 500:
            n = rng.randint(1, 3)
            i, j, k, l = (rng.randint(1, 3) for _ in range(4))
            a = random_nat_mat(rng, i, j)
            b = helper._nilblock(rng, j + n, k + n, n)
            c = random_nat_mat(rng, k, l)
            lhs = matrix_feedback(
                t.compose(
                    t.compose(t.tensor(a, t.identity(n)), b), t.tensor(c, t.identity(n))
                ),
                n,
            )
            assert lhs == t.compose(t.compose(a, matrix_feedback(b, n)), c)
            b2 = helper._nilblock(rng, k + n, l + n, n)
            assert t.tensor(a, matrix_feedback(b2, n)) == matrix_feedback(t.tensor(a, b2), n)
            m3 = rng.randint(1, 2)
            big = helper._nilblock(rng, k + n + m3, l + n + m3, n + m3)
            assert matrix_feedback(matrix_feedback(big, n), m3) == matrix_feedback(
                big, n + m3
            )
            assert matrix_feedback(t.phi(cross(n, n)), n) == t.identity(n)
            assert matrix_feedback(a, 0) == a
            cases += 5
        print("ACCEPTANCE PASS: matrix feedback axioms (500 cases)")

    def test_prop_axioms_all_targets(self, rng, hopf_sig):
        from test_props import random_baff, random_bool, random_conn

        check_prop_axioms(NAT_MATRIX, lambda r, m, n: random_nat_mat(r, m, n), rng)
        check_prop_axioms(BOOL_MATRIX, lambda r, m, n: random_bool(r, m, n), rng)
        check_prop_axioms(BAFF_NAT, lambda r, m, n: random_baff(r, m, n), rng)
        check_prop_axioms(CONNECTIVITY, lambda r, m, n: random_conn(r, m, n), rng)
        check_prop_axioms(
            FreePropTarget(),
            lambda r, m, n: exact_shape_class(r, hopf_sig, m, n),
            rng,
        )
        print("ACCEPTANCE PASS: PROP axioms for built-in targets and the free PROP")

    def test_ain_theorems(self, rng):
        from test_ainparse import TestNotationTheorems

        helper = TestNotationTheorems()
        hsig = parse_signature(
            "gen m 1 2\ngen S 1 1\ngen D 2 1\ngen eta 1 0\ngen eps 0 1\n"
        )
        helper.test_concatenation_is_composition(rng, hsig)
        helper.test_juxtaposition_is_tensor(rng, hsig)
        helper.test_factor_order_independence(rng, hsig)
        print("ACCEPTANCE PASS: AIN concatenation/juxtaposition/factor-order theorems")

    def test_order_strictness_and_join_preservation(self, rng):
        sig = parse_signature("gen m 1 2\n")
        rules = parse_rules("rule assoc sharp: m^a_bc m^c_de -> m^a_ce m^c_bd", sig)
        assignment = parse_assignment(
            "map m = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 2", sig, BAFF_NAT
        )
        spec = OrderSpec((Stage(BAFF_NAT, assignment),))
        small = rules[0].rhs.monomials()[0]
        big = rules[0].lhs
        cases = 0
        while cases < 500:
            c = random_class(rng, list(sig), max_inner=2)
            d = random_class(rng, list(sig), max_inner=2)
            if c.arity == big.coarity and d.coarity == big.arity:
                assert (
                    compare(compose(compose(c, small), d), compose(compose(c, big), d), spec)
                    == LT
                )
                cases += 1
            assert (
                compare(tensor(tensor(c, small), d), tensor(tensor(c, big), d), spec)
                == LT
            )
            cases += 1
        cases = 0
        while cases < 500:
            b = random_class(rng, list(sig), max_inner=2)
            r = rng.randint(0, min(small.coarity, b.arity))
            q = rng.randint(0, min(small.arity, b.coarity))
            c1 = join_condition(small.tr, b.tr, r, q)
            c2 = join_condition(big.tr, b.tr, r, q)
            if not (c1.is_nilpotent() and c2.is_nilpotent()):
                continue
            assert compare(sym_join(small, r, q, b), sym_join(big, r, q, b), spec) == LT
            cases += 1
        print("ACCEPTANCE PASS: order strictness and join preservation (500+500 cases)")

    def test_embedding_completeness(self, rng, sig2):
        cases = 0
        while cases < 500:
            subject = random_network(rng, list(sig2), max_inner=4)
            pattern = random_network(rng, list(sig2), max_inner=2, max_strays=1)
            got = {
                (emb.vertex_map, emb.edge_map)
                for emb in embeddings(pattern, subject)
            }
            assert got == brute_force_embeddings(pattern, subject)
            cases += 1
        print("ACCEPTANCE PASS: embedding completeness vs brute force (500 cases)")

    def test_complement_round_trip(self, rng, sig2):
        cases = 0
        while cases < 1000:
            subject = random_network(rng, list(sig2), max_inner=4)
            pattern = random_network(rng, list(sig2), max_inner=2, max_strays=1)
            embs = list(embeddings(pattern, subject))
            if not embs:
                continue
            sub_cls, pat_cls = class_of(subject), class_of(pattern)
            for emb in embs[:2]:
                for se in strong_embeddings(emb, pattern)[:2]:
                    k = complement(subject, pattern, se)
                    assert annex(k, pat_cls) == sub_cls
                    cases += 1
        print("ACCEPTANCE PASS: complement round trip annex(K, H) = G (1000 cases)")


def test_connectivity_cyclomatic_check(rng, sig2):
    """Connectivity evaluation vs an independent components-and-cycles
    computation on the leg-graph, 500 random networks, exact."""
    assign = connectivity_assignment(sig2)
    for _ in range(500):
        net = random_network(rng, list(sig2), max_inner=4)
        got = evaluate(net, CONNECTIVITY, assign)
        verts = {("v", v) for v in net.inner_vertices()}
        verts |= {("o", i) for i in range(1, net.coarity + 1)}
        verts |= {("i", j) for j in range(1, net.arity + 1)}
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ends in net.edges.values():
            a = ("o", ends.hindex) if ends.head == 0 else ("v", ends.head)
            b = ("i", ends.tindex) if ends.tail == 1 else ("v", ends.tail)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps = {find(v) for v in verts}
        assert got.cyc == len(net.edges) - len(verts) + len(comps)
        blocks = {}
        for v in verts:
            if v[0] == "v":
                continue
            lab = (0, v[1]) if v[0] == "o" else (1, v[1])
            blocks.setdefault(find(v), set()).add(lab)
        assert got.blocks == frozenset(frozenset(b) for b in blocks.values())
    print("ACCEPTANCE PASS: connectivity cyclomatic check (500 cases)")
