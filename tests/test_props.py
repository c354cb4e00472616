"""Built-in targets: matrix PROPs, biaffine, connectivity, and the
matrix formal feedback."""

from fractions import Fraction

import pytest

from netrw.core import BoolMat, Perm, cross, same
from netrw.freeprop import join_condition, sym_join
from netrw.network import evaluate
from netrw.props import (
    BAFF_NAT,
    BOOL_MATRIX,
    CONNECTIVITY,
    NAT_MATRIX,
    RAT_MATRIX,
    TARGETS,
    BaffElem,
    ConnElem,
    Mat,
    PatternNotNilpotentError,
    PatternViolatedError,
    TargetValueError,
    connectivity_assignment,
    get_target,
    matrix_feedback,
    parse_assignment,
)

from conftest import (
    CONN_CAP,
    CONN_CUP,
    check_prop_axioms,
    random_nat_mat,
    random_network,
    random_perm,
    reference_evaluate,
)


def random_baff(rng, m, n, top=3) -> BaffElem:
    rows = [[1, rng.randrange(top)] + [rng.randrange(top) for _ in range(n)]]
    rows.append([0, 1] + [0] * n)
    for _ in range(m):
        rows.append([0, rng.randrange(top)] + [rng.randrange(top) for _ in range(n)])
    return BaffElem(Mat.from_rows(rows))


def random_conn(rng, m, n) -> ConnElem:
    labels = [(0, i) for i in range(1, m + 1)] + [(1, j) for j in range(1, n + 1)]
    blocks: list[list] = []
    for lab in labels:
        if blocks and rng.random() < 0.5:
            blocks[rng.randrange(len(blocks))].append(lab)
        else:
            blocks.append([lab])
    return ConnElem(m, n, frozenset(frozenset(b) for b in blocks), rng.randrange(3))


def random_bool(rng, m, n) -> BoolMat:
    bits = tuple(
        sum((1 if rng.random() < 0.4 else 0) << j for j in range(n)) for _ in range(m)
    )
    return BoolMat(m, n, bits)


def random_rat(rng, m, n) -> Mat:
    return Mat.from_rows(
        [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)] for _ in range(m)],
        cols=n,
    )


# a random element of each built-in target, by name
RANDOM_ELEMENT = {
    "nat-matrix": random_nat_mat,
    "rat-matrix": random_rat,
    "bool-matrix": random_bool,
    "baff-nat": random_baff,
    "connectivity": random_conn,
}


class TestMatrixTargets:
    def test_identity_compose(self, rng):
        a = random_nat_mat(rng, 3, 2)
        assert NAT_MATRIX.compose(NAT_MATRIX.identity(3), a) == a

    def test_axioms_nat(self, rng):
        check_prop_axioms(NAT_MATRIX, lambda r, m, n: random_nat_mat(r, m, n), rng)

    def test_axioms_rat(self, rng):
        check_prop_axioms(RAT_MATRIX, random_rat, rng)

    def test_axioms_bool(self, rng):
        check_prop_axioms(BOOL_MATRIX, lambda r, m, n: random_bool(r, m, n), rng)

    def test_phi_entries(self, rng):
        p = random_perm(rng, 4)
        mat = BOOL_MATRIX.phi(p)
        for i in range(1, 5):
            for j in range(1, 5):
                assert mat.get(i - 1, j - 1) == (1 if i == p(j) else 0)


class TestBaff:
    def test_compose_is_full_matrix_product(self, rng):
        # block-multiplication oracle on random 4x4-part elements
        for _ in range(200):
            a = random_baff(rng, 4, 4)
            b = random_baff(rng, 4, 4)
            assert BAFF_NAT.compose(a, b).full == NAT_MATRIX.compose(a.full, b.full)

    def test_tensor_scalar_addition(self, rng):
        a = random_baff(rng, 1, 1)
        b = random_baff(rng, 2, 1)
        a = BaffElem(Mat.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
        b2 = BaffElem(
            Mat.from_rows([[1, 2, 5], [0, 1, 0], [0, 3, 7], [0, 4, 8]])
        )
        out = BAFF_NAT.tensor(a, b2)
        assert out.scalar_part == 3
        assert out.vector_part == (0, 3, 4)

    def test_pattern_enforced(self):
        with pytest.raises(Exception):
            BaffElem(Mat.from_rows([[0, 0], [0, 1]]))

    def test_entries_in_n(self):
        # entries outside N would let a pullback stage descend forever;
        # naturals are held as ints, as parse_assignment gives them
        BaffElem(Mat.from_rows([[1, 2, 0], [0, 1, 0], [0, 3, 4]]))
        for bad in (-1, Fraction(1, 2), Fraction(3), 2.0):
            with pytest.raises(TargetValueError, match="non-negative ints"):
                BaffElem(Mat.from_rows([[1, 2, 0], [0, 1, 0], [0, 3, bad]]))

    def test_axioms(self, rng):
        check_prop_axioms(BAFF_NAT, lambda r, m, n: random_baff(r, m, n), rng, cases=50)

    def test_phi_padding(self, rng):
        p = random_perm(rng, 3)
        full = BAFF_NAT.phi(p).full
        assert full.get(0, 0) == 1 and full.get(1, 1) == 1
        assert BAFF_NAT.phi(same(3)) == BAFF_NAT.identity(3)


class TestConnectivity:
    def test_phi_blocks(self, rng):
        p = random_perm(rng, 3)
        elem = CONNECTIVITY.phi(p)
        assert elem.cyc == 0 and len(elem.blocks) == 3
        assert all(len(b) == 2 for b in elem.blocks)

    def test_compose_hand_example(self, sig2):
        # m after D: one merged block, one new cycle
        images = connectivity_assignment(sig2)
        m_img, d_img = images["m"], images["D"]
        out = CONNECTIVITY.compose(m_img, d_img)
        assert out.cyc == 1
        assert len(out.blocks) == 1

    def test_tensor_shift(self, rng):
        a = random_conn(rng, 1, 2)
        b = random_conn(rng, 2, 1)
        out = CONNECTIVITY.tensor(a, b)
        assert out.cyc == a.cyc + b.cyc
        shifted = {frozenset((s, i + (1 if s == 0 else 2)) for s, i in blk) for blk in b.blocks}
        assert shifted <= set(out.blocks)

    def test_axioms(self, rng):
        check_prop_axioms(CONNECTIVITY, lambda r, m, n: random_conn(r, m, n), rng, cases=50)

    def test_cup_cap_regression(self):
        # same(1) (x) cup . cross (x) same(1) . same(1) (x) cap == same(1)
        t = CONNECTIVITY
        lhs = t.compose(
            t.compose(
                t.tensor(t.identity(1), CONN_CUP),
                t.tensor(t.phi(cross(1, 1)), t.identity(1)),
            ),
            t.tensor(t.identity(1), CONN_CAP),
        )
        assert lhs == t.identity(1)

    def test_cyclomatic_oracle(self, rng, sig2):
        # eval in the connectivity target vs an independent computation on
        # the leg-graph with terminal vertices
        for _ in range(500):
            net = random_network(rng, list(sig2), max_inner=4)
            got = evaluate(net, CONNECTIVITY, connectivity_assignment(sig2))

            verts = set()
            for v in net.inner_vertices():
                verts.add(("v", v))
            for i in range(1, net.coarity + 1):
                verts.add(("o", i))
            for j in range(1, net.arity + 1):
                verts.add(("i", j))
            parent = {v: v for v in verts}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            n_edges = len(net.edges)
            for ends in net.edges.values():
                a = ("o", ends.hindex) if ends.head == 0 else ("v", ends.head)
                b = ("i", ends.tindex) if ends.tail == 1 else ("v", ends.tail)
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
            comps = {find(v) for v in verts}
            cyc = n_edges - len(verts) + len(comps)
            assert got.cyc == cyc
            blocks = {}
            for v in verts:
                if v[0] == "v":
                    continue
                key = find(v)
                lab = (0, v[1]) if v[0] == "o" else (1, v[1])
                blocks.setdefault(key, set()).add(lab)
            assert got.blocks == frozenset(frozenset(b) for b in blocks.values())


class TestMatrixFeedback:
    def test_truncated_series_example(self):
        a = Mat.from_rows([[1, 2], [3, 0]])
        out = matrix_feedback(a, 1)
        # oracle: sum of A12 A22^k A21 truncated (A22 = 0 here)
        assert out == Mat.from_rows([[1 + 2 * 3]])

    def test_vanishing(self, rng):
        a = random_nat_mat(rng, 3, 2)
        assert matrix_feedback(a, 0) == a

    def test_all_outputs_fed_back(self):
        # feeding back every output leaves a 0 x (n - k) element, not 0 x 0
        assert matrix_feedback(Mat.from_rows([[0, 0]]), 1) == Mat(0, 1, ())

    def test_yanking(self):
        for n in (1, 2, 3):
            mat = NAT_MATRIX.phi(cross(n, n))
            assert matrix_feedback(mat, n) == NAT_MATRIX.identity(n)

    def test_pattern_not_nilpotent(self):
        with pytest.raises(PatternNotNilpotentError):
            matrix_feedback(NAT_MATRIX.identity(2), 1)

    def test_pattern_violated(self):
        a = Mat.from_rows([[1, 2], [3, 4]])
        with pytest.raises(PatternViolatedError):
            matrix_feedback(a, 1, BoolMat.zeros(1, 1))

    def test_neumann_oracle(self, rng):
        # lower-right block strictly upper triangular: compare the feedback
        # against the explicit truncated series
        for _ in range(200):
            k, n = rng.randint(1, 3), rng.randint(1, 3)
            rows = []
            for i in range(k + n):
                row = []
                for j in range(k + n):
                    if i >= k and j >= k and j <= i:
                        row.append(0)
                    else:
                        row.append(rng.randrange(3))
                rows.append(row)
            a = Mat.from_rows(rows)
            out = matrix_feedback(a, n)
            a11 = Mat.from_rows([r[:k] for r in rows[:k]])
            a12 = Mat.from_rows([r[k:] for r in rows[:k]])
            a21 = Mat.from_rows([r[:k] for r in rows[k:]])
            a22 = Mat.from_rows([r[k:] for r in rows[k:]])
            acc = a11
            term = a12
            for _ in range(n + 1):
                piece = NAT_MATRIX.compose(term, a21)
                acc = Mat.from_rows(
                    [
                        [acc.entries[i][j] + piece.entries[i][j] for j in range(k)]
                        for i in range(k)
                    ]
                )
                term = NAT_MATRIX.compose(term, a22)
            assert out == acc

    def _nilblock(self, rng, rows, cols, n):
        """Random nat matrix whose lower-right n x n block is strictly
        upper triangular."""
        out = []
        for i in range(rows):
            row = []
            for j in range(cols):
                if i >= rows - n and j >= cols - n and (j - (cols - n)) <= (i - (rows - n)):
                    row.append(0)
                else:
                    row.append(rng.randrange(3))
            out.append(row)
        return Mat.from_rows(out)

    def test_feedback_axioms(self, rng):
        t = NAT_MATRIX
        for _ in range(200):
            n = rng.randint(1, 3)
            i, j, k, l = (rng.randint(1, 3) for _ in range(4))
            # tightening
            a = random_nat_mat(rng, i, j)
            b = self._nilblock(rng, j + n, k + n, n)
            c = random_nat_mat(rng, k, l)
            lhs = matrix_feedback(
                t.compose(t.compose(t.tensor(a, t.identity(n)), b), t.tensor(c, t.identity(n))),
                n,
            )
            rhs = t.compose(t.compose(a, matrix_feedback(b, n)), c)
            assert lhs == rhs
            # superposing
            b2 = self._nilblock(rng, k + n, l + n, n)
            assert t.tensor(a, matrix_feedback(b2, n)) == matrix_feedback(t.tensor(a, b2), n)
            # sliding: (same(k) (x) a . b) fb m  ==  (b . same(l) (x) a) fb n'
            m2, n2 = rng.randint(1, 2), rng.randint(1, 2)
            a2 = Mat.from_rows([[0] * n2 for _ in range(m2)])  # zero block keeps products nilpotent
            b3 = random_nat_mat(rng, k + n2, l + m2)
            lhs = matrix_feedback(t.compose(t.tensor(t.identity(k), a2), b3), m2)
            rhs = matrix_feedback(t.compose(b3, t.tensor(t.identity(l), a2)), n2)
            assert lhs == rhs
            # vanishing
            m3 = rng.randint(1, 2)
            big = self._nilblock(rng, k + n + m3, l + n + m3, n + m3)
            assert matrix_feedback(matrix_feedback(big, n), m3) == matrix_feedback(
                big, n + m3
            )

    def test_baff_feedback(self, rng):
        for _ in range(50):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[1, rng.randrange(2)] + [rng.randrange(2) for _ in range(n + 1)]]
            rows.append([0, 1] + [0] * (n + 1))
            for i in range(m):
                rows.append([0, rng.randrange(2)] + [rng.randrange(2) for _ in range(n + 1)])
            rows.append([0, rng.randrange(2)] + [rng.randrange(2) for _ in range(n)] + [0])
            elem = BaffElem(Mat.from_rows(rows))
            out = matrix_feedback(elem, 1)
            assert isinstance(out, BaffElem)
            assert out.full == matrix_feedback(elem.full, 1)


class TestFeedbackJoin:
    def test_eval_of_join_is_feedback_expression(self, rng, sig2):
        # eval_f(K join^r_q H) via the displayed feedback formula
        from conftest import random_network
        from netrw.freeprop import class_of
        from netrw.network import evaluate
        from conftest import NEUTRAL

        t = NAT_MATRIX
        cases = 0
        while cases < 500:
            knet = random_network(rng, list(sig2), max_inner=2)
            hnet = random_network(rng, list(sig2), max_inner=2)
            kc, hc = class_of(knet), class_of(hnet)
            r = rng.randint(0, min(kc.coarity, hc.arity))
            q = rng.randint(0, min(kc.arity, hc.coarity))
            cond = join_condition(kc.tr, hc.tr, r, q)
            if cond is None or not cond.is_nilpotent():
                continue
            k_, l_ = kc.coarity - r, kc.arity - q
            m_, n_ = hc.coarity - q, hc.arity - r
            assign = {
                s.name: random_nat_mat(rng, s.coarity, s.arity, top=3) for s in sig2
            }
            assign[NEUTRAL.name] = t.identity(1)
            joined = sym_join(kc, r, q, hc)
            lhs = evaluate(joined.rep, t, assign)
            ek = evaluate(kc.rep, t, assign)
            eh = evaluate(hc.rep, t, assign)
            inner = t.compose(
                t.compose(
                    t.compose(
                        t.phi(same(k_).star(cross(r, m_))),
                        t.tensor(ek, t.identity(m_)),
                    ),
                    t.tensor(t.identity(l_), eh),
                ),
                t.phi(same(l_).star(cross(n_, r))),
            )
            rhs = matrix_feedback(inner, r)
            assert lhs == rhs
            cases += 1


class TestRegistryAndAssignments:
    def test_registry(self):
        for name in ("nat-matrix", "bool-matrix", "rat-matrix", "baff-nat", "connectivity"):
            assert get_target(name) is not None
        with pytest.raises(Exception):
            get_target("nope")

    def test_parse_assignment(self, sig2):
        text = "map m = 1 0 ; 0 1... typo"
        good = "map m = 1 2\nmap D = 1 ; 2"
        out = parse_assignment(good, sig2, NAT_MATRIX)
        assert out["m"] == Mat.from_rows([[1, 2]])
        assert out["D"] == Mat.from_rows([[1], [2]])
        with pytest.raises(Exception):
            parse_assignment("map m = 1", sig2, NAT_MATRIX)
        with pytest.raises(TargetValueError, match="^line 3: duplicate map for 'm'$"):
            parse_assignment(good + "\nmap m = 3 4", sig2, NAT_MATRIX)

    def test_natural_entries(self, sig2):
        # nat-matrix and baff-nat take entries in N only; an integral
        # fraction is its natural number
        out = parse_assignment("map m = 4/2 0\nmap D = 1 ; 3", sig2, NAT_MATRIX)
        assert out["m"] == Mat.from_rows([[2, 0]]) and type(out["m"].get(0, 0)) is int
        for bad in ("map m = -1 2", "map m = 1/2 2"):
            with pytest.raises(TargetValueError, match="^line 1: 'm' needs natural-number entries$"):
                parse_assignment(bad + "\nmap D = 1 ; 3", sig2, NAT_MATRIX)
        with pytest.raises(TargetValueError, match="^line 2: 'D' needs natural-number entries$"):
            parse_assignment(
                "map m = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 2\n"
                "map D = 1 0 0 ; 0 1 0 ; 0 -2 1 ; 0 1 1",
                sig2,
                BAFF_NAT,
            )

    def test_rational_and_boolean_entries(self, sig2):
        # rat-matrix keeps signed fractions; bool-matrix reads any nonzero as 1
        text = "map m = -1/2 3\nmap D = 0 ; -2"
        out = parse_assignment(text, sig2, RAT_MATRIX)
        assert out["m"] == Mat.from_rows([[Fraction(-1, 2), 3]])
        assert out["D"] == Mat.from_rows([[0], [-2]])
        out = parse_assignment(text, sig2, BOOL_MATRIX)
        assert out["m"] == BoolMat.from_rows([[1, 1]], 2)
        assert out["D"] == BoolMat.from_rows([[0], [1]], 1)

    def test_parse_assignment_zero_width(self, hopf_sig):
        # an empty body is the m x 0 or 0 x n matrix the symbol's shape asks for
        text = "map m = 1 1\nmap eta =\nmap D = 1 ; 1\nmap eps =\nmap S = 1"
        out = parse_assignment(text, hopf_sig, NAT_MATRIX)
        assert (out["eta"], out["eps"]) == (Mat(1, 0, ((),)), Mat(0, 1, ()))
        out = parse_assignment(text, hopf_sig, BOOL_MATRIX)
        assert (out["eta"], out["eps"]) == (BoolMat(1, 0, (0,)), BoolMat(0, 1, ()))


class TestEvaluate:
    @pytest.mark.parametrize("name", sorted(TARGETS))
    def test_matches_reference(self, rng, hopf_sig, name, monkeypatch):
        # evaluate composes with phi of a frontier permutation only when
        # it is no identity; the reference composes with every one
        target = get_target(name)
        real_phi = target.phi
        perms = []

        def recording_phi(p):
            perms.append(p)
            return real_phi(p)

        monkeypatch.setattr(target, "phi", recording_phi)
        skipped = permuted = 0
        for _ in range(60):
            net = random_network(rng, list(hopf_sig), max_inner=6, max_strays=2)
            assign = {sym.name: RANDOM_ELEMENT[name](rng, sym.coarity, sym.arity) for sym in hopf_sig}
            perms.clear()
            got = evaluate(net, target, assign)
            ours = len(perms)
            permuted += any(p != same(p.n) for p in perms)
            perms.clear()
            assert got == reference_evaluate(net, target, assign)
            skipped += ours < len(perms)
        assert skipped > 40 and permuted > 40
