"""Permutations, boolean matrices, signature parsing, the union-find."""

import itertools

import re

import pytest

from netrw.core import (
    BoolMat,
    Perm,
    Signature,
    SignatureError,
    Symbol,
    UnionFind,
    bm_blocks,
    bm_stack,
    cross,
    parse_signature,
    same,
)

from netrw.network import _components

from conftest import random_network, random_perm


def rand_bm(rng, rows, cols, density=0.4):
    return BoolMat.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    )


class TestPerm:
    def test_cross_involution(self):
        assert cross(1, 1).compose(cross(1, 1)) == same(2)

    def test_star_blocks(self):
        assert same(2).star(cross(1, 1)).images == (1, 2, 4, 3)

    def test_cross_case_split(self):
        # the displayed case formula: i <= k maps to i+m, else i-k
        assert cross(2, 1).images == (2, 3, 1)

    def test_cross_formula_all_small(self):
        for k in range(6):
            for m in range(6):
                p = cross(k, m)
                for i in range(1, k + m + 1):
                    assert p(i) == (i + m if i <= k else i - k)

    def test_star_composes_blockwise(self, rng):
        for _ in range(50):
            s1, s2 = random_perm(rng, 3), random_perm(rng, 3)
            t1, t2 = random_perm(rng, 2), random_perm(rng, 2)
            assert s1.star(t1).compose(s2.star(t2)) == s1.compose(s2).star(t1.compose(t2))

    def test_inverse(self, rng):
        for _ in range(30):
            p = random_perm(rng, 5)
            assert p.compose(p.inverse()) == same(5)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            same(2).compose(same(3))


class TestBoolMat:
    def test_results_pass_the_checks(self, rng):
        # results of the operations are built without the constructor's
        # checks; each must equal its checked reconstruction
        def rand(rows, cols):
            return BoolMat(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))

        for _ in range(200):
            r, c, k = (rng.randint(0, 5) for _ in range(3))
            a, b, sq, other = rand(r, c), rand(r, c), rand(r, r), rand(c, k)
            i, j = rng.randint(0, r), rng.randint(0, c)
            blocks = bm_blocks(a, i, j)
            results = [
                a.add(b),
                a.mul(other),
                a.tensor(other),
                a.submatrix(range(i, r), range(j, c)),
                sq.star(),
                sq.plus(),
                bm_stack(*blocks),
                *blocks,
            ]
            for res in results:
                assert type(res.bits) is tuple
                assert BoolMat(res.rows, res.cols, res.bits) == res

    def test_identity_product(self, rng):
        a = rand_bm(rng, 4, 4)
        assert BoolMat.eye(4).mul(a) == a

    def test_hand_product(self):
        a = BoolMat.from_rows([[0, 1], [0, 0]])
        b = BoolMat.from_rows([[0, 0], [1, 0]])
        assert a.mul(b) == BoolMat.from_rows([[1, 0], [0, 0]])

    def test_idempotent_addition(self, rng):
        a = rand_bm(rng, 3, 5)
        assert a.add(a) == a

    def test_star_basic(self):
        assert BoolMat.from_rows([[0, 1], [0, 0]]).star() == BoolMat.from_rows(
            [[1, 1], [0, 1]]
        )
        for n in range(4):
            assert BoolMat.zeros(n, n).star() == BoolMat.eye(n)

    def test_nilpotent_triangular(self):
        n = 5
        a = BoolMat.from_rows(
            [[1 if j > i else 0 for j in range(n)] for i in range(n)]
        )
        assert a.is_nilpotent()
        assert not BoolMat.eye(3).is_nilpotent()

    def test_girth_matrix_not_nilpotent(self):
        # q_n = phi(shift) + phi(same n) has a full cycle plus the diagonal
        for n in (2, 3, 4):
            shift = Perm(tuple(list(range(2, n + 1)) + [1]))
            q = BoolMat.from_perm(shift).add(BoolMat.eye(n))
            assert not q.is_nilpotent()

    def test_three_way_nilpotence_exhaustive(self):
        # A^n = 0  <=>  nilpotent  <=>  diag(A+) = 0, all matrices n <= 3
        for n in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=n * n):
                a = BoolMat.from_rows(
                    [list(bits[i * n : (i + 1) * n]) for i in range(n)]
                )
                power = a
                for _ in range(n - 1):
                    power = power.mul(a)
                via_power = power.is_zero()
                plus = a.plus()
                via_diag = all(plus.get(i, i) == 0 for i in range(n))
                assert via_power == a.is_nilpotent() == via_diag

    def test_three_way_nilpotence_random(self, rng):
        for _ in range(300):
            n = rng.randint(1, 8)
            a = rand_bm(rng, n, n, density=0.25)
            power = a
            for _ in range(n - 1):
                power = power.mul(a)
            assert power.is_zero() == a.is_nilpotent()

    def test_nilpotence_matches_plus_diagonal(self, rng):
        # the peeling test against the diagonal of A+, for n <= 12: sparse
        # to dense matrices, acyclic ones under a shuffled vertex order, and
        # those with one back arc that closes a cycle through every vertex
        random_nilpotent = 0
        for trial in range(600):
            n = rng.randint(1, 12)
            kind = ("random", "acyclic", "long cycle")[trial % 3]
            if kind == "random":
                a = rand_bm(rng, n, n, density=rng.choice((0.05, 0.15, 0.3, 0.6, 0.95)))
            else:
                order = rng.sample(range(n), n)
                rows = [[0] * n for _ in range(n)]
                for i, j in itertools.combinations(range(n), 2):
                    if j == i + 1 or rng.random() < 0.2:
                        rows[order[i]][order[j]] = 1
                if kind == "long cycle":
                    rows[order[-1]][order[0]] = 1
                a = BoolMat.from_rows(rows)
            plus = a.plus()
            via_diag = all(plus.get(i, i) == 0 for i in range(n))
            assert a.is_nilpotent() == via_diag
            if kind == "random":
                random_nilpotent += via_diag
            else:
                assert via_diag == (kind == "acyclic")
        assert 20 < random_nilpotent < 180

    def test_ab_ba_nilpotence(self, rng):
        for _ in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a, b = rand_bm(rng, m, n), rand_bm(rng, n, m)
            assert a.mul(b).is_nilpotent() == b.mul(a).is_nilpotent()

    def test_semiring_star_identity(self, rng):
        # (A+B)* = (A*B)*A* = A*(BA*)* for A, B below a nilpotent pattern
        for _ in range(200):
            n = rng.randint(1, 5)
            a = BoolMat.from_rows(
                [
                    [1 if j > i and rng.random() < 0.5 else 0 for j in range(n)]
                    for i in range(n)
                ]
            )
            b = BoolMat.from_rows(
                [
                    [1 if j > i and rng.random() < 0.5 else 0 for j in range(n)]
                    for i in range(n)
                ]
            )
            lhs = a.add(b).star()
            assert lhs == a.star().mul(b).star().mul(a.star())
            assert lhs == a.star().mul(b.mul(a.star()).star())

    def test_block_nilpotence_conditions(self, rng):
        # the five conditions agree on random block matrices
        for _ in range(200):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_bm(rng, n, n, 0.25)
            b = rand_bm(rng, n, m, 0.3)
            c = rand_bm(rng, m, n, 0.3)
            d = rand_bm(rng, m, m, 0.25)
            whole = bm_stack(a, b, c, d)
            c1 = whole.is_nilpotent()
            c2 = (
                a.is_nilpotent()
                and d.is_nilpotent()
                and a.star().mul(b).mul(d.star()).mul(c).is_nilpotent()
            )
            c3 = (
                a.is_nilpotent()
                and d.is_nilpotent()
                and d.star().mul(c).mul(a.star()).mul(b).is_nilpotent()
            )
            c4 = a.is_nilpotent() and d.add(c.mul(a.star()).mul(b)).is_nilpotent()
            c5 = d.is_nilpotent() and a.add(b.mul(d.star()).mul(c)).is_nilpotent()
            assert c1 == c2 == c3 == c4 == c5

    def test_block_star_formula(self, rng):
        # block star of a nilpotent matrix equals the four-block formula,
        # checked against the iterated-closure oracle
        for _ in range(120):
            a11 = BoolMat.from_rows(
                [[1 if j > i and rng.random() < 0.4 else 0 for j in range(2)] for i in range(2)]
            )
            a22 = BoolMat.from_rows(
                [[1 if j > i and rng.random() < 0.4 else 0 for j in range(2)] for i in range(2)]
            )
            a12 = rand_bm(rng, 2, 2, 0.4)
            a21 = BoolMat.zeros(2, 2)
            whole = bm_stack(a11, a12, a21, a22)
            if not whole.is_nilpotent():
                continue
            star = whole.star()
            s11 = a11.star().mul(a12).mul(a22.star()).mul(a21).star().mul(a11.star())
            s12 = (
                a11.star()
                .mul(a12)
                .mul(a22.star().mul(a21).mul(a11.star()).mul(a12).star())
                .mul(a22.star())
            )
            s21 = (
                a22.star()
                .mul(a21)
                .mul(a11.star().mul(a12).mul(a22.star()).mul(a21).star())
                .mul(a11.star())
            )
            s22 = a22.star().mul(a21).mul(a11.star()).mul(a12).star().mul(a22.star())
            assert star == bm_stack(s11, s12, s21, s22)

    def test_zero_sided_matrices(self):
        z = BoolMat.zeros(0, 3)
        assert z.mul(BoolMat.zeros(3, 2)) == BoolMat.zeros(0, 2)
        assert BoolMat.zeros(0, 0).is_nilpotent()

    def test_submatrix_entries(self, rng):
        for _ in range(200):
            a = rand_bm(rng, rng.randint(0, 5), rng.randint(0, 5))
            r0, c0 = rng.randint(0, a.rows), rng.randint(0, a.cols)
            rows, cols = range(r0, rng.randint(r0, a.rows)), range(c0, rng.randint(c0, a.cols))
            sub = a.submatrix(rows, cols)
            assert sub.to_rows() == [[a.get(i, j) for j in cols] for i in rows]
        with pytest.raises(ValueError):
            a.submatrix(range(a.rows), range(0, a.cols, 2))

    def test_blocks_roundtrip(self, rng):
        a = rand_bm(rng, 5, 4)
        blocks = bm_blocks(a, 2, 3)
        assert bm_stack(*blocks) == a


ZEROS = BoolMat.zeros
# each library argument check that no other test reaches, with its message
ARGUMENT_CHECKS = [
    (lambda: Perm((1, 1)), "not a permutation of 1..2: (1, 1)"),
    (lambda: BoolMat(-1, 0, ()), "negative matrix dimensions"),
    (lambda: BoolMat(2, 2, (0,)), "row count does not match bits"),
    (lambda: BoolMat(1, 2, (4,)), "bits outside matrix columns"),
    (lambda: BoolMat.from_rows([[1, 0], [1]]), "ragged rows"),
    (lambda: ZEROS(1, 2).add(ZEROS(2, 1)), "shape mismatch in boolean matrix addition"),
    (lambda: ZEROS(1, 2).mul(ZEROS(1, 2)), "shape mismatch in boolean matrix product"),
    (lambda: ZEROS(1, 2).leq(ZEROS(2, 1)), "shape mismatch in boolean matrix comparison"),
    (lambda: ZEROS(1, 2).star(), "Kleene star of a non-square matrix"),
    (lambda: ZEROS(1, 2).plus(), "Kleene plus of a non-square matrix"),
    (lambda: ZEROS(1, 2).is_nilpotent(), "nilpotence of a non-square matrix"),
    (
        lambda: bm_stack(ZEROS(1, 1), ZEROS(2, 1), ZEROS(1, 1), ZEROS(1, 1)),
        "row mismatch in block assembly",
    ),
    (
        lambda: bm_stack(ZEROS(1, 1), ZEROS(1, 1), ZEROS(1, 2), ZEROS(1, 1)),
        "column mismatch in block assembly",
    ),
]


@pytest.mark.parametrize("call, message", ARGUMENT_CHECKS, ids=[m for _, m in ARGUMENT_CHECKS])
def test_argument_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestSignature:
    def test_parse(self):
        sig = parse_signature("# ops\ngen m 1 2\n\ngen eta 1 0\n")
        assert sig["m"].arity == 2 and sig["eta"].coarity == 1
        assert "m" in sig and "x" not in sig

    def test_unknown_lookup(self):
        with pytest.raises(SignatureError):
            parse_signature("gen m 1 2")["q"]

    def test_duplicate(self):
        with pytest.raises(SignatureError, match=r"^line 2: duplicate symbol 'm'$"):
            parse_signature("gen m 1 2\ngen m 2 1")

    def test_negative_arity_names_its_line(self):
        with pytest.raises(SignatureError, match=r"^line 3: negative arity for symbol 'S'$"):
            parse_signature("gen m 1 2\n# the antipode\ngen S 1 -1")

    def test_reserved_neutral(self):
        with pytest.raises(SignatureError):
            Signature([Symbol("~", 1, 1)])

    @pytest.mark.parametrize("name", ["m^", "1", "x_y", "~", "2m"])
    def test_name_no_term_can_write(self, name):
        # the term scanner reads a name as a letter, then letters and digits
        with pytest.raises(SignatureError, match=rf"^line 1: symbol name '{re.escape(name)}' is not a letter"):
            parse_signature(f"gen {name} 1 1")

    def test_names_a_term_can_write(self):
        sig = parse_signature("gen m2 1 2\ngen Delta 1 1\ngen d 1 1\ngen delta 1 1")
        assert [s.name for s in sig] == ["m2", "Delta", "d", "delta"]

    def test_empty_name(self):
        with pytest.raises(SignatureError):
            Symbol("", 1, 1)


class TestUnionFind:
    def test_copy_is_independent(self):
        uf = UnionFind(range(6))
        uf.union(0, 1)
        twin = UnionFind()
        twin.parent = dict(uf.parent)
        uf.union(1, 2)
        twin.union(3, 4)
        assert uf.classes() == [[0, 1, 2], [3], [4], [5]]
        assert twin.classes() == [[0, 1], [2], [3, 4], [5]]
        assert uf.find(2) == uf.find(0) and twin.find(2) != twin.find(0)
        assert twin.find(3) == twin.find(4) and uf.find(3) != uf.find(4)

    def test_classes_partition_by_root(self, rng):
        for _ in range(200):
            n = rng.randint(1, 12)
            uf = UnionFind(range(n))
            for _ in range(rng.randint(0, n)):
                uf.union(rng.randrange(n), rng.randrange(n))
            classes = uf.classes()
            roots = [uf.find(c[0]) for c in classes]
            assert len(set(roots)) == len(classes)
            for root, members in zip(roots, classes):
                assert all(uf.find(x) == root for x in members)
            assert sorted(x for c in classes for x in c) == list(range(n))

    def test_classes_in_universe_order(self, rng):
        """Classes come by their first member in the universe's order, and
        list their members in that order, whatever order the unions ran."""
        for _ in range(200):
            n = rng.randint(1, 12)
            universe = rng.sample(range(100), n)
            uf = UnionFind(universe)
            for _ in range(rng.randint(0, n)):
                uf.union(rng.choice(universe), rng.choice(universe))
            classes = uf.classes()
            rank = {x: i for i, x in enumerate(universe)}
            assert [rank[c[0]] for c in classes] == sorted(rank[c[0]] for c in classes)
            for members in classes:
                assert [rank[x] for x in members] == sorted(rank[x] for x in members)

    def test_components_match_networkx(self, rng, hopf_sig):
        nx = pytest.importorskip("networkx")
        several = with_strays = 0
        for _ in range(300):
            net = random_network(rng, list(hopf_sig), max_inner=6, max_strays=2)
            graph = nx.Graph()
            graph.add_nodes_from(net.inner_vertices())
            graph.add_edges_from(
                (ends.head, ends.tail)
                for ends in net.edges.values()
                if ends.head != 0 and ends.tail != 1
            )
            want = sorted(map(sorted, nx.connected_components(graph)))
            strays = sorted(
                e for e, ends in net.edges.items() if ends.head == 0 and ends.tail == 1
            )
            assert _components(net) == (want, strays)
            several += len(want) > 1
            with_strays += bool(strays)
        assert several > 50 and with_strays > 50
