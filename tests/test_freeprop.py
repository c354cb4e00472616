"""Free PROP classes, symmetric join, annexation, feedback, and linear
combinations."""

from collections import Counter
from fractions import Fraction

import pytest

from netrw.core import BoolMat, Perm, cross, same
from netrw.network import perm_network
from netrw.freeprop import (
    JoinUndefinedError,
    _join_network,
    LinComb,
    NetClass,
    annex,
    class_of,
    compose,
    free_feedback,
    generator,
    identity,
    join_transference,
    join_condition,
    ShapeError,
    lc_annex,
    lc_sym_join,
    phi,
    sym_join,
    tensor,
)

from conftest import (
    NEUTRAL,
    FreePropTarget,
    act_class,
    check_prop_axioms,
    class_pool,
    computed,
    exact_shape_class,
    random_class,
    random_network,
    random_perm,
    random_relabel,
    reference_compose,
    reference_join_network,
    reference_sym_join,
    reference_tensor,
)


class TestClassOf:
    def test_relabel_same_class(self, rng, sig2):
        for _ in range(200):
            net = random_network(rng, list(sig2))
            assert class_of(net) == class_of(random_relabel(rng, net))

    def test_identity_transference(self):
        assert identity(2).tr == BoolMat.eye(2)

    def test_distinct_assoc_trees(self, sig2):
        m = generator(sig2["m"])
        assert compose(m, tensor(identity(1), m)) != compose(m, tensor(m, identity(1)))


class TestPropOperations:
    def test_phi_homomorphism(self, rng):
        for _ in range(100):
            n = rng.randint(0, 4)
            s, t = random_perm(rng, n), random_perm(rng, n)
            assert compose(phi(s), phi(t)) == phi(s.compose(t))

    def test_tensor_unit(self, rng, sig2):
        a = random_class(rng, list(sig2))
        assert tensor(a, identity(0)) == a
        assert tensor(identity(0), a) == a

    def test_transference_multiplicative(self, rng, sig2):
        pool = class_pool(rng, list(sig2), 300)
        cases = 0
        for (m, n), items in pool.items():
            for other_shape, others in pool.items():
                if other_shape[0] != n:
                    continue
                for a in items[:4]:
                    for b in others[:4]:
                        assert compose(a, b).tr == a.tr.mul(b.tr)
                        cases += 1
        assert cases >= 100

    def test_matches_reference_gluings(self, rng, hopf_sig):
        """compose and tensor are symmetric joins; they give the classes of
        the hand-built gluings, on pairs with strays and empty networks."""
        pool = [random_class(rng, list(hopf_sig), max_inner=4, max_strays=2) for _ in range(400)]
        pool += [identity(0), identity(1), identity(2)]
        by_coarity: dict[int, list] = {}
        for c in pool:
            by_coarity.setdefault(c.coarity, []).append(c)

        def has_stray(c):
            return any(ends.head == 0 and ends.tail == 1 for ends in c.rep.edges.values())

        composed = tensored = with_stray = with_empty = 0
        for a in pool:
            b = rng.choice(pool)
            assert tensor(a, b) == reference_tensor(a, b)
            tensored += 1
            for b in rng.sample(by_coarity[a.arity], min(2, len(by_coarity[a.arity]))):
                assert compose(a, b) == reference_compose(a, b)
                composed += 1
                with_stray += has_stray(a) or has_stray(b)
                with_empty += not a.rep.deco or not b.rep.deco
        assert tensored >= 300 and composed >= 300
        assert with_stray >= 100 and with_empty >= 30

    def test_empty_interface_reads_no_transference(self, rng, hopf_sig):
        # a cycle through the joined ports needs ports joined both ways, so
        # compose and tensor traverse neither deferred operand for its type
        composed = 0
        for _ in range(200):
            nets = [random_network(rng, list(hopf_sig), max_inner=4, max_strays=2) for _ in range(2)]
            a, b = (NetClass(net) for net in nets)
            assert tensor(a, b) == reference_tensor(*map(class_of, nets))
            if a.arity == b.coarity:
                assert compose(a, b) == reference_compose(*map(class_of, nets))
                composed += 1
            assert not computed(a, "tr") and not computed(b, "tr")
        assert composed >= 20
        wire = NetClass(perm_network(same(1)))
        with pytest.raises(JoinUndefinedError):
            sym_join(wire, 1, 1, wire)

    def test_compose_shape_error(self, hopf_sig):
        # a join^0_1 eta is defined, with shape (1, 1): compose refuses it
        m, eta = generator(hopf_sig["m"]), generator(hopf_sig["eta"])
        with pytest.raises(ShapeError, match=r"^compose: arity 2 != coarity 1$"):
            compose(m, eta)
        with pytest.raises(ShapeError, match=r"^compose: arity 0 != coarity 1$"):
            compose(eta, m)

    def test_prop_axioms_netclass(self, rng, hopf_sig):
        check_prop_axioms(
            FreePropTarget(),
            lambda r, m, n: exact_shape_class(r, hopf_sig, m, n),
            rng,
            cases=70,
        )


class TestSymJoin:
    def test_tensor_special_case(self, rng, sig2):
        for _ in range(50):
            a = random_class(rng, list(sig2), max_inner=3)
            b = random_class(rng, list(sig2), max_inner=3)
            assert sym_join(a, 0, 0, b) == reference_tensor(a, b)

    def test_cross_identities(self, rng, sig2):
        for _ in range(50):
            a = random_class(rng, list(sig2), max_inner=3)
            m = rng.randint(0, a.coarity)
            n = rng.randint(0, a.arity)
            assert sym_join(a, m, n, phi(cross(m, n))) == a
            l, k = a.arity, a.coarity
            assert sym_join(phi(cross(l, k)), l, k, a) == a

    def test_compose_special_cases(self, rng, sig2):
        pool = class_pool(rng, list(sig2), 200)
        cases = 0
        for (m, n), items in pool.items():
            for (m2, n2), others in pool.items():
                if m2 != n:
                    continue
                for a in items[:3]:
                    for b in others[:3]:
                        assert sym_join(a, 0, n, b) == reference_compose(a, b)
                        assert sym_join(b, n, 0, a) == reference_compose(a, b)
                        cases += 1
        assert cases >= 60

    def test_one_cycle_undefined(self):
        with pytest.raises(JoinUndefinedError):
            sym_join(phi(same(1)), 1, 1, phi(same(1)))

    @pytest.mark.parametrize("r, q", [(-1, 0), (0, -1)])
    def test_negative_ports_rejected(self, r, q):
        with pytest.raises(ShapeError):
            sym_join(phi(same(1)), r, q, phi(same(1)))

    def test_join_transference_formula(self, rng, sig2):
        cases = 0
        while cases < 1000:
            a = random_class(rng, list(sig2), max_inner=3)
            b = random_class(rng, list(sig2), max_inner=3)
            r = rng.randint(0, min(a.coarity, b.arity))
            q = rng.randint(0, min(a.arity, b.coarity))
            cond = join_condition(a.tr, b.tr, r, q)
            if not cond.is_nilpotent():
                continue
            joined = sym_join(a, r, q, b)
            assert joined.tr == join_transference(a.tr, b.tr, r, q)
            cases += 1

    def test_join_associativity(self, rng, sig2):
        cases = 0
        while cases < 300:
            g = random_class(rng, list(sig2), max_inner=2)
            h = random_class(rng, list(sig2), max_inner=2)
            k = random_class(rng, list(sig2), max_inner=2)
            p = rng.randint(0, min(g.coarity, h.arity))
            q = rng.randint(0, min(g.arity, h.coarity))
            r = rng.randint(0, min(h.coarity - q, k.arity))
            s = rng.randint(0, min(h.arity - p, k.coarity))
            try:
                left = sym_join(sym_join(g, p, q, h), r, s, k)
                right = sym_join(g, p, q, sym_join(h, r, s, k))
            except JoinUndefinedError:
                continue
            assert left == right
            cases += 1

    def test_transposition(self, rng, sig2):
        cases = 0
        while cases < 300:
            kc = random_class(rng, list(sig2), max_inner=2)
            hc = random_class(rng, list(sig2), max_inner=2)
            r = rng.randint(0, min(kc.coarity, hc.arity))
            q = rng.randint(0, min(kc.arity, hc.coarity))
            k_, l_ = kc.coarity - r, kc.arity - q
            m_, n_ = hc.coarity - q, hc.arity - r
            cond = join_condition(kc.tr, hc.tr, r, q)
            if not cond.is_nilpotent():
                continue
            lhs = act_class(cross(k_, m_), sym_join(kc, r, q, hc), cross(n_, l_))
            rhs = sym_join(
                act_class(cross(q, m_), hc, cross(n_, r)),
                q,
                r,
                act_class(cross(k_, r), kc, cross(q, l_)),
            )
            assert lhs == rhs
            cases += 1


def neutral_run(net) -> int:
    """The most neutral vertices that one chain of edges passes through,
    from an edge with a real tail to its real head."""
    longest = 0
    for ends in net.edges.values():
        if ends.tail == 1 or net.deco.get(ends.tail) != NEUTRAL:
            run = 0
            while net.deco.get(ends.head) == NEUTRAL:
                run += 1
                ends = net.edges[net.out_edge(ends.head, 1)]
            longest = max(longest, run)
    return longest


class TestJoinOracle:
    """The one-pass join, which follows each chain of joined ports to its
    real head, against neutral join vertices smoothened away
    (``conftest.reference_sym_join``)."""

    def test_every_valid_r_q(self, rng, sig2):
        # operands with up to three strays each, so that chains pass
        # through joined ports more than once
        runs = Counter()
        for _ in range(150):
            a = random_class(rng, list(sig2), max_inner=3, max_strays=3)
            b = random_class(rng, list(sig2), max_inner=3, max_strays=3)
            for r in range(min(a.coarity, b.arity) + 1):
                for q in range(min(a.arity, b.coarity) + 1):
                    if not join_condition(a.tr, b.tr, r, q).is_nilpotent():
                        with pytest.raises(JoinUndefinedError):
                            sym_join(a, r, q, b)
                        continue
                    net = _join_network(a.net, b.net, r, q)
                    assert NEUTRAL not in net.deco.values()
                    assert len(net.deco) == len(a.net.deco) + len(b.net.deco)
                    joined = sym_join(a, r, q, b)
                    assert NEUTRAL not in joined.net.deco.values()
                    assert joined == reference_sym_join(a, r, q, b)
                    # the transference is traversed on its first read
                    assert not computed(joined, "tr")
                    assert joined.tr == join_transference(a.tr, b.tr, r, q)
                    runs[min(neutral_run(reference_join_network(a.net, b.net, r, q)), 3)] += 1
        assert sum(runs.values()) >= 1000 and runs[2] >= 50 and runs[3] >= 20, runs

    def test_operations_match_reference(self, rng, sig2):
        pool = class_pool(rng, list(sig2), 150, max_strays=2)
        flat = [a for items in pool.values() for a in items[:6]]
        counts = Counter()
        for a in flat:
            for b in rng.sample(flat, 8):
                assert tensor(a, b) == reference_sym_join(a, 0, 0, b)
                counts["tensor"] += 1
            for b in pool.get((a.arity, rng.randint(0, 3)), [])[:4]:
                assert compose(a, b) == reference_sym_join(a, 0, a.arity, b)
                counts["compose"] += 1
            for n in range(min(a.coarity, a.arity) + 1):
                wires = phi(same(n))
                if join_condition(a.tr, wires.tr, n, n).is_nilpotent():
                    assert free_feedback(a, n) == reference_sym_join(a, n, n, wires)
                    counts["free_feedback"] += 1
        assert min(counts.values()) >= 100, counts


class TestFreeFeedback:
    def test_yanking(self):
        for n in range(4):
            assert free_feedback(phi(cross(n, n)), n) == phi(same(n))

    def test_vanishing(self, rng, sig2):
        a = random_class(rng, list(sig2))
        assert free_feedback(a, 0) == a

    def test_identity_not_feedbackable(self):
        for n in (1, 2):
            with pytest.raises(JoinUndefinedError):
                free_feedback(phi(same(n)), n)


class TestLinComb:
    def test_cancellation(self, rng, sig2):
        x = LinComb.monomial(random_class(rng, list(sig2)))
        assert (x + (-x)).is_zero()

    def test_distributivity(self, rng, sig2):
        pool = class_pool(rng, list(sig2), 40)
        shape, items = max(pool.items(), key=lambda kv: len(kv[1]))
        a, b = items[0], items[-1]
        x = LinComb.monomial(a) + LinComb.monomial(b)
        assert x.scale(2) == LinComb.monomial(a, 2) + LinComb.monomial(b, 2)

    def test_exact_rationals(self, rng, sig2):
        a = LinComb.monomial(random_class(rng, list(sig2)))
        assert a.scale(3).scale(Fraction(1, 3)) == a

    def test_bilinear_join_partiality(self):
        wire = LinComb.monomial(phi(same(1)))
        with pytest.raises(JoinUndefinedError):
            lc_sym_join(wire, 1, 1, wire)

    def test_annex_bilinear(self, rng, sig2):
        m = generator(sig2["m"])
        k = phi(cross(2, 1))
        combo = LinComb.monomial(m, 2) + LinComb.monomial(m, Fraction(1, 2))
        assert lc_annex(k, combo) == LinComb.monomial(annex(k, m), Fraction(5, 2))


    def test_shape_checks(self, sig2):
        m, wire = generator(sig2["m"]), phi(same(1))
        with pytest.raises(ShapeError) as exc:
            LinComb(1, 2, {wire: 1})
        assert str(exc.value) == "term shape differs from combination shape"
        with pytest.raises(ShapeError) as exc:
            LinComb.monomial(m) + LinComb.monomial(wire)
        assert str(exc.value) == "shape mismatch in linear combination arithmetic"

    def test_unknown_attribute(self, sig2):
        # only a deferred field is computed on first read
        with pytest.raises(AttributeError) as exc:
            generator(sig2["m"]).nonexistent
        assert str(exc.value) == "nonexistent"

class TestAnnex:
    def test_annex_unit(self, rng, sig2):
        a = random_class(rng, list(sig2))
        assert annex(a, phi(same(0))) == a

    def test_cross_annex_identity(self, rng, sig2):
        for _ in range(30):
            a = random_class(rng, list(sig2), max_inner=3)
            l, k = a.arity, a.coarity
            assert annex(phi(cross(l, k)), a) == a

    def test_annex_matches_compose_construction(self, rng, sig2):
        # (c (x) d . phi(cross)) |x b  ==  c . b . d
        pool = class_pool(rng, list(sig2), 300)
        cases = 0
        for (cm, cn), citems in pool.items():
            for (bm, bn), bitems in pool.items():
                if bm != cn:
                    continue
                for (dm, dn), ditems in pool.items():
                    if dm != bn:
                        continue
                    for c in citems[:2]:
                        for b in bitems[:2]:
                            for d in ditems[:2]:
                                k = reference_compose(
                                    reference_tensor(c, d), phi(cross(dn, cn))
                                )
                                assert annex(k, b) == reference_compose(
                                    reference_compose(c, b), d
                                )
                                cases += 1
        assert cases >= 30
