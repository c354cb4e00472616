"""Network validation, transference, evaluation, decomposition,
actions, smoothening, and canonical codes."""

import itertools

import pytest

from netrw.ambiguity import _decisive_sites
from netrw.core import BoolMat, Perm, Symbol, cross, same
from netrw.network import (
    Edge,
    InvalidNetworkError,
    Network,
    TargetError,
    Violation,
    _components,
    act,
    canonical_code,
    check,
    evaluate,
    from_code,
    generator_network,
    perm_network,
    smoothen,
    transference,
    validate,
)
from netrw.props import BOOL_MATRIX, NAT_MATRIX, Mat

from conftest import (
    NEUTRAL,
    all_cuts,
    all_ones_assignment,
    corpus_rule_pairs,
    cut,
    is_homeomorphism,
    obvious_ordering,
    random_network,
    random_perm,
    random_relabel,
    relabel,
    smoothing_homeomorphism,
    split,
)


def nat_assign(rng, sig_symbols, top=4):
    images = {}
    for sym in sig_symbols:
        images[sym.name] = Mat.from_rows(
            [[rng.randrange(top) for _ in range(sym.arity)] for _ in range(sym.coarity)]
        )
    images[NEUTRAL.name] = NAT_MATRIX.identity(1)
    return images


class TestValidate:
    def test_single_wire(self):
        net = validate({0: Edge(0, 1, 1, 1)}, {})
        assert (net.coarity, net.arity) == (1, 1)

    def test_head_cannot_be_input_vertex(self):
        violations = check({0: Edge(1, 1, 1, 1)}, {})
        assert violations and violations[0].kind == "BadVertex"

    @pytest.mark.parametrize("v", [1, 0, -3])
    def test_decorated_id_below_2(self, v):
        s = Symbol("s", 1, 1)
        edges = {0: Edge(v, 1, 1, 1), 1: Edge(0, 1, v, 1)}
        assert check(edges, {v: s}) == [Violation("BadVertex", ("decorated", v))]
        assert check({0: Edge(2, 1, 1, 1), 1: Edge(0, 1, 2, 1)}, {2: s}) == []

    def test_arity_mismatch(self):
        m = Symbol("m", 1, 2)
        edges = {
            0: Edge(2, 1, 1, 1),
            1: Edge(2, 2, 1, 2),
            2: Edge(2, 3, 1, 3),
            3: Edge(0, 1, 2, 1),
        }
        violations = check(edges, {2: m})
        assert any(v.kind == "ArityMismatch" for v in violations)

    def test_cycle_found(self):
        s = Symbol("s", 1, 1)
        edges = {0: Edge(2, 1, 3, 1), 1: Edge(3, 1, 2, 1)}
        violations = check(edges, {2: s, 3: s})
        assert any(v.kind == "CycleFound" for v in violations)

    def test_cycle_witness(self):
        # witnesses recorded before the acyclicity test shared its order
        # with transference and evaluate: the edges among the vertices on
        # or above the cycle; the vertex below it is not one of them
        s, t, d = Symbol("s", 1, 1), Symbol("t", 1, 2), Symbol("d", 2, 1)
        edges = {0: Edge(4, 1, 1, 1), 1: Edge(2, 1, 4, 1), 2: Edge(3, 1, 2, 1), 3: Edge(2, 2, 3, 1)}
        assert check(edges, {2: t, 3: s, 4: s}) == [
            Violation("CycleFound", (2, 3))
        ]
        # a vertex above the cycle: vertex 3 becomes d and also feeds 5
        edges[4] = Edge(5, 1, 3, 2)
        edges[5] = Edge(0, 1, 5, 1)
        assert check(edges, {2: t, 3: d, 4: s, 5: s}) == [
            Violation("CycleFound", (2, 3, 4))
        ]

    def test_duplicate_port(self):
        edges = {0: Edge(0, 1, 1, 1), 1: Edge(0, 1, 1, 2)}
        violations = check(edges, {})
        assert any(v.kind == "DuplicatePort" for v in violations)

    def test_gap_in_indices(self):
        edges = {0: Edge(0, 2, 1, 1)}
        violations = check(edges, {})
        assert any(v.kind == "GapInIndices" for v in violations)


def assert_ports_scanned(net: Network) -> None:
    """Every port read agrees with a scan of ``net.edges`` sorted by port
    index, and the vertices and leg counts with the edges and decorations."""
    assert net.vertices == {0, 1} | net.deco.keys()
    assert not check(net.edges, net.deco)
    for v in net.vertices:
        ins = [e for _, e in sorted((x.hindex, e) for e, x in net.edges.items() if x.head == v)]
        outs = [e for _, e in sorted((x.tindex, e) for e, x in net.edges.items() if x.tail == v)]
        assert net.in_edges(v) == ins and net.out_edges(v) == outs
        assert [net.in_edge(v, i) for i in range(1, len(ins) + 1)] == ins
        assert [net.out_edge(v, j) for j in range(1, len(outs) + 1)] == outs
    assert net.coarity == sum(x.head == 0 for x in net.edges.values())
    assert net.arity == sum(x.tail == 1 for x in net.edges.values())


class TestPorts:
    """A network stores each vertex's ports once, in index order."""

    def test_corpus_rule_sides(self):
        rules = {id(rule): rule for pair in corpus_rule_pairs() for rule in pair}.values()
        for rule in rules:
            for cls in (rule.lhs, *(t for t, _ in rule.summands)):
                assert_ports_scanned(cls.net)
                assert_ports_scanned(cls.rep)

    def test_corpus_ambiguity_sites(self):
        sites = [site for s1, s2 in corpus_rule_pairs() for site, *_ in _decisive_sites(s1, s2)]
        assert len(sites) == 111
        for site in sites:
            assert_ports_scanned(site)

    def test_random_hopf_networks(self, rng, hopf_sig):
        strays = several = 0
        for _ in range(200):
            net = random_network(rng, list(hopf_sig), max_inner=8, max_strays=3, min_inner=2)
            comps, stray_edges = _components(net)
            strays += bool(stray_edges)
            several += len(comps) > 1
            assert_ports_scanned(net)
            assert_ports_scanned(from_code(canonical_code(net)))
        assert strays > 50 and several > 50


class TestTransference:
    def test_cross_permutation_matrix(self):
        net = perm_network(cross(1, 1))
        assert transference(net) == BoolMat.from_rows([[0, 1], [1, 0]])

    def test_generator_all_ones(self):
        g = Symbol("g", 2, 3)
        assert transference(generator_network(g)) == BoolMat.ones(2, 3)

    def test_bridge_zero(self):
        eta, eps = Symbol("eta", 1, 0), Symbol("eps", 0, 1)
        edges = {0: Edge(0, 1, 2, 1), 1: Edge(3, 1, 1, 1)}
        net = validate(edges, {2: eta, 3: eps})
        assert transference(net) == BoolMat.zeros(1, 1)

    def test_matches_networkx_reachability(self, rng, hopf_sig):
        nx = pytest.importorskip("networkx")
        with_strays = several = 0
        for _ in range(300):
            net = random_network(rng, list(hopf_sig), max_inner=6, max_strays=2)
            graph = nx.DiGraph()
            graph.add_nodes_from(("in", j) for j in range(1, net.arity + 1))
            graph.add_nodes_from(("out", i) for i in range(1, net.coarity + 1))
            graph.add_edges_from(
                (
                    ("in", ends.tindex) if ends.tail == 1 else ends.tail,
                    ("out", ends.hindex) if ends.head == 0 else ends.head,
                )
                for ends in net.edges.values()
            )
            tr = transference(net)
            assert (tr.rows, tr.cols) == (net.coarity, net.arity)
            for i in range(1, net.coarity + 1):
                for j in range(1, net.arity + 1):
                    assert bool(tr.get(i - 1, j - 1)) == nx.has_path(graph, ("in", j), ("out", i))
            with_strays += any(e.head == 0 and e.tail == 1 for e in net.edges.values())
            several += len(_components(net)[0]) > 1
        assert with_strays > 50 and several > 50

    def test_equals_boolean_evaluation(self, rng, sig2):
        for _ in range(200):
            net = random_network(rng, list(sig2))
            assert transference(net) == evaluate(net, BOOL_MATRIX, all_ones_assignment(sig2))


class TestEvaluate:
    def test_permutation_network(self, rng):
        for _ in range(30):
            p = random_perm(rng, rng.randint(0, 4))
            val = evaluate(perm_network(p), NAT_MATRIX, {})
            assert val == NAT_MATRIX.phi(p)

    def test_iso_invariance(self, rng, sig2):
        for _ in range(1000):
            net = random_network(rng, list(sig2), max_inner=3)
            other = random_relabel(rng, net)
            assign = nat_assign(rng, list(sig2))
            assert evaluate(net, NAT_MATRIX, assign) == evaluate(other, NAT_MATRIX, assign)
            assert transference(net) == transference(other)

    def test_cycle_raises(self):
        s, t = Symbol("s", 1, 1), Symbol("t", 1, 2)
        edges = {0: Edge(4, 1, 1, 1), 1: Edge(2, 1, 4, 1), 2: Edge(3, 1, 2, 1), 3: Edge(2, 2, 3, 1)}
        net = Network(edges, {2: t, 3: s, 4: s})
        assign = {"s": Mat.from_rows([[1]]), "t": Mat.from_rows([[1, 1]])}
        with pytest.raises(InvalidNetworkError) as exc:
            evaluate(net, NAT_MATRIX, assign)
        assert [v.kind for v in exc.value.violations] == ["CycleFound"]

    def test_tiebreak_independence(self, rng, sig2):
        # evaluate takes the sources of its topological order in id order;
        # reversing the order of the inner vertex ids changes the walk
        for _ in range(200):
            net = random_network(rng, list(sig2), max_inner=4)
            assign = nat_assign(rng, list(sig2))
            inner = net.inner_vertices()
            vmap = {0: 0, 1: 1, **dict(zip(inner, reversed(inner)))}
            reversed_net = relabel(net, vmap, {e: e for e in net.edges})
            lo = evaluate(net, NAT_MATRIX, assign)
            hi = evaluate(reversed_net, NAT_MATRIX, assign)
            assert lo == hi


    def test_assignment_checks(self):
        # a symbol with no image, or an image of the wrong shape, is a
        # TargetError that names the symbol
        m = generator_network(Symbol("m", 1, 2))
        with pytest.raises(TargetError) as exc:
            evaluate(m, NAT_MATRIX, {})
        assert str(exc.value) == "no assignment for symbol 'm'"
        with pytest.raises(TargetError) as exc:
            evaluate(m, NAT_MATRIX, {"m": Mat.from_rows([[1]])})
        assert str(exc.value) == "assignment for 'm' has shape (1, 1), expected (1, 2)"


class TestActions:
    def test_identity_action(self, rng, sig2):
        net = random_network(rng, list(sig2))
        assert canonical_code(
            act(same(net.coarity), net, same(net.arity))
        ) == canonical_code(net)

    def test_cross_action_on_identity(self):
        acted = act(cross(1, 1), perm_network(same(2)))
        assert canonical_code(acted) == canonical_code(perm_network(cross(1, 1)))

    def test_transference_conjugation(self, rng, sig2):
        for _ in range(300):
            net = random_network(rng, list(sig2))
            sg = random_perm(rng, net.coarity)
            tu = random_perm(rng, net.arity)
            lhs = transference(act(sg, net, tu))
            rhs = BoolMat.from_perm(sg).mul(transference(net)).mul(BoolMat.from_perm(tu))
            assert lhs == rhs


    def test_size_checks(self):
        m = generator_network(Symbol("m", 1, 2))
        with pytest.raises(ValueError) as exc:
            act(cross(1, 1), m)
        assert str(exc.value) == "left action size mismatch"
        with pytest.raises(ValueError) as exc:
            act(None, m, same(1))
        assert str(exc.value) == "right action size mismatch"

class TestCutSplit:
    def test_trivial_cut(self, rng, sig2):
        net = random_network(rng, list(sig2), min_inner=1)
        w1 = set(net.inner_vertices())
        upper, lower = cut(net, set(), w1, obvious_ordering(net, set(), w1))
        assert not upper.deco
        assert canonical_code(lower) is not None

    def test_cut_multiplicativity(self, rng, sig2):
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
            whole = evaluate(net, NAT_MATRIX, assign)
            parts = NAT_MATRIX.compose(
                evaluate(upper, NAT_MATRIX, assign), evaluate(lower, NAT_MATRIX, assign)
            )
            assert whole == parts
            cases += 1

    def test_split_multiplicativity(self, rng, sig2):
        cases = 0
        while cases < 500:
            left = random_network(rng, list(sig2), max_inner=3)
            right = random_network(rng, list(sig2), max_inner=3)
            voff = max(left.vertices) + 1
            eoff = max(left.edges, default=-1) + 1
            edges = dict(left.edges)
            wl = set(left.inner_vertices())
            wr = set()
            for e, ends in right.edges.items():
                head = 0 if ends.head == 0 else (ends.head + voff)
                tail = 1 if ends.tail == 1 else (ends.tail + voff)
                hindex = ends.hindex + (left.coarity if ends.head == 0 else 0)
                tindex = ends.tindex + (left.arity if ends.tail == 1 else 0)
                edges[e + eoff] = Edge(head, hindex, tail, tindex)
            deco = dict(left.deco)
            for v, s in right.deco.items():
                deco[v + voff] = s
                wr.add(v + voff)
            whole = validate(edges, deco)
            fl = set(left.edges)
            fr = {e + eoff for e in right.edges}
            l2, r2 = split(whole, fl, fr, wl, wr)
            assign = nat_assign(rng, list(sig2))
            assert evaluate(whole, NAT_MATRIX, assign) == NAT_MATRIX.tensor(
                evaluate(l2, NAT_MATRIX, assign), evaluate(r2, NAT_MATRIX, assign)
            )
            assert canonical_code(l2) == canonical_code(left)
            assert canonical_code(r2) == canonical_code(right)
            cases += 1

    def test_not_a_cut(self, sig2):
        m = sig2["m"]
        # m over m: lower vertex feeds the upper one
        edges = {
            0: Edge(0, 1, 2, 1),
            1: Edge(2, 1, 3, 1),
            2: Edge(2, 2, 1, 1),
            3: Edge(3, 1, 1, 2),
            4: Edge(3, 2, 1, 3),
        }
        net = validate(edges, {2: m, 3: m})
        with pytest.raises(Exception):
            cut(net, {3}, {2}, {})


class TestSmoothen:
    def chain_network(self, n_neutral):
        edges = {}
        deco = {}
        prev, pidx = 1, 1
        for k in range(n_neutral):
            v = 2 + k
            deco[v] = NEUTRAL
            edges[k] = Edge(v, 1, prev, pidx)
            prev, pidx = v, 1
        edges[n_neutral] = Edge(0, 1, prev, pidx)
        return validate(edges, deco)

    def test_chain_collapses_to_wire(self):
        net = self.chain_network(3)
        smooth = smoothen(net)
        assert canonical_code(smooth) == canonical_code(perm_network(same(1)))
        assert is_homeomorphism(smoothing_homeomorphism(net, smooth))

    def test_noop_without_neutral(self, rng, sig2):
        net = random_network(rng, list(sig2))
        smooth = smoothen(net)
        assert canonical_code(smooth) == canonical_code(net)
        assert is_homeomorphism(smoothing_homeomorphism(net, smooth))

    def test_wrong_arity_neutral(self):
        bad = Symbol("~", 2, 1)
        edges = {
            0: Edge(2, 1, 1, 1),
            1: Edge(0, 1, 2, 1),
            2: Edge(0, 2, 2, 2),
        }
        net = validate(edges, {2: bad})
        with pytest.raises(InvalidNetworkError):
            smoothen(net)

    def test_eval_preserved(self, rng, sig2):
        symbols = list(sig2) + [NEUTRAL]
        for _ in range(300):
            net = random_network(rng, symbols, max_inner=4)
            smooth = smoothen(net)
            assert is_homeomorphism(smoothing_homeomorphism(net, smooth))
            assign = nat_assign(rng, list(sig2))
            assert evaluate(net, NAT_MATRIX, assign) == evaluate(
                smooth, NAT_MATRIX, assign
            )


def brute_force_iso(g: Network, h: Network) -> bool:
    if (g.coarity, g.arity) != (h.coarity, h.arity):
        return False
    gv, hv = g.inner_vertices(), h.inner_vertices()
    if len(gv) != len(hv) or len(g.edges) != len(h.edges):
        return False
    for perm in itertools.permutations(hv):
        vmap = {0: 0, 1: 1, **dict(zip(gv, perm))}
        if any(g.deco[v] != h.deco[vmap[v]] for v in gv):
            continue
        ok = True
        for ends in g.edges.values():
            try:
                h.in_edge(vmap[ends.head], ends.hindex)
            except KeyError:
                ok = False
                break
            e_h = h.in_edge(vmap[ends.head], ends.hindex)
            hh = h.edges[e_h]
            if hh.tail != vmap[ends.tail] or hh.tindex != ends.tindex:
                ok = False
                break
        if ok:
            return True
    return False


class TestCanonicalCode:
    def test_relabel_invariance(self, rng, sig2):
        for _ in range(400):
            net = random_network(rng, list(sig2))
            assert canonical_code(net) == canonical_code(random_relabel(rng, net))

    def test_distinct_assoc_trees(self, sig2):
        m = sig2["m"]
        # right comb vs left comb on three inputs
        right = validate(
            {
                0: Edge(0, 1, 2, 1),
                1: Edge(2, 1, 1, 1),
                2: Edge(2, 2, 3, 1),
                3: Edge(3, 1, 1, 2),
                4: Edge(3, 2, 1, 3),
            },
            {2: m, 3: m},
        )
        left = validate(
            {
                0: Edge(0, 1, 2, 1),
                1: Edge(2, 1, 3, 1),
                2: Edge(2, 2, 1, 3),
                3: Edge(3, 1, 1, 1),
                4: Edge(3, 2, 1, 2),
            },
            {2: m, 3: m},
        )
        assert canonical_code(right) != canonical_code(left)
        assert not brute_force_iso(right, left)

    def test_closed_components_sorted(self):
        eta, eps = Symbol("eta", 1, 0), Symbol("eps", 0, 1)
        # two disjoint eps.eta loops, built in both tensor orders
        def loops(flip):
            a, b, c, d = (2, 3, 4, 5) if not flip else (4, 5, 2, 3)
            edges = {0: Edge(b, 1, a, 1), 1: Edge(d, 1, c, 1)}
            return validate(edges, {a: eta, b: eps, c: eta, d: eps})

        assert canonical_code(loops(False)) == canonical_code(loops(True))

    def test_agrees_with_brute_force(self, rng, sig2):
        nets = [random_network(rng, list(sig2), max_inner=4) for _ in range(60)]
        for i in range(len(nets)):
            for j in range(i, len(nets)):
                got = canonical_code(nets[i]) == canonical_code(nets[j])
                want = brute_force_iso(nets[i], nets[j])
                assert got == want

    def test_from_code_roundtrip(self, rng, sig2):
        for _ in range(200):
            net = random_network(rng, list(sig2))
            code = canonical_code(net)
            assert canonical_code(from_code(code)) == code

    def test_from_code_ids_are_dense(self, rng, hopf_sig):
        # the numbering the gluing search reads a representative by: edges
        # 0..E-1 and inner vertices 2..V+1, each listed by id
        nets = [random_network(rng, list(hopf_sig), max_inner=6, max_strays=2) for _ in range(200)]
        reps = [s.lhs.rep for pair in corpus_rule_pairs() for s in pair]
        reps += [from_code(canonical_code(net)) for net in nets]
        for rep in reps:
            assert list(rep.edges) == list(range(len(rep.edges)))
            assert list(rep.deco) == list(range(2, len(rep.deco) + 2))
        assert sum(len(_components(net)[0]) > 1 for net in nets) > 20
