"""Ambiguity enumeration, resolution, confluence reports, completion."""

import contextlib
import hashlib
import io
import itertools
from pathlib import Path

import pytest

import netrw.network
from netrw.ainparse import parse_rules, parse_term
from netrw import ambiguity
from netrw.ambiguity import (
    Ambiguity,
    _decisive_sites,
    _leg_relabelings,
    OrientationFailedError,
    complete,
    confluence_report,
    enumerate_decisive,
    resolve,
)
from netrw.cli import main
from netrw.core import BoolMat, Symbol, parse_signature
from netrw.freeprop import LinComb, annex, lc_annex
from netrw.match import embeddings
from netrw.network import InvalidNetworkError, Violation, _components, act, canonical_code
from netrw.order import OrderError, OrderSpec, Stage, parse_order, rule_compatible
from netrw.props import BAFF_NAT, parse_assignment
from netrw.rewrite import all_single_steps, is_irreducible, joinable, make_rule, normalize

from conftest import (
    computed,
    corpus_rule_pairs,
    random_class,
    random_network,
    reference_pair_tables,
    reference_reach,
    reference_sites,
    swap_everywhere,
)

CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"


@pytest.fixture
def assoc_setup():
    sig = parse_signature("gen m 1 2\n")
    rules = parse_rules("rule assoc sharp: m^a_bc m^c_de -> m^a_ce m^c_bd", sig)
    assignment = parse_assignment("map m = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 2", sig, BAFF_NAT)
    return sig, rules, OrderSpec((Stage(BAFF_NAT, assignment),))


@pytest.fixture
def frob_setup():
    sig = parse_signature("gen m 1 2\ngen D 2 1\n")
    rules = parse_rules(
        "rule frob1: D^{a c}_x m^b_{c y} -> D^ab_z m^z_xy\n"
        "rule frob2: m^a_{x c} D^{c b}_y -> D^ab_z m^z_xy\n",
        sig,
    )
    return sig, rules


def check_terse_conditions(amb: Ambiguity, rules_by_id) -> None:
    """Independent checker for the six terseness conditions and the
    necessary overlap conditions (a)-(c)."""
    site = amb.site.rep
    h1 = rules_by_id[amb.rule1_id].lhs.rep
    h2 = rules_by_id[amb.rule2_id].lhs.rep
    embs1 = list(embeddings(h1, site))
    embs2 = list(embeddings(h2, site))
    assert embs1 and embs2

    def covered(emb1, emb2):
        chi1, psi1 = dict(emb1.vertex_map), dict(emb1.edge_map)
        chi2, psi2 = dict(emb2.vertex_map), dict(emb2.edge_map)
        cond1 = set(site.inner_vertices()) == set(chi1.values()) | set(chi2.values())
        cond15 = set(site.edges) == set(psi1.values()) | set(psi2.values())
        out1 = {psi1[e] for e, ends in h1.edges.items() if ends.head == 0}
        in2 = {psi2[e] for e, ends in h2.edges.items() if ends.tail == 1}
        in1 = {psi1[e] for e, ends in h1.edges.items() if ends.tail == 1}
        out2 = {psi2[e] for e, ends in h2.edges.items() if ends.head == 0}
        cond2 = not (out1 & in2)
        cond3 = not (in1 & out2)
        cond45 = True
        for psi, h, other_im in ((psi1, h1, set(psi2.values())), (psi2, h2, set(psi1.values()))):
            shared: dict[int, list[int]] = {}
            for e, x in psi.items():
                shared.setdefault(x, []).append(e)
            for x, es in shared.items():
                if len(es) > 1 and x not in other_im:
                    cond45 = False
        overlap_a = bool(set(chi1.values()) & set(chi2.values()))
        overlap_bc = False
        for e1, x in psi1.items():
            for e2, y in psi2.items():
                if x != y:
                    continue
                s1 = h1.edges[e1]
                s2 = h2.edges[e2]
                if s1.head == 0 and s1.tail == 1 and s2.head != 0 and s2.tail != 1:
                    overlap_bc = True
                if s2.head == 0 and s2.tail == 1 and s1.head != 0 and s1.tail != 1:
                    overlap_bc = True
        return cond1 and cond15 and cond2 and cond3 and cond45, overlap_a or overlap_bc

    results = [
        covered(e1, e2) for e1 in embs1 for e2 in embs2
    ]
    if amb.terse and not amb.trivial:
        assert any(terse and overlap for terse, overlap in results)


class TestEnumerate:
    def test_assoc_counts(self, assoc_setup):
        _, rules, _ = assoc_setup
        ambs = enumerate_decisive(rules[0], rules[0])
        trivial = [a for a in ambs if a.trivial]
        nontrivial = [a for a in ambs if not a.trivial]
        assert len(trivial) == 1 and len(nontrivial) == 1
        site = nontrivial[0].site
        assert (site.coarity, site.arity) == (1, 4)
        assert len(site.rep.deco) == 3

    def test_terse_checker(self, assoc_setup, frob_setup):
        for setup in (assoc_setup, frob_setup):
            rules = setup[1]
            by_id = {r.rule_id: r for r in rules}
            for s1 in rules:
                for s2 in rules:
                    for amb in enumerate_decisive(s1, s2):
                        check_terse_conditions(amb, by_id)

    def test_frobenius_wrap_found(self, frob_setup):
        _, rules = frob_setup
        ambs = enumerate_decisive(rules[0], rules[1])
        wraps = [a for a in ambs if not a.terse]
        assert len(wraps) == 1
        site = wraps[0].site
        assert (site.coarity, site.arity) == (2, 2)
        assert len(site.rep.deco) == 4

    def test_disjoint_symbols_only_trivial(self):
        sig = parse_signature("gen m 1 2\ngen w 1 2\n")
        rules = parse_rules(
            "rule am sharp: m^a_bc m^c_de -> m^a_ce m^c_bd\n"
            "rule aw sharp: w^a_bc w^c_de -> w^a_ce w^c_bd\n",
            sig,
        )
        cross_pair = enumerate_decisive(rules[0], rules[1])
        assert cross_pair == []
        for rule in rules:
            ambs = enumerate_decisive(rule, rule)
            nontrivial = [a for a in ambs if not a.trivial]
            assert len(nontrivial) == 1  # only the self-overlap chain

    def test_montages_never_emitted(self, assoc_setup):
        # a montage's reductions commute, so every emitted ambiguity must
        # have overlapping images or a genuine wrap wiring
        _, rules, _ = assoc_setup
        for amb in enumerate_decisive(rules[0], rules[0]):
            site = amb.site.rep
            h = rules[0].lhs.rep
            if amb.trivial:
                continue
            # a montage site would have 4 inner vertices (two disjoint
            # copies); overlaps have fewer
            assert len(site.deco) < 2 * len(h.deco)

    def test_reducts_are_annexations(self, assoc_setup):
        _, rules, _ = assoc_setup
        for amb in enumerate_decisive(rules[0], rules[0]):
            assert annex(amb.context1, rules[0].lhs) == amb.site
            assert annex(amb.context2, rules[0].lhs) == amb.site
            assert lc_annex(amb.context1, rules[0].rhs) == amb.reduct1
            assert lc_annex(amb.context2, rules[0].rhs) == amb.reduct2

    def test_sharp_pairs_read_only_site_types(self, monkeypatch):
        # an all-sharp pair's ambiguity type is its site's transference,
        # and neither rule's contexts are checked against it: transference
        # runs once per site and on no context
        pairs = [(s1, s2) for s1, s2 in corpus_rule_pairs() if s1.sharp and s2.sharp]
        sites, traversed = [], []
        real_sites, real_tr = ambiguity._decisive_sites, netrw.network.transference

        def recording_sites(s1, s2):
            for found in real_sites(s1, s2):
                sites.append(found[0])
                yield found

        def recording_tr(net, *order):
            traversed.append(net)
            return real_tr(net, *order)

        monkeypatch.setattr(ambiguity, "_decisive_sites", recording_sites)
        swap_everywhere(monkeypatch, real_tr, recording_tr)
        ambs = [amb for s1, s2 in pairs for amb in enumerate_decisive(s1, s2)]
        assert [id(net) for net in traversed] == [id(site) for site in sites]
        assert len(sites) >= 50 and len(ambs) >= 45, (len(sites), len(ambs))
        assert not any(computed(k, "tr") for amb in ambs for k in (amb.context1, amb.context2))


def oracle_pairs(rng, hopf_sig, extra=120):
    """The corpus rule pairs, then ``extra`` pairs of random Hopf left
    hand sides with at most 8 edges in all, each sharp or not at random."""
    pairs = corpus_rule_pairs()
    n_corpus = len(pairs)
    while len(pairs) < n_corpus + extra:
        lhs = [random_class(rng, list(hopf_sig), max_inner=3, min_inner=1) for _ in range(2)]
        if sum(len(h.rep.edges) for h in lhs) > 8:
            continue
        typespecs = ["sharp" if rng.random() < 0.5 else [] for _ in lhs]
        pairs.append([make_rule(f"r{i}", h, h, t) for i, (h, t) in enumerate(zip(lhs, typespecs))])
    return pairs


def class_graph(nx, tables, cls):
    """The class graph of a gluing given by each node's class: a node per
    class, and arcs from each tail class of an edge class to it and from
    it to each of its head classes."""
    graph = nx.DiGraph()
    graph.add_nodes_from(cls)
    for e in range(tables.n_edges):
        if tables.head[e] is not None:
            graph.add_edge(cls[e], cls[tables.head[e]])
        if tables.tail[e] is not None:
            graph.add_edge(cls[tables.tail[e]], cls[e])
    return graph


class TestDecisiveSites:
    def test_matches_unpruned_recursion(self, rng, hopf_sig):
        pairs = corpus_rule_pairs()
        n_corpus = len(pairs)
        while len(pairs) < n_corpus + 120:
            lhs = [random_class(rng, list(hopf_sig), max_inner=3, min_inner=1) for _ in range(2)]
            if sum(len(h.rep.edges) for h in lhs) > 8:
                continue
            typespecs = ["sharp" if rng.random() < 0.5 else [] for _ in lhs]
            pairs.append([make_rule(f"r{i}", h, h, t) for i, (h, t) in enumerate(zip(lhs, typespecs))])
        cyclic = 0
        for s1, s2 in pairs:
            expected = reference_sites(s1, s2)
            got = list(_decisive_sites(s1, s2))
            cyclic += expected.count(None)
            expected = [b for b in expected if b is not None]
            assert [(site.edges, site.deco, e1, e2, terse) for site, e1, e2, terse in got] == [
                (site.edges, site.deco, e1, e2, terse) for site, e1, e2, terse in expected
            ]
        assert cyclic > 500

    def test_only_cycles_are_dropped(self, frob_setup, monkeypatch):
        def invalid(edges, deco):
            raise InvalidNetworkError([Violation("DuplicatePort", (2, 1))])

        monkeypatch.setattr(ambiguity, "validate", invalid)
        _, rules = frob_setup
        with pytest.raises(InvalidNetworkError, match="DuplicatePort"):
            enumerate_decisive(rules[0], rules[1])

    def test_validate_runs_only_on_acyclic_sites(self, monkeypatch):
        # a gluing whose classes close a directed cycle is rejected before
        # its site is assembled, so validate sees exactly the sites yielded
        calls = [0]
        real_validate = ambiguity.validate

        def counting_validate(*args):
            calls[0] += 1
            return real_validate(*args)

        monkeypatch.setattr(ambiguity, "validate", counting_validate)
        pairs = corpus_rule_pairs()
        sites = sum(1 for s1, s2 in pairs for _ in _decisive_sites(s1, s2))
        assert (len(pairs), sites, calls[0]) == (114, 111, 111)

    def test_closure_work(self, monkeypatch):
        # a seed whose two classes cannot form one class, or whose gluing
        # closes a directed cycle outright, is dropped before the state is
        # copied, and a closure stops at the union that closes a cycle:
        # over the corpus pairs 838 gluings are copied and 722 closures
        # succeed, the enumeration visits 631 gluings, roots included, and
        # each of the 111 sites built is acyclic (without the cycle test:
        # 1,986, 1,698, 1,112, and 481 of 592 sites cyclic).  Each union's
        # tests run once, on the gluing it extends: 2,385 class tests and
        # 3,763 cycle tests; glued never changes the gluing it is given
        copies = children = built = cyclic = class_tests = cycle_tests = 0
        gluings = set()
        real_copy = ambiguity._Gluing.copy
        real_glued = ambiguity._Gluing.glued
        real_build = ambiguity._PairTables.build_site
        real_class_ok = ambiguity._PairTables.class_ok
        real_closes = ambiguity._Gluing.closes_cycle

        def counting_copy(self):
            nonlocal copies
            copies += 1
            return real_copy(self)

        def counting_glued(self, tables, a, b):
            nonlocal children
            before = (self.cls[:], self.members[:], self.reach[:], self.start[:])
            child = real_glued(self, tables, a, b)
            assert (self.cls, self.members, self.reach, self.start) == before
            if child is not None:
                children += 1
                gluings.add((pair, tuple(child.cls)))
            return child

        def counting_build(self, g):
            nonlocal built, cyclic
            site = real_build(self, g)
            built += 1
            cyclic += site is None
            return site

        def counting_class_ok(self, members, forced):
            nonlocal class_tests
            class_tests += 1
            return real_class_ok(self, members, forced)

        def counting_closes(self, x, y):
            nonlocal cycle_tests
            cycle_tests += 1
            return real_closes(self, x, y)

        monkeypatch.setattr(ambiguity._Gluing, "copy", counting_copy)
        monkeypatch.setattr(ambiguity._Gluing, "glued", counting_glued)
        monkeypatch.setattr(ambiguity._PairTables, "build_site", counting_build)
        monkeypatch.setattr(ambiguity._PairTables, "class_ok", counting_class_ok)
        monkeypatch.setattr(ambiguity._Gluing, "closes_cycle", counting_closes)
        pairs = corpus_rule_pairs()
        for pair, (s1, s2) in enumerate(pairs):
            list(_decisive_sites(s1, s2))
        assert (copies, children, len(gluings) + len(pairs)) == (838, 722, 631)
        assert (built, cyclic) == (111, 0)
        assert (class_tests, cycle_tests) == (2385, 3763)

    def test_carried_reach_sets(self, rng, hopf_sig, monkeypatch):
        # at every gluing a closure gives, the reach sets it carries are
        # those that networkx and the from-scratch walk find on its class
        # graph, which is acyclic
        nx = pytest.importorskip("networkx")
        real_glued = ambiguity._Gluing.glued
        classes = 0

        def checked_glued(self, tables, a, b):
            nonlocal classes
            g = real_glued(self, tables, a, b)
            if g is None:
                return None
            graph = class_graph(nx, tables, g.cls)
            assert nx.is_directed_acyclic_graph(graph)
            ref_reach, ref_start = reference_reach(tables, g)
            for c in set(g.cls):
                reach = sum(1 << v for v in nx.descendants(graph, c) if v >= tables.n_edges)
                if c < tables.n_edges:
                    start = sum(1 << v for v in graph.predecessors(c))
                else:
                    start = 1 << c
                assert g.reach[c] == reach == ref_reach[c]
                assert g.start[c] == start == ref_start[c]
                classes += 1
            return g

        monkeypatch.setattr(ambiguity._Gluing, "glued", checked_glued)
        for s1, s2 in oracle_pairs(rng, hopf_sig):
            list(_decisive_sites(s1, s2))
        assert classes > 70000, classes

    def test_cycle_test_drops_only_cyclic_gluings(self, rng, hopf_sig, monkeypatch):
        # each union that the cycle test stops, before a seed's state is
        # copied or inside a closure, is of two classes of an acyclic
        # gluing whose class graph turns cyclic when they are glued; with
        # the test switched off, the closure of that union gives a cyclic
        # gluing or fails the class test
        nx = pytest.importorskip("networkx")
        stops = []
        real_closes = ambiguity._Gluing.closes_cycle

        def recording_closes(self, x, y):
            closes = real_closes(self, x, y)
            if closes:
                stops.append((self.copy(), x, y))
            return closes

        checks = []
        for s1, s2 in oracle_pairs(rng, hopf_sig):
            stops.clear()
            with monkeypatch.context() as m:
                m.setattr(ambiguity._Gluing, "closes_cycle", recording_closes)
                list(_decisive_sites(s1, s2))
            checks += [(ambiguity._PairTables(s1, s2), *stop) for stop in stops]
        monkeypatch.setattr(ambiguity._Gluing, "closes_cycle", lambda self, x, y: False)
        closed = 0
        for tables, g, x, y in checks:
            assert nx.is_directed_acyclic_graph(class_graph(nx, tables, g.cls))
            glued = [x if c == y else c for c in g.cls]
            assert not nx.is_directed_acyclic_graph(class_graph(nx, tables, glued))
            closure = g.glued(tables, x, y)
            if closure is not None:
                assert not nx.is_directed_acyclic_graph(class_graph(nx, tables, closure.cls))
                closed += 1
        assert len(checks) > 6000 and closed > 3000, (len(checks), closed)


class TestPairTables:
    def test_matches_node_table_layer(self, rng, hopf_sig):
        # every table read off both representatives equals the one the
        # per-rule node tables gave, on the corpus pairs in both orders
        # and on random Hopf pairs
        pairs = corpus_rule_pairs()
        pairs += [(s2, s1) for s1, s2 in pairs]
        n_corpus = len(pairs)
        while len(pairs) < n_corpus + 200:
            lhs = [random_class(rng, list(hopf_sig), max_inner=4, min_inner=1) for _ in range(2)]
            typespecs = ["sharp" if rng.random() < 0.5 else [] for _ in lhs]
            pairs.append([make_rule(f"r{i}", h, h, t) for i, (h, t) in enumerate(zip(lhs, typespecs))])
        seeds = 0
        for s1, s2 in pairs:
            tables = vars(ambiguity._PairTables(s1, s2))
            assert tables == reference_pair_tables(s1, s2)
            seeds += len(tables["seeds"])
        assert seeds > 2000, seeds


def flat_symbols(obj):
    """``obj`` with each symbol in a tuple spelled out in place as its
    name, coarity and arity."""
    if not isinstance(obj, tuple):
        return obj
    out = []
    for x in obj:
        if isinstance(x, Symbol):
            out += [x.name, x.coarity, x.arity]
        else:
            out.append(flat_symbols(x))
    return tuple(out)


class TestKeys:
    # (ambiguities, digest of their keys, confluence exit code, digest of
    # its stdout), recorded before keys were built once per site; the
    # confluence runs use an order for assoc and circle, else --max-steps 25
    CORPUS_DIGESTS = {
        "assoc": (2, "6d7e1b8d040f2903", 0, "6b8db0773edc52b2"),
        "circle": (2, "3fd4bf5ebafebf46", 1, "d43980361203693f"),
        "bridge": (4, "1d84e0c84b3f6350", 1, "a23b05d15c83b736"),
        "zigzag": (7, "b9f2ecfd78e29459", 0, "1600a3e26137f2f6"),
        "frobenius": (7, "16559546910f443e", 1, "ba3a02505d50792f"),
        "hopf": (46, "c95bcc8eead648a9", 0, "e9b570f68bfc45fe"),
    }

    @pytest.mark.parametrize("system", sorted(CORPUS_DIGESTS))
    def test_corpus_digests(self, system):
        """The digests were recorded when a code record spelled its symbol
        out as name, coarity, arity; ``flat_symbols`` spells it out again,
        so equal digests say the keys are the same up to that layout."""
        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        sig_path, rules_path = CORPUS / f"{system}.sig", CORPUS / f"{system}.rules"
        sig = parse_signature(sig_path.read_text(encoding="utf-8"))
        rules = sorted(parse_rules(rules_path.read_text(encoding="utf-8"), sig), key=lambda r: r.rule_id)
        keys = [
            repr(flat_symbols(amb.key))
            for i, s1 in enumerate(rules)
            for s2 in rules[i:]
            for amb in enumerate_decisive(s1, s2)
        ]
        if system in ("assoc", "circle"):
            limit = ["--order", str(CORPUS / f"{system}.order")]
        else:
            limit = ["--max-steps", "25"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["confluence", "--sig", str(sig_path), "--rules", str(rules_path), *limit])
        got = (len(keys), digest("\n".join(keys)), code, digest(out.getvalue()))
        assert got == self.CORPUS_DIGESTS[system]

    def test_relabelings_give_one_site_code(self, rng, hopf_sig):
        several = with_strays = many_components = 0
        for _ in range(400):
            net = random_network(rng, list(hopf_sig), max_inner=6, max_strays=2)
            relabelings = _leg_relabelings(net)
            codes = {canonical_code(act(sigma, net, tau)) for sigma, tau in relabelings}
            assert len(codes) == 1
            several += len(relabelings) > 1
            comps, strays = _components(net)
            with_strays += bool(strays)
            many_components += len(comps) > 1
        assert several > 100 and with_strays > 50 and many_components > 50

    def test_relabeling_cap(self):
        # five equal components have 5! = 120 orders, more than the cap of
        # 64: one order of each group is kept, and every relabeling listed
        # gives the site one code
        sig = parse_signature("gen x 1 1\ngen y 1 1\n")
        site = parse_term("y^a_b y^c_d y^e_f y^g_h y^i_j", sig).monomials()[0]
        relabelings = _leg_relabelings(site.net)
        assert 1 <= len(relabelings) <= ambiguity._RELABELING_CAP < 120
        assert len({ambiguity._code_under(site, *r) for r in relabelings}) == 1


class TestStrayRules:
    def test_stray_over_edge_reduction_and_ambiguity(self):
        # a rule whose lhs is a generator beside a passing wire applies with
        # the wire over any edge, provided the rule is sharp; enumeration
        # finds the leg-over-edge overlap with another rule
        sig = parse_signature("gen x 1 1\ngen y 1 1\n")
        rules = parse_rules(
            "rule xw sharp: [a c|x^a_b|b c] -> [a c|y^a_b|b c]\n"
            "rule yy sharp: y^a_b y^b_c -> x^a_b x^b_c\n",
            sig,
        )
        assert rules[0].qtype == BoolMat.eye(2)
        subject = parse_term("x^a_b y^b_c", sig)
        steps = all_single_steps(subject, BoolMat.ones(1, 1), rules)
        assert steps == [parse_term("y^a_b y^b_c", sig)]
        ambs = enumerate_decisive(rules[0], rules[1])
        stray_overlaps = [
            a for a in ambs if a.terse and len(a.site.rep.deco) == 3
        ]
        assert stray_overlaps

    def test_non_sharp_stray_rule_blocked_in_wrapping_context(self):
        # with the all-ones type the same rule may not wrap around the
        # subject's internal edge
        sig = parse_signature("gen x 1 1\ngen y 1 1\n")
        rules = parse_rules("rule xw: [a c|x^a_b|b c] -> [a c|y^a_b|b c]", sig)
        subject = parse_term("x^a_b y^b_c", sig)
        assert is_irreducible(subject, BoolMat.ones(1, 1), rules)


class TestResolve:
    def test_pentagon_resolves(self, assoc_setup):
        _, rules, spec = assoc_setup
        nontrivial = [
            a for a in enumerate_decisive(rules[0], rules[0]) if not a.trivial
        ]
        res = resolve(nontrivial[0], rules, spec)
        assert res.status == "resolved"

    def test_frobenius_wrap_unresolved(self, frob_setup):
        _, rules = frob_setup
        wraps = [a for a in enumerate_decisive(rules[0], rules[1]) if not a.terse]
        res = resolve(wraps[0], rules, max_steps=25)
        assert res.status == "unresolved"
        amb = wraps[0]
        assert amb.reduct1 != amb.reduct2
        assert is_irreducible(amb.reduct1, amb.amb_type, rules)
        assert is_irreducible(amb.reduct2, amb.amb_type, rules)

    def test_trivial_resolves(self, assoc_setup):
        _, rules, _ = assoc_setup
        trivial = [a for a in enumerate_decisive(rules[0], rules[0]) if a.trivial]
        assert resolve(trivial[0], rules, max_steps=5).status == "resolved"


class TestConfluenceReport:
    def test_assoc_confluent(self, assoc_setup):
        _, rules, spec = assoc_setup
        report = confluence_report(rules, spec)
        assert report.verdict == "confluent"
        assert not report.advisory

    def test_empty_system(self):
        report = confluence_report([])
        assert report.verdict == "confluent" and not report.results

    def test_frobenius_not_confluent(self, frob_setup):
        _, rules = frob_setup
        report = confluence_report(rules, max_steps=25)
        assert report.verdict == "not-confluent"
        assert report.advisory
        assert any(not r.ambiguity.terse and r.status == "unresolved" for r in report.results)

    def test_incompatible_rule_rejected(self, assoc_setup):
        sig, _, spec = assoc_setup
        m = parse_term("m^a_bc", sig)
        noop = make_rule("noop", m, m, "sharp")
        with pytest.raises(OrderError, match="^rule 'noop' is not compatible with the order$"):
            confluence_report([noop], spec)

    def test_unresolved_differences_nonzero(self):
        # joinable answers "no" only for unequal normal forms, so completion
        # always has a nonzero difference to orient
        unresolved = 0
        for system in ("assoc", "circle", "bridge", "zigzag", "frobenius", "hopf"):
            sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
            rules = parse_rules((CORPUS / f"{system}.rules").read_text(encoding="utf-8"), sig)
            if system in ("assoc", "circle"):
                spec = parse_order(
                    (CORPUS / f"{system}.order").read_text(encoding="utf-8"),
                    sig,
                    lambda name: (CORPUS / name).read_text(encoding="utf-8"),
                )
                report = confluence_report(rules, spec)
            else:
                report = confluence_report(rules, max_steps=25)
            for res in report.results:
                if res.status == "unresolved":
                    unresolved += 1
                    assert res.difference is not None and not res.difference.is_zero()
        assert unresolved > 0

    @pytest.mark.parametrize("system", ["bridge", "frobenius", "circle"])
    def test_difference_of_normal_forms(self, system):
        sig = parse_signature(open(f"src/netrw/corpus/{system}.sig").read())
        rules = parse_rules(open(f"src/netrw/corpus/{system}.rules").read(), sig)
        report = confluence_report(rules, max_steps=40)
        unresolved = [r for r in report.results if r.status == "unresolved"]
        assert unresolved
        for res in unresolved:
            amb = res.ambiguity
            n1 = normalize(amb.reduct1, amb.amb_type, rules, max_steps=40)
            n2 = normalize(amb.reduct2, amb.amb_type, rules, max_steps=40)
            assert res.difference == n1 - n2

    def test_determinism(self, frob_setup):
        _, rules = frob_setup
        r1 = confluence_report(rules, max_steps=10)
        r2 = confluence_report(rules, max_steps=10)
        assert [(x.status, x.ambiguity.key) for x in r1.results] == [
            (x.status, x.ambiguity.key) for x in r2.results
        ]


class TestShadowCoverage:
    def test_double_reducts_joinable_under_confluent_system(self, rng, hopf_sig):
        # operational shadow coverage: any monomial with two distinct
        # one-step reducts under the (confluence-certified) sharp system
        # has joinable reducts
        text = open("src/netrw/corpus/hopf.rules").read()
        rules = parse_rules(text, hopf_sig)
        checked = 0
        attempts = 0
        while checked < 25 and attempts < 400:
            attempts += 1
            x = random_class(rng, list(hopf_sig), max_inner=6, max_strays=0)
            q = BoolMat.ones(x.coarity, x.arity)
            steps = all_single_steps(LinComb.monomial(x), q, rules)
            if len(steps) < 2:
                continue
            a, b = steps[0], steps[1]
            res = joinable(a, b, q, rules, max_steps=25)
            assert res.status == "yes", (a, b)
            checked += 1
        assert checked >= 10


class TestUniqueNormalForms:
    def test_random_strategies_agree(self, rng, hopf_sig):
        # the certified-confluent system gives one normal form per class,
        # whatever order the redexes are consumed in
        from conftest import exact_shape_class

        rules = parse_rules(open("src/netrw/corpus/hopf.rules").read(), hopf_sig)

        for _ in range(80):
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            x = LinComb.monomial(exact_shape_class(rng, hopf_sig, m, n))
            q = BoolMat.ones(m, n)
            nf = normalize(x, q, rules, max_steps=400)
            cur = x
            for _ in range(400):
                steps = all_single_steps(cur, q, rules)
                if not steps:
                    break
                cur = steps[rng.randrange(len(steps))]
            assert cur == nf


@pytest.fixture
def circle_setup():
    sig = parse_signature("gen x 1 1\ngen y 1 1\n")
    rules = parse_rules(
        "rule circ sharp: y^a_b y^b_c -> d^a_c - x^a_b x^b_c", sig
    )
    assignment = parse_assignment(
        "map x = 1 0 0 ; 0 1 0 ; 0 1 2\nmap y = 1 0 0 ; 0 1 0 ; 0 1 3",
        sig,
        BAFF_NAT,
    )
    return rules, OrderSpec((Stage(BAFF_NAT, assignment),))


class TestComplete:
    def test_circle_completion(self, circle_setup):
        rules, spec = circle_setup
        done, report = complete(rules, spec)
        assert report.verdict == "confluent"
        new = [r for r in done if r.rule_id not in {"circ"}]
        assert len(new) == 1
        # the added rule moves y across x.x
        lhs = new[0].lhs
        names = sorted(s.name for s in lhs.rep.deco.values())
        assert names == ["x", "x", "y"]

    def test_added_rules_compatible(self, circle_setup):
        # an oriented rule's rhs holds only monomials found below its lhs,
        # so complete adds no rule that the order check would refuse
        rules, spec = circle_setup
        done, _ = complete(rules, spec)
        added = done[len(rules):]
        assert added and all(rule_compatible(rule, spec)[0] for rule in added)

    def test_already_confluent_unchanged(self, assoc_setup):
        _, rules, spec = assoc_setup
        done, report = complete(rules, spec)
        assert done == list(rules)
        assert report.verdict == "confluent"

    def test_orient_types(self):
        # an oriented rule is sharp when every rhs term's transference lies
        # within tr(lhs), and of the all-ones type otherwise; f's value
        # has a zero matrix part, so f lies below eta eps although it
        # connects its input to its output and eta eps does not
        sig = parse_signature("gen eta 1 0\ngen eps 0 1\ngen e 0 1\ngen f 1 1\n")
        assignment = parse_assignment(
            "map eta = 1 1 ; 0 1 ; 0 1\n"
            "map eps = 1 1 1 ; 0 1 0\n"
            "map e = 1 0 0 ; 0 1 0\n"
            "map f = 1 0 0 ; 0 1 0 ; 0 0 0",
            sig,
            BAFF_NAT,
        )
        spec = OrderSpec((Stage(BAFF_NAT, assignment),))
        mu = parse_term("eta^a eps_b", sig)
        within = ambiguity._orient(mu - parse_term("eta^a e_b", sig), spec, "c0")
        beyond = ambiguity._orient(mu - parse_term("f^a_b", sig), spec, "c1")
        assert within.lhs == beyond.lhs == mu.monomials()[0]
        assert within.sharp and within.qtype == BoolMat.zeros(1, 1)
        assert not beyond.sharp and beyond.qtype == BoolMat.ones(1, 1)

    def test_orientation_failed(self):
        # the self-overlap of f.f |-> g.h leaves a difference whose two
        # monomials are permuted variants with equal order values, so no
        # orientation dominates
        sig = parse_signature("gen f 1 1\ngen g 1 1\ngen h 1 1\n")
        rules = parse_rules("rule ff sharp: f^a_b f^b_c -> g^a_b h^b_c", sig)
        assignment = parse_assignment(
            "map f = 1 0 0 ; 0 1 0 ; 0 0 2\n"
            "map g = 1 0 0 ; 0 1 0 ; 0 0 1\n"
            "map h = 1 0 0 ; 0 1 0 ; 0 0 1",
            sig,
            BAFF_NAT,
        )
        spec = OrderSpec((Stage(BAFF_NAT, assignment),))
        with pytest.raises(OrientationFailedError):
            complete(rules, spec)
