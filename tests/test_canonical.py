"""The canonical-root search: the least breadth-first serialization per
component, found by abandoning each start at its first losing record,
checked against an isomorphism oracle and against brute force."""

import random

import pytest

import netrw.ambiguity
import netrw.network
from netrw.ambiguity import _leg_relabelings
from netrw.ainparse import parse_term
from netrw.core import Symbol, parse_signature
from netrw.network import (
    Edge,
    Network,
    _component_records,
    _components,
    _least_code,
    act,
    canonical_code,
    validate,
)

from conftest import random_network, random_perm, random_relabel, relabel


def right_comb(n: int, top_down: bool = True) -> Network:
    """m(x1, m(x2, ... m(xn, x(n+1)))), vertices numbered from the top or
    from the bottom."""
    m = Symbol("m", 1, 2)
    ids = list(range(2, n + 2)) if top_down else list(range(n + 1, 1, -1))
    edges = {0: Edge(0, 1, ids[0], 1)}
    for k, v in enumerate(ids):
        edges[len(edges)] = Edge(v, 1, 1, k + 1)
        below = (ids[k + 1], 1) if k + 1 < n else (1, n + 1)
        edges[len(edges)] = Edge(v, 2, *below)
    return validate(edges, {v: m for v in ids})


def circle_chain(n: int, top_down: bool = True) -> Network:
    """y^n as a path of n vertices, numbered from the top or the bottom."""
    y = Symbol("y", 1, 1)
    ids = list(range(2, n + 2)) if top_down else list(range(n + 1, 1, -1))
    edges = {0: Edge(0, 1, ids[0], 1)}
    for k, v in enumerate(ids):
        below = (ids[k + 1], 1) if k + 1 < n else (1, 1)
        edges[len(edges)] = Edge(v, 1, *below)
    return validate(edges, {v: y for v in ids})


def crossed_bialgebra() -> Network:
    """(m x m)(1 x tau x 1)(D x D): swapping the two D and the two m
    vertices is an automorphism once legs lose their own indices."""
    d, m = Symbol("D", 2, 1), Symbol("m", 1, 2)
    edges = [
        Edge(2, 1, 1, 1),
        Edge(3, 1, 1, 2),
        Edge(4, 1, 2, 1),
        Edge(5, 2, 2, 2),
        Edge(5, 1, 3, 1),
        Edge(4, 2, 3, 2),
        Edge(0, 1, 4, 1),
        Edge(0, 2, 5, 1),
    ]
    return validate(dict(enumerate(edges)), {2: d, 3: d, 4: m, 5: m})


def wide_relabel(rng: random.Random, net: Network) -> Network:
    """random_relabel for networks of any size."""
    inner = net.inner_vertices()
    vmap = {0: 0, 1: 1, **dict(zip(inner, rng.sample(range(2, 2 + 4 * len(inner)), len(inner))))}
    emap = dict(zip(net.edges, rng.sample(range(4 * len(net.edges)), len(net.edges))))
    return relabel(net, vmap, emap)


def brute_force_least(net: Network, comp, legs: bool = False):
    """Every start serialized in full; the least code, and the leg
    numbering of each start that gives it, in start order."""
    full = []
    for root in sorted(comp):
        seen = ([], []) if legs else None
        full.append((tuple(_component_records(net, root, seen)), seen))
    best = min(code for code, _ in full)
    return best, [seen for code, seen in full if code == best]


def brute_force_code(net: Network) -> tuple:
    comps, strays = _components(net)
    codes = [("C", brute_force_least(net, comp)[0]) for comp in comps]
    codes += [("S", net.edges[e].tindex, net.edges[e].hindex) for e in strays]
    return (net.coarity, net.arity, tuple(sorted(codes)))


def test_port_labelled_isomorphism_oracle(rng, hopf_sig):
    # codes are equal exactly when the networks are isomorphic as
    # port-labelled graphs: each edge is a node joined to its tail and head
    # by arcs that carry the port indices, so parallel edges stay apart
    nx = pytest.importorskip("networkx")
    iso = nx.algorithms.isomorphism

    def graph(net: Network):
        g = nx.DiGraph()
        for v in net.vertices:
            sym = net.deco.get(v)
            g.add_node(("v", v), label=(sym.name, sym.coarity, sym.arity) if sym else v)
        for e, ends in net.edges.items():
            g.add_node(("e", e), label="edge")
            g.add_edge(("v", ends.tail), ("e", e), port=ends.tindex)
            g.add_edge(("e", e), ("v", ends.head), port=ends.hindex)
        return g

    def isomorphic(a: Network, b: Network) -> bool:
        return nx.is_isomorphic(
            graph(a),
            graph(b),
            node_match=iso.categorical_node_match("label", None),
            edge_match=iso.categorical_edge_match("port", None),
        )

    symbols = list(hopf_sig)
    pool = [random_network(rng, symbols, max_inner=6, max_strays=2) for _ in range(120)]
    pairs = []
    for net in pool:
        # the same network with its legs permuted: isomorphic only when
        # the permutation just swaps equal components or strays
        sigma, tau = random_perm(rng, net.coarity), random_perm(rng, net.arity)
        pairs.append((net, random_relabel(rng, act(sigma, net, tau))))
    by_shape: dict[tuple, list[Network]] = {}
    for net in pool:
        by_shape.setdefault((net.coarity, net.arity, len(net.deco)), []).append(net)
    for group in by_shape.values():
        pairs += [(a, b) for i, a in enumerate(group) for b in group[i + 1 : i + 4]]
    # the same network under new vertex and edge ids: always isomorphic
    relabelled = [(net, random_relabel(rng, net)) for net in pool]

    equal = unequal = several = 0
    for a, b in pairs:
        same_code = canonical_code(a) == canonical_code(b)
        assert same_code == isomorphic(a, b)
        equal += same_code
        unequal += not same_code
        comps, strays = _components(a)
        several += len(comps) + len(strays) > 1
    assert equal > 50 and unequal > 50 and several > 50
    for a, b in relabelled:
        assert canonical_code(a) == canonical_code(b) and isomorphic(a, b)


def test_least_code_equals_brute_force(rng, hopf_sig):
    nets = [random_network(rng, list(hopf_sig), max_inner=10, max_strays=2) for _ in range(300)]
    nets += [right_comb(n, top) for n in (1, 2, 7, 12) for top in (True, False)]
    nets += [circle_chain(n, top) for n in (1, 2, 7, 14) for top in (True, False)]
    nets += [wide_relabel(rng, net) for net in nets[-16:]]
    for net in nets:
        assert canonical_code(net) == brute_force_code(net)
        for comp in _components(net)[0]:
            assert _least_code(net, comp)[0] == brute_force_least(net, comp)[0]


def test_leg_relabelings_match_brute_force_ties(rng, hopf_sig, monkeypatch):
    nets = [random_network(rng, list(hopf_sig), max_inner=6, max_strays=2) for _ in range(300)]
    nets += [wide_relabel(rng, crossed_bialgebra()) for _ in range(5)]
    got = [_leg_relabelings(net) for net in nets]
    monkeypatch.setattr(netrw.ambiguity, "_least_code", brute_force_least)
    want = [_leg_relabelings(net) for net in nets]
    assert got == want
    assert sum(len(pairs) > 1 for pairs in got) > 50
    # two starts of the one component tie
    assert all(len(pairs) == 2 for pairs in got[-5:])


LABELS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def parsed_comb(n: int, rng: random.Random) -> Network:
    """The right comb of n products as closed text, with random labels and
    its factors shuffled, parsed."""
    labels = rng.sample(LABELS, 2 * n + 1)
    factors = [f"m^{labels[2 * k]}_{labels[2 * k + 1]}{labels[2 * k + 2]}" for k in range(n)]
    rng.shuffle(factors)
    ins = [labels[2 * k + 1] for k in range(n)] + [labels[2 * n]]
    return parsed(f"[{labels[0]}|{' '.join(factors)}|{' '.join(ins)}]")


def parsed_chain(n: int, rng: random.Random) -> Network:
    """y^n as text with random labels, its factors written from the top or
    from the bottom, parsed."""
    labels = rng.sample(LABELS, n + 1)
    factors = [f"y^{labels[k]}_{labels[k + 1]}" for k in range(n)]
    if rng.random() < 0.5:
        factors.reverse()
    return parsed(" ".join(factors))


def parsed(text: str) -> Network:
    """The network that the parser builds for a monomial's text."""
    (cls,) = parse_term(text, parse_signature("gen m 1 2\ngen y 1 1\n")).terms
    return cls.net


def test_records_per_call_at_most_twice_the_vertices(rng, monkeypatch):
    # a deterministic work guard: every start serialized in full costs V^2
    # records; abandoning starts at their first losing record costs 2V - 1
    # on combs, whatever the order of their factors, and on chains written
    # from either end.  A comb numbered at random costs at most 2V.  (A
    # chain numbered at random can cost far more, because starts in its
    # middle tie with each other until one reaches an end: 113 records
    # for the worst of 30 shuffles at V = 20.)
    counted = [0]

    def counting_records(*args):
        for rec in _component_records(*args):
            counted[0] += 1
            yield rec

    def records(net):
        counted[0] = 0
        canonical_code(net)
        return counted[0]

    monkeypatch.setattr(netrw.network, "_component_records", counting_records)
    exact = [right_comb(25, True), right_comb(25, False), circle_chain(14, True), circle_chain(14, False)]
    for n in (4, 8, 14, 20):
        for seed in range(30):
            text_rng = random.Random(f"{n}/{seed}")
            exact += [parsed_comb(n, text_rng), parsed_chain(n, text_rng)]
    for net in exact:
        assert records(net) == 2 * len(net.deco) - 1
    for net in [wide_relabel(rng, right_comb(25)) for _ in range(5)]:
        assert records(net) <= 2 * len(net.deco)
