"""Shared fixtures: signatures, random generators, the PROP axiom suite,
test-only oracles for cuts and smoothening, and test-only helpers for
permutation actions on classes and boolean evaluation."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import settings

from netrw.core import BoolMat, Perm, Signature, Symbol, cross, same
from netrw.freeprop import LinComb, NetClass, class_of
from netrw.network import Edge, Network, act, validate
from netrw.props import Mat


# Hypothesis draws the same examples on every run and keeps no example
# database, so tier-1 stays deterministic.
settings.register_profile("netrw", derandomize=True, deadline=None, database=None)
settings.load_profile("netrw")


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture
def sig2():
    """The two-symbol signature used by the brute-force suites."""
    return Signature([Symbol("m", 1, 2), Symbol("D", 2, 1)])


@pytest.fixture
def hopf_sig():
    return Signature(
        [
            Symbol("m", 1, 2),
            Symbol("eta", 1, 0),
            Symbol("D", 2, 1),
            Symbol("eps", 0, 1),
            Symbol("S", 1, 1),
        ]
    )


def random_network(
    rng: random.Random,
    symbols,
    max_inner: int = 4,
    max_strays: int = 1,
    min_inner: int = 0,
) -> Network:
    """A uniform-ish random decorated acyclic port-graph.

    Vertices are created in a topological order; each input port either
    consumes a dangling output of an earlier vertex or becomes an input
    leg, and leftover outputs become output legs.
    """
    n_inner = rng.randint(min_inner, max_inner)
    vertices = {0, 1}
    deco = {}
    edges: dict[int, Edge] = {}
    eid = 0
    dangling: list[tuple[int, int]] = []  # (vertex, out index)
    in_stubs: list[int] = []  # edge ids with tail at the input vertex

    for k in range(n_inner):
        v = 2 + k
        sym = rng.choice(symbols)
        vertices.add(v)
        deco[v] = sym
        for i in range(1, sym.arity + 1):
            if dangling and rng.random() < 0.6:
                u, j = dangling.pop(rng.randrange(len(dangling)))
                edges[eid] = Edge(v, i, u, j)
            else:
                edges[eid] = Edge(v, i, 1, 0)  # tail index patched below
                in_stubs.append(eid)
            eid += 1
        for i in range(1, sym.coarity + 1):
            dangling.append((v, i))

    for _ in range(rng.randint(0, max_strays)):
        edges[eid] = Edge(0, 0, 1, 0)
        in_stubs.append(eid)
        eid += 1

    out_stubs = []
    for u, j in dangling:
        edges[eid] = Edge(0, 0, u, j)
        out_stubs.append(eid)
        eid += 1
    out_stubs += [e for e, ends in edges.items() if ends.head == 0 and e not in out_stubs]

    rng.shuffle(in_stubs)
    for pos, e in enumerate(in_stubs, 1):
        ends = edges[e]
        edges[e] = Edge(ends.head, ends.hindex, 1, pos)
    rng.shuffle(out_stubs)
    for pos, e in enumerate(out_stubs, 1):
        ends = edges[e]
        edges[e] = Edge(0, pos, ends.tail, ends.tindex)
    return validate(vertices, edges, deco)


def random_relabel(rng: random.Random, net: Network) -> Network:
    from netrw.network import relabel

    inner = net.inner_vertices()
    new_ids = [2 + rng.randrange(50) for _ in inner]
    while len(set(new_ids)) != len(inner):
        new_ids = [2 + rng.randrange(50) for _ in inner]
    vmap = {0: 0, 1: 1, **dict(zip(inner, new_ids))}
    eids = list(net.edges)
    new_eids = rng.sample(range(100), len(eids))
    emap = dict(zip(eids, new_eids))
    return relabel(net, vmap, emap)


def random_class(rng, symbols, max_inner=4, max_strays=1, min_inner=0) -> NetClass:
    return class_of(
        random_network(rng, symbols, max_inner=max_inner, max_strays=max_strays, min_inner=min_inner)
    )


def class_pool(rng, symbols, count, **kw):
    """Random classes bucketed by (coarity, arity)."""
    buckets: dict[tuple[int, int], list[NetClass]] = {}
    for _ in range(count):
        c = random_class(rng, symbols, **kw)
        buckets.setdefault((c.coarity, c.arity), []).append(c)
    return buckets


def random_nat_mat(rng, rows, cols, top=5) -> Mat:
    return Mat.from_rows(
        [[rng.randrange(top) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_perm(rng, n) -> Perm:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Perm(tuple(images))


# ---------------------------------------------------------------------------
# The shared PROP axiom suite
# ---------------------------------------------------------------------------


def check_prop_axioms(target, gen, rng, cases=70):
    """Exercise the eight PROP axioms on random data.

    ``gen(rng, m, n)`` must return a random element of shape (m, n).
    """

    def shapes():
        return rng.randint(0, 3), rng.randint(0, 3)

    for _ in range(cases):
        k, l = shapes()
        m, n = shapes()
        r, s = shapes()
        a, b, c = gen(rng, k, l), gen(rng, l, m), gen(rng, m, n)
        # composition associativity
        assert target.eq(
            target.compose(target.compose(a, b), c),
            target.compose(a, target.compose(b, c)),
        )
        # composition identity
        assert target.eq(target.compose(target.phi(same(k)), a), a)
        assert target.eq(target.compose(a, target.phi(same(l))), a)
        # tensor associativity
        x, y, z = gen(rng, k, l), gen(rng, m, n), gen(rng, r, s)
        assert target.eq(
            target.tensor(target.tensor(x, y), z),
            target.tensor(x, target.tensor(y, z)),
        )
        # tensor identity
        unit = target.phi(same(0))
        assert target.eq(target.tensor(unit, x), x)
        assert target.eq(target.tensor(x, unit), x)
        # composition-tensor compatibility
        a2, b2 = gen(rng, k, l), gen(rng, l, m)
        c2, d2 = gen(rng, r, s), gen(rng, s, n)
        assert target.eq(
            target.tensor(target.compose(a2, b2), target.compose(c2, d2)),
            target.compose(target.tensor(a2, c2), target.tensor(b2, d2)),
        )
        # permutation composition and juxtaposition
        sig1, tau1 = random_perm(rng, n), random_perm(rng, n)
        assert target.eq(
            target.compose(target.phi(sig1), target.phi(tau1)),
            target.phi(sig1.compose(tau1)),
        )
        sig2_, tau2 = random_perm(rng, m), random_perm(rng, n)
        assert target.eq(
            target.tensor(target.phi(sig2_), target.phi(tau2)),
            target.phi(sig2_.star(tau2)),
        )
        # tensor permutation
        a3, b3 = gen(rng, k, l), gen(rng, m, n)
        assert target.eq(
            target.compose(target.phi(cross(k, m)), target.tensor(a3, b3)),
            target.compose(target.tensor(b3, a3), target.phi(cross(l, n))),
        )


def exact_shape_class(rng, sig: Signature, m: int, n: int) -> NetClass:
    """A random free-PROP element of exactly the given shape, built as a
    random sequence of one-generator layers over a signature that can
    change widths in both directions (needs arity-0 and coarity-0
    symbols, e.g. the Hopf signature)."""
    from netrw.freeprop import compose, generator, identity, phi, tensor

    grow = [s for s in sig if s.coarity > s.arity]
    shrink = [s for s in sig if s.coarity < s.arity]
    anything = list(sig)
    acc = phi(random_perm(rng, n))
    width = n
    steps = 0
    while width != m or (rng.random() < 0.4 and steps < 6):
        steps += 1
        if steps > 24:
            pool = grow if width < m else shrink
        elif width < m:
            pool = grow if rng.random() < 0.7 else anything
        elif width > m:
            pool = shrink if rng.random() < 0.7 else anything
        else:
            pool = anything
        candidates = [s for s in pool if s.arity <= width]
        if not candidates:
            candidates = [s for s in anything if s.arity <= width]
            if not candidates:
                break
        sym = rng.choice(candidates)
        p = rng.randint(0, width - sym.arity)
        layer = tensor(identity(p), tensor(generator(sym), identity(width - p - sym.arity)))
        acc = compose(layer, acc)
        width = width - sym.arity + sym.coarity
        if rng.random() < 0.3:
            acc = compose(phi(random_perm(rng, width)), acc)
    if width != m:
        raise RuntimeError("shape walk failed")
    return compose(phi(random_perm(rng, m)), acc)


class FreePropTarget:
    """NetClass operations wrapped in the target interface, so the shared
    axiom suite can run over the free PROP itself."""

    name = "free"

    def dims(self, a: NetClass):
        return (a.coarity, a.arity)

    def eq(self, a, b):
        return a == b

    def compose(self, a, b):
        from netrw.freeprop import compose

        return compose(a, b)

    def tensor(self, a, b):
        from netrw.freeprop import tensor

        return tensor(a, b)

    def phi(self, p):
        from netrw.freeprop import phi

        return phi(p)


def act_class(sigma: Perm | None, a: NetClass, tau: Perm | None = None) -> NetClass:
    """The class of sigma . a . tau, by ``network.act`` on a's representative."""
    return class_of(act(sigma, a.rep, tau))


def all_ones_assignment(sym: Symbol) -> BoolMat:
    """The generator image under which boolean evaluation is transference."""
    return BoolMat.ones(sym.coarity, sym.arity)


# ---------------------------------------------------------------------------
# Cuts
# ---------------------------------------------------------------------------


def all_cuts(net: Network) -> list[tuple[set[int], set[int]]]:
    """All (W0, W1) cuts, for small networks."""
    inner = net.inner_vertices()
    out = []
    for mask in range(1 << len(inner)):
        w1 = {v for i, v in enumerate(inner) if mask >> i & 1}
        w0 = set(inner) - w1
        if all(
            not (ends.head in w1 and ends.tail in w0) for ends in net.edges.values()
        ):
            out.append((w0, w1))
    return out


def obvious_ordering(net: Network, w0: set[int], w1: set[int]) -> dict[int, int]:
    """Some valid interface ordering for the given cut (sorted by edge id)."""
    cut_edges = sorted(
        e
        for e, ends in net.edges.items()
        if (ends.head in w0 or ends.head == 0) and (ends.tail in w1 or ends.tail == 1)
    )
    return {e: i for i, e in enumerate(cut_edges, 1)}


# ---------------------------------------------------------------------------
# Homeomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Homeomorphism:
    """A pair (beta, gamma): beta maps target vertices into the source,
    gamma maps source edges onto target edges."""

    source: Network
    target: Network
    vertex_map: Mapping[int, int]  # target vertex -> source vertex, injective
    edge_map: Mapping[int, int]  # source edge -> target edge, surjective


def smoothing_homeomorphism(net: Network, smooth: Network) -> Homeomorphism:
    """The homeomorphism from ``net`` onto ``smooth = smoothen(net)``: beta
    is the identity on the kept vertices, and gamma sends each edge to the
    tailmost segment of its neutral chain, the one whose id survives."""

    def tailmost(e: int) -> int:
        while net.edges[e].tail not in smooth.vertices:
            e = net.in_edge(net.edges[e].tail, 1)
        return e

    gamma = {e: tailmost(e) for e in net.edges}
    beta = {v: v for v in smooth.vertices}
    return Homeomorphism(net, smooth, beta, gamma)


def is_homeomorphism(hom: Homeomorphism) -> bool:
    """Check the five homeomorphism conditions."""
    src, dst = hom.source, hom.target
    beta, gamma = dict(hom.vertex_map), dict(hom.edge_map)
    if beta.get(0) != 0 or beta.get(1) != 1:
        return False
    if len(set(beta.values())) != len(beta):
        return False
    if set(gamma.keys()) != set(src.edges) or set(gamma.values()) != set(dst.edges):
        return False
    image = set(beta.values())
    inv = {w: v for v, w in beta.items()}
    for v in dst.inner_vertices():
        if v not in beta or src.deco[beta[v]] != dst.deco[v]:
            return False
    for e, ends in src.edges.items():
        g = gamma[e]
        if ends.head in image:
            gd = dst.edges[g]
            if ends.head != beta[inv[ends.head]] or inv[ends.head] != gd.head:
                return False
            if ends.hindex != gd.hindex:
                return False
        if ends.tail in image:
            gd = dst.edges[g]
            if inv[ends.tail] != gd.tail or ends.tindex != gd.tindex:
                return False
    for v in src.vertices - image:
        sym = src.deco[v]
        if sym.arity != 1 or sym.coarity != 1:
            return False
        e_in = src.in_edge(v, 1)
        e_out = src.out_edge(v, 1)
        if gamma[e_in] != gamma[e_out]:
            return False
    return True
