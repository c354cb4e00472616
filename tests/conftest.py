"""Shared fixtures: signatures, random generators, the PROP axiom suite,
test-only oracles for composition, tensor, the symmetric join, the
embedding search, contexts from mod-m segment labels, the unindexed redex
search, context admissibility, evaluation, the command line parser, the
term parser that built deltas as neutral vertices, cuts and splits,
smoothening, gluing enumeration and the gluing's node tables, the neutral
symbol, every network of a shape over given generators, and test-only
helpers for permutation actions on classes, boolean evaluation,
a member-keeping union-find and its copies, reduction-step text, connectivity data and the
corpus's rule pairs."""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import pytest
from hypothesis import settings

from netrw.cli import UsageError
from netrw.core import BoolMat, Perm, Signature, Symbol, cross, parse_signature, same
from netrw.ainparse import (
    _BARE_LABEL_CHARS,
    _ONE,
    AinError,
    Factor,
    Term,
    _coefficient,
    _delta_names,
    parse_rules,
)
from netrw.freeprop import LinComb, NetClass, class_of, join_condition, join_transference
from netrw.match import (
    Embedding,
    _grow_component,
    complement,
    context_type_ok,
    contexts,
    embeddings,
    pattern_parts,
    strong_embeddings,
)
from netrw.network import (
    Edge,
    InvalidNetworkError,
    Network,
    _topological_order,
    act,
    canonical_code,
    from_code,
    smoothen,
    transference,
    validate,
)
from netrw.props import ConnElem, Mat
from netrw.rewrite import ReductionStep, RuleError


#: The neutral symbol: a vertex that passes its one input on as its one
#: output, which ``smoothen`` removes.  No signature can declare it.
NEUTRAL = Symbol("~", 1, 1)


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
    deco = {}
    edges: dict[int, Edge] = {}
    eid = 0
    dangling: list[tuple[int, int]] = []  # (vertex, out index)
    in_stubs: list[int] = []  # edge ids with tail at the input vertex

    for k in range(n_inner):
        v = 2 + k
        sym = rng.choice(symbols)
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
    return validate(edges, deco)


def relabel(net: Network, vmap: Mapping[int, int], emap: Mapping[int, int]) -> Network:
    """Apply an isomorphism given by vertex and edge relabelings."""
    edges = {
        emap[e]: Edge(vmap[ends.head], ends.hindex, vmap[ends.tail], ends.tindex)
        for e, ends in net.edges.items()
    }
    deco = {vmap[v]: s for v, s in net.deco.items()}
    return Network(edges, deco)


def random_relabel(rng: random.Random, net: Network) -> Network:
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


def is_identity(p: Perm) -> bool:
    return all(v == i for i, v in enumerate(p.images, 1))


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
        assert (
            target.compose(target.compose(a, b), c)
            == target.compose(a, target.compose(b, c))
        )
        # composition identity
        assert target.compose(target.phi(same(k)), a) == a
        assert target.compose(a, target.phi(same(l))) == a
        # tensor associativity
        x, y, z = gen(rng, k, l), gen(rng, m, n), gen(rng, r, s)
        assert (
            target.tensor(target.tensor(x, y), z)
            == target.tensor(x, target.tensor(y, z))
        )
        # tensor identity
        unit = target.phi(same(0))
        assert target.tensor(unit, x) == x
        assert target.tensor(x, unit) == x
        # composition-tensor compatibility
        a2, b2 = gen(rng, k, l), gen(rng, l, m)
        c2, d2 = gen(rng, r, s), gen(rng, s, n)
        assert (
            target.tensor(target.compose(a2, b2), target.compose(c2, d2))
            == target.compose(target.tensor(a2, c2), target.tensor(b2, d2))
        )
        # permutation composition and juxtaposition
        sig1, tau1 = random_perm(rng, n), random_perm(rng, n)
        assert (
            target.compose(target.phi(sig1), target.phi(tau1))
            == target.phi(sig1.compose(tau1))
        )
        sig2_, tau2 = random_perm(rng, m), random_perm(rng, n)
        assert (
            target.tensor(target.phi(sig2_), target.phi(tau2))
            == target.phi(sig2_.star(tau2))
        )
        # tensor permutation
        a3, b3 = gen(rng, k, l), gen(rng, m, n)
        assert (
            target.compose(target.phi(cross(k, m)), target.tensor(a3, b3))
            == target.compose(target.tensor(b3, a3), target.phi(cross(l, n)))
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

    def compose(self, a, b):
        from netrw.freeprop import compose

        return compose(a, b)

    def tensor(self, a, b):
        from netrw.freeprop import tensor

        return tensor(a, b)

    def phi(self, p):
        from netrw.freeprop import phi

        return phi(p)


# ---------------------------------------------------------------------------
# Composition and tensor oracle: the hand-built gluings that the symmetric
# join replaced in the library
# ---------------------------------------------------------------------------


def _disjoint_pair(a: Network, b: Network) -> tuple[Network, Network]:
    """Relabel b so ids do not collide with a (vertices 0,1 shared)."""
    voff = max(a.vertices) + 1
    eoff = max(a.edges, default=-1) + 1
    vmap = {v: (v if v in (0, 1) else v + voff) for v in b.vertices}
    emap = {e: e + eoff for e in b.edges}
    return a, relabel(b, vmap, emap)


def reference_compose(a: NetClass, b: NetClass) -> NetClass:
    """Glue: outputs of b feed the inputs of a."""
    assert a.arity == b.coarity
    upper, lower = _disjoint_pair(a.rep, b.rep)
    edges: dict[int, Edge] = {}
    # interface: output leg j of lower merges with input leg j of upper
    up_in = {ends.tindex: ends for ends in upper.edges.values() if ends.tail == 1}
    for e, ends in lower.edges.items():
        if ends.head == 0:
            uends = up_in[ends.hindex]
            edges[e] = Edge(uends.head, uends.hindex, ends.tail, ends.tindex)
        else:
            edges[e] = ends
    for e, ends in upper.edges.items():
        if ends.tail != 1:
            edges[e] = ends
    deco = {**lower.deco, **upper.deco}
    return class_of(Network(edges, deco))


def reference_tensor(a: NetClass, b: NetClass) -> NetClass:
    """Juxtapose: b's legs are shifted after a's."""
    left, right = _disjoint_pair(a.rep, b.rep)
    edges = dict(left.edges)
    for e, ends in right.edges.items():
        hindex = ends.hindex + a.coarity if ends.head == 0 else ends.hindex
        tindex = ends.tindex + a.arity if ends.tail == 1 else ends.tindex
        edges[e] = Edge(ends.head, hindex, ends.tail, tindex)
    deco = {**left.deco, **right.deco}
    return class_of(Network(edges, deco))


def reference_join_network(ka: Network, hb: Network, r: int, q: int) -> Network:
    """The symmetric join network with one neutral vertex per joined wire,
    not smoothened: the construction that the library's one-pass join
    replaced."""
    k = ka.coarity - r
    l = ka.arity - q
    edges: dict[int, Edge] = {}
    deco = {2 + i: NEUTRAL for i in range(1, r + q + 1)}
    for v in ka.inner_vertices():
        deco[r + q + 2 * v] = ka.deco[v]
    for v in hb.inner_vertices():
        deco[r + q + 2 * v + 1] = hb.deco[v]

    for e, ends in ka.edges.items():
        if ends.head != 0:
            head, hindex = r + q + 2 * ends.head, ends.hindex
        elif ends.hindex <= k:
            head, hindex = 0, ends.hindex
        else:
            head, hindex = 2 + ends.hindex - k, 1
        if ends.tail != 1:
            tail, tindex = r + q + 2 * ends.tail, ends.tindex
        elif ends.tindex <= l:
            tail, tindex = 1, ends.tindex
        else:
            tail, tindex = 2 + r + ends.tindex - l, 1
        edges[2 * e] = Edge(head, hindex, tail, tindex)
    for e, ends in hb.edges.items():
        if ends.head != 0:
            head, hindex = r + q + 2 * ends.head + 1, ends.hindex
        elif ends.hindex <= q:
            head, hindex = 2 + r + ends.hindex, 1
        else:
            head, hindex = 0, k + ends.hindex - q
        if ends.tail != 1:
            tail, tindex = r + q + 2 * ends.tail + 1, ends.tindex
        elif ends.tindex <= r:
            tail, tindex = 2 + ends.tindex, 1
        else:
            tail, tindex = 1, l + ends.tindex - r
        edges[2 * e + 1] = Edge(head, hindex, tail, tindex)
    return Network(edges, deco)


def reference_sym_join(a: NetClass, r: int, q: int, b: NetClass) -> NetClass:
    """a join^r_q b by neutral vertices, then smoothening; the caller
    vouches that the join is defined."""
    return class_of(smoothen(reference_join_network(a.net, b.net, r, q)))


# ---------------------------------------------------------------------------
# Embedding oracle: the search over every image of every anchor at once,
# which the library's walk over the first anchor's images replaced
# ---------------------------------------------------------------------------


def reference_find_embeddings(pattern: Network, subject: Network) -> list[Embedding]:
    """All embeddings of ``pattern`` into ``subject``, sorted by vertex map,
    then edge map, from one product over every anchor's images."""
    anchors, strays, inner = pattern_parts(pattern)
    per_comp = []
    for anchor in anchors:
        sym = pattern.deco[anchor]
        found = [
            grown
            for w in subject.inner_vertices()
            if subject.deco[w] == sym
            and (grown := _grow_component(pattern, subject, anchor, w)) is not None
        ]
        if not found:
            return []
        per_comp.append(found)
    subject_edges = sorted(subject.edges)
    results = []
    for combo in itertools.product(*per_comp):
        chi: dict[int, int] = {}
        psi: dict[int, int] = {}
        for part_chi, part_psi in combo:
            chi.update(part_chi)
            psi.update(part_psi)
        if len(set(chi.values())) != len(chi):
            continue
        vertex_map = tuple(sorted(chi.items()))
        taken = {psi[e] for e in inner}
        free = [x for x in subject_edges if x not in taken]
        for stray_images in itertools.product(free, repeat=len(strays)):
            psi.update(zip(strays, stray_images))
            results.append(Embedding(vertex_map, tuple(sorted(psi.items()))))
    return results


# ---------------------------------------------------------------------------
# Context oracle: segment labels psi(e) + m * slot modulo m, decoded by the
# complement with % m and a sort, which the per-edge leg order replaced
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceStrongEmbedding:
    """An embedding enriched with injective segment labels (mod m)."""

    base: Embedding
    modulus: int
    segment_map: tuple[tuple[int, int], ...]  # (pattern edge, segment label)

    def psi_prime(self) -> dict[int, int]:
        return dict(self.segment_map)


def reference_strong_embeddings(
    emb: Embedding, pattern: Network, subject: Network
) -> list[ReferenceStrongEmbedding]:
    """All segment labelings of an embedding.

    Pattern edges sharing a subject edge are ordered tail to head: an edge
    with an inner tail is the tailmost segment, one with an inner head is
    the headmost, and stray edges fill the remaining slots in every
    possible order.
    """
    psi = dict(emb.edge_map)
    m = max(subject.edges, default=0) + 1
    classes: dict[int, list[int]] = {}
    for e in sorted(psi):
        classes.setdefault(psi[e], []).append(e)

    per_class: list[list[dict[int, int]]] = []
    for x, members in sorted(classes.items()):
        first = [e for e in members if pattern.edges[e].tail != 1]
        last = [e for e in members if pattern.edges[e].head != 0]
        middle = [e for e in members if e not in first and e not in last]
        assignments = []
        if len(members) == 1:
            assignments.append({members[0]: 0})
        else:
            slots = list(range(len(members)))
            fixed: dict[int, int] = {}
            if first:
                fixed[first[0]] = slots.pop(0)
            if last:
                fixed[last[0]] = slots.pop()
            for order in itertools.permutations(middle):
                theta = dict(fixed)
                for slot, e in zip(slots, order):
                    theta[e] = slot
                assignments.append(theta)
        per_class.append(assignments)

    out = []
    for combo in itertools.product(*per_class):
        theta: dict[int, int] = {}
        for part in combo:
            theta.update(part)
        seg = {e: psi[e] + m * theta[e] for e in psi}
        out.append(ReferenceStrongEmbedding(emb, m, tuple(sorted(seg.items()))))
    return out


def reference_complement(subject: Network, pattern: Network, se: ReferenceStrongEmbedding) -> NetClass:
    """The context K with class(subject) = annex(class(K), class(pattern)),
    as a class held by the complement network, not yet canonicalized.

    Follows the padding construction: segment labels donate edge ids, the
    context keeps the subject vertices outside the embedding, and the
    extra legs of K line up with the pattern's legs.
    """
    psi = se.psi_prime()
    m = se.modulus
    gone = set(dict(se.base.vertex_map).values())

    # the pattern's legs on each subject edge, tail to head, as (label, leg)
    segments: dict[int, list[tuple[int, int]]] = {}
    for label, e in sorted((label, e) for e, label in psi.items()):
        ends = pattern.edges[e]
        if ends.head == 0 or ends.tail == 1:
            segments.setdefault(label % m, []).append((label, e))

    edges: dict[int, Edge] = {}
    omega_g, alpha_g = subject.coarity, subject.arity
    for x, ends in subject.edges.items():
        seg = segments.get(x)
        if seg is None:
            if ends.head not in gone and ends.tail not in gone:
                edges[x] = ends
            continue
        if ends.head not in gone:
            label, donor = seg[-1]
            edges[m + label] = Edge(
                ends.head, ends.hindex, 1, alpha_g + pattern.edges[donor].hindex
            )
        if ends.tail not in gone:
            label, leg = seg[0]
            edges[label] = Edge(
                0, omega_g + pattern.edges[leg].tindex, ends.tail, ends.tindex
            )
        for (_, donor), (label, leg) in zip(seg, seg[1:]):
            edges[label] = Edge(
                0,
                omega_g + pattern.edges[leg].tindex,
                1,
                alpha_g + pattern.edges[donor].hindex,
            )
    deco = {v: sym for v, sym in subject.deco.items() if v not in gone}
    return NetClass(Network(edges, deco))


def reference_contexts(emb: Embedding, pattern: Network, subject: Network) -> list[NetClass]:
    """``match.contexts`` from mod-m segment labels: one context per
    labeling of ``emb``, in labeling order."""
    return [
        reference_complement(subject, pattern, se)
        for se in reference_strong_embeddings(emb, pattern, subject)
    ]


# ---------------------------------------------------------------------------
# Context admissibility oracle
# ---------------------------------------------------------------------------


def reference_monomial_redexes(nu: NetClass, q: BoolMat, rules):
    """Yield (rule, context K) pairs admissible at ambient type q, in the
    deterministic redex order; ``rules`` are sorted by id.

    The redex search with no index: every rule is searched in every
    monomial, and every context is checked, the oracle of
    ``rewrite._monomial_redexes``."""
    for rule in rules:
        pattern = rule.lhs.rep
        for emb in embeddings(pattern, nu.rep, rule.lhs_parts):
            for ctx in contexts(emb, pattern, nu.rep):
                if context_type_ok(ctx.tr, rule.qtype, q):
                    yield rule, ctx


def reference_context_type_ok(k_tr: BoolMat, q_rule: BoolMat, q_ambient: BoolMat) -> bool:
    """``match.context_type_ok`` computing the block formula under every
    ambient type, the all-ones one included."""
    r, q = q_rule.cols, q_rule.rows
    if not join_condition(k_tr, q_rule, r, q).is_nilpotent():
        return False
    return join_transference(k_tr, q_rule, r, q).leq(q_ambient)


def reference_evaluate(net: Network, target, assign: Mapping[str, object]):
    """``network.evaluate`` composing with phi of every frontier
    permutation, the identity included, on a valid assignment."""
    images = {v: assign[net.deco[v].name] for v in net.inner_vertices()}
    frontier = [net.out_edge(1, j) for j in range(1, net.arity + 1)]
    value = target.phi(same(net.arity))
    for v in _topological_order(images, net.edges.values()):
        ins = net.in_edges(v)
        others = [e for e in frontier if e not in ins]
        pos = {e: i for i, e in enumerate(others + ins, 1)}
        value = target.compose(target.phi(Perm(tuple(pos[e] for e in frontier))), value)
        value = target.compose(target.tensor(target.phi(same(len(others))), images[v]), value)
        frontier = others + net.out_edges(v)
    pos = {e: i for i, e in enumerate((net.in_edge(0, i) for i in range(1, net.coarity + 1)), 1)}
    return target.compose(target.phi(Perm(tuple(pos[e] for e in frontier))), value)


# ---------------------------------------------------------------------------
# Command-line oracle: the argparse parser that the table-driven
# ``cli._parse_args`` replaced
# ---------------------------------------------------------------------------


class ReferenceParser(argparse.ArgumentParser):
    """Raises :class:`cli.UsageError` where argparse would print the usage
    and exit; subparsers are made of the same class."""

    def error(self, message):
        raise UsageError(message)


# name -> help, in the order ``netrw --help`` lists them
REFERENCE_COMMANDS = {
    "validate": "check a term against the network axioms",
    "iso": "decide isomorphism of two terms",
    "tr": "transference matrix of a monomial",
    "eval": "evaluate a term in a built-in target",
    "join": "symmetric join of two terms",
    "normalize": "reduce a term to normal form",
    "ambiguities": "list ambiguities of a rule system",
    "confluence": "resolve all ambiguities",
    "complete": "orient unresolved differences into new rules",
    "order-check": "check strictness and rule compatibility",
}


def _reference_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """The arguments of subcommand ``name``, in the order its help lists them."""

    # rules and order: None leaves the option out, else whether it is required
    def common(rules=None, order=None, target=False, steps=False):
        p.add_argument("--sig", required=True, help="signature file")
        if rules is not None:
            p.add_argument("--rules", required=rules, help="rules file")
        if order is not None:
            p.add_argument("--order", required=order, help="order preset file")
        if target:
            p.add_argument("--target", required=True, help="target PROP name")
            p.add_argument("--map", help="generator assignment file")
        if steps:
            p.add_argument("--max-steps", type=int, default=None)

    if name in ("validate", "tr"):
        common()
        p.add_argument("term")
    elif name == "iso":
        common()
        p.add_argument("a")
        p.add_argument("b")
    elif name == "eval":
        common(target=True)
        p.add_argument("term")
    elif name == "join":
        common()
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("a")
        p.add_argument("b")
    elif name == "normalize":
        common(rules=True, order=False, steps=True)
        p.add_argument("--type", choices=["ones", "zero"], default="ones")
        p.add_argument("term")
    elif name == "ambiguities":
        common(rules=True)
        p.add_argument("--pair", nargs=2, metavar=("S1", "S2"))
    elif name == "confluence":
        common(rules=True, order=False, steps=True)
    elif name == "complete":
        common(rules=True, order=True, steps=True)
    else:  # order-check
        common(rules=False, order=True)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse command line parser, with every subcommand."""
    parser = ReferenceParser(prog="netrw", description="rewriting engine for free linear PROPs")
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in REFERENCE_COMMANDS.items():
        _reference_arguments(sub.add_parser(name, help=help_text), name)
    return parser


CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"


def corpus_rule_pairs():
    """Every pair (s1, s2) of rules of one corpus system with s1's id at
    most s2's, as ``confluence_report`` pairs them."""
    pairs = []
    for system in ("assoc", "circle", "bridge", "zigzag", "frobenius", "hopf"):
        sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
        text = (CORPUS / f"{system}.rules").read_text(encoding="utf-8")
        rules = sorted(parse_rules(text, sig), key=lambda r: r.rule_id)
        pairs += [(s1, s2) for i, s1 in enumerate(rules) for s2 in rules[i:]]
    return pairs


def swap_everywhere(monkeypatch, real, replacement):
    """Replace every binding of ``real`` in the netrw modules, as the
    benchmark's tracer does."""
    for name, module in list(sys.modules.items()):
        if name == "netrw" or name.startswith("netrw."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, replacement)


def act_class(sigma: Perm | None, a: NetClass, tau: Perm | None = None) -> NetClass:
    """The class of sigma . a . tau, by ``network.act`` on a's representative."""
    return class_of(act(sigma, a.rep, tau))


def eager_class(net: Network) -> NetClass:
    """The class of net with every field computed at once, each from its
    definition: the canonical code, the representative rebuilt from it,
    and that representative's transference."""
    cls = NetClass.__new__(NetClass)
    cls.code = canonical_code(net)
    cls.rep = cls.net = from_code(cls.code)
    cls.tr = transference(cls.rep)
    cls._hash = hash(cls.code)
    return cls


def eager_contexts(emb: Embedding, pattern: Network, subject: Network) -> list[NetClass]:
    """``match.contexts`` with every context canonicalized as it is taken:
    the eager class of each labeling's complement network, repeats
    dropped, so that a list as long as ``contexts``' shows it has none."""
    labelings = strong_embeddings(emb, pattern)
    return list(dict.fromkeys(eager_class(complement(subject, pattern, se).net) for se in labelings))


def computed(cls: NetClass, field: str) -> bool:
    """Whether a deferred field of a class has been computed, found
    without computing it."""
    try:
        object.__getattribute__(cls, field)
    except AttributeError:
        return False
    return True


def same_network(a: Network, b: Network) -> bool:
    """Whether two networks have the same vertices, edges and decorations."""
    return (a.vertices, a.edges, a.deco) == (b.vertices, b.edges, b.deco)


class ReferenceUnionFind:
    """Disjoint sets over a fixed universe.

    ``members`` maps each root to the frozenset of its class, so a class
    is read without a pass over the universe.
    """

    __slots__ = ("parent", "members")

    def __init__(self, items: Iterable = ()):
        self.parent = {x: x for x in items}
        self.members = {x: frozenset((x,)) for x in self.parent}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        """Merge the classes of a and b; return the root of the result."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.members[rb] = self.members[rb] | self.members.pop(ra)
        return rb


def copy_union_find(uf: ReferenceUnionFind) -> ReferenceUnionFind:
    """An independent copy that shares the member sets with its source."""
    twin = ReferenceUnionFind()
    twin.parent = dict(uf.parent)
    twin.members = dict(uf.members)
    return twin


def format_step(step: ReductionStep, fmt=None) -> str:
    """Serialize a step record; ``fmt`` renders combinations (defaults to repr)."""
    if fmt is None:
        fmt = repr
    return (
        f"apply {step.rule_id} at {fmt(LinComb.monomial(step.context))} : "
        f"{fmt(LinComb.monomial(step.before))} -> {fmt(step.after)}"
    )


#: cup/cap datum in the connectivity PROP used as a fixed regression test:
#: evaluates the zig-zag composite to the identity.
CONN_CUP = ConnElem(0, 2, frozenset({frozenset({(1, 1), (1, 2)})}), 0)
CONN_CAP = ConnElem(2, 0, frozenset({frozenset({(0, 1), (0, 2)})}), 0)


def all_ones_assignment(symbols) -> dict[str, BoolMat]:
    """The generator images under which boolean evaluation is transference."""
    return {sym.name: BoolMat.ones(sym.coarity, sym.arity) for sym in symbols}


# ---------------------------------------------------------------------------
# Cuts and splits
# ---------------------------------------------------------------------------


class DecompositionError(ValueError):
    pass


def cut(net: Network, w0: set[int], w1: set[int], ordering: Mapping[int, int]) -> tuple[Network, Network]:
    """Decompose along an ordered cut (W0 above, W1 below).

    ``ordering`` maps each cut edge to its interface position (1-based).
    """
    inner = set(net.inner_vertices())
    if w0 | w1 != inner or w0 & w1:
        raise DecompositionError("not a bipartition of the inner vertices")
    for e, ends in net.edges.items():
        if ends.head in w1 and ends.tail in w0:
            raise DecompositionError(f"NotACut: edge {e} goes from W0 to W1")
    cut_edges = [
        e
        for e, ends in net.edges.items()
        if (ends.head in w0 or ends.head == 0) and (ends.tail in w1 or ends.tail == 1)
    ]
    if sorted(ordering.keys()) != sorted(cut_edges) or sorted(ordering.values()) != list(
        range(1, len(cut_edges) + 1)
    ):
        raise DecompositionError("NotACut: bad interface ordering")

    e_upper = {e for e, ends in net.edges.items() if ends.head in w0 or ends.head == 0}
    e_lower = {e for e, ends in net.edges.items() if ends.tail in w1 or ends.tail == 1}
    cutset = set(cut_edges)

    upper_edges = {}
    for e in e_upper:
        ends = net.edges[e]
        if e in cutset:
            upper_edges[e] = Edge(ends.head, ends.hindex, 1, ordering[e])
        else:
            upper_edges[e] = ends
    lower_edges = {}
    for e in e_lower:
        ends = net.edges[e]
        if e in cutset:
            lower_edges[e] = Edge(0, ordering[e], ends.tail, ends.tindex)
        else:
            lower_edges[e] = ends
    upper = Network(upper_edges, {v: net.deco[v] for v in w0})
    lower = Network(lower_edges, {v: net.deco[v] for v in w1})
    return upper, lower


def split(
    net: Network, fl: set[int], fr: set[int], wl: set[int], wr: set[int]
) -> tuple[Network, Network]:
    """Decompose along a split into left and right tensor factors."""
    inner = set(net.inner_vertices())
    if wl | wr != inner or wl & wr:
        raise DecompositionError("not a bipartition of the inner vertices")
    if fl | fr != set(net.edges) or fl & fr:
        raise DecompositionError("not a bipartition of the edges")
    for e in fl:
        ends = net.edges[e]
        if ends.head not in wl | {0} or ends.tail not in wl | {1}:
            raise DecompositionError(f"NotASplit: edge {e} leaves the left part")
    for e in fr:
        ends = net.edges[e]
        if ends.head not in wr | {0} or ends.tail not in wr | {1}:
            raise DecompositionError(f"NotASplit: edge {e} leaves the right part")
    left_out = sorted(net.edges[e].hindex for e in fl if net.edges[e].head == 0)
    right_out = sorted(net.edges[e].hindex for e in fr if net.edges[e].head == 0)
    if left_out != list(range(1, len(left_out) + 1)) or right_out != list(
        range(len(left_out) + 1, net.coarity + 1)
    ):
        raise DecompositionError("NotASplit: output legs interleave")
    left_in = sorted(net.edges[e].tindex for e in fl if net.edges[e].tail == 1)
    right_in = sorted(net.edges[e].tindex for e in fr if net.edges[e].tail == 1)
    if left_in != list(range(1, len(left_in) + 1)) or right_in != list(
        range(len(left_in) + 1, net.arity + 1)
    ):
        raise DecompositionError("NotASplit: input legs interleave")

    k, l = len(left_out), len(left_in)
    left_edges = {e: net.edges[e] for e in fl}
    right_edges = {}
    for e in fr:
        ends = net.edges[e]
        hindex = ends.hindex - k if ends.head == 0 else ends.hindex
        tindex = ends.tindex - l if ends.tail == 1 else ends.tindex
        right_edges[e] = Edge(ends.head, hindex, ends.tail, tindex)
    left = Network(left_edges, {v: net.deco[v] for v in wl})
    right = Network(right_edges, {v: net.deco[v] for v in wr})
    return left, right


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


# ---------------------------------------------------------------------------
# Gluing oracle: the tuple-keyed enumeration that ambiguity._decisive_sites
# replaced, kept here unchanged as an independent reference
# ---------------------------------------------------------------------------

Node = tuple[str, int, int]  # ("v"|"e", side, id)


class _GlueState:
    """A gluing of both patterns: the classes of their vertices and edges."""

    def __init__(self, nets: dict[int, Network], uf: ReferenceUnionFind | None = None):
        self.nets = nets
        if uf is None:
            nodes: list[Node] = []
            for side, net in nets.items():
                nodes += [("v", side, v) for v in net.inner_vertices()]
                nodes += [("e", side, e) for e in net.edges]
            uf = ReferenceUnionFind(nodes)
        self.uf = uf

    def copy(self) -> "_GlueState":
        return _GlueState(self.nets, copy_union_find(self.uf))

    def signature(self) -> frozenset:
        return frozenset(c for c in self.uf.members.values() if len(c) > 1)

    def _edge_class_ok(self, members: frozenset[Node], pending: list) -> bool:
        per_side_heads: dict[int, list[Node]] = {1: [], 2: []}
        per_side_tails: dict[int, list[Node]] = {1: [], 2: []}
        heads = []
        tails = []
        for node in members:
            _, side, e = node
            ends = self.nets[side].edges[e]
            if ends.head != 0:
                per_side_heads[side].append(node)
                heads.append((side, ends.head, ends.hindex))
            if ends.tail != 1:
                per_side_tails[side].append(node)
                tails.append((side, ends.tail, ends.tindex))
        for side in (1, 2):
            if len(per_side_heads[side]) > 1 or len(per_side_tails[side]) > 1:
                return False
            internal = [
                n
                for n in members
                if n[1] == side
                and self.nets[side].edges[n[2]].head != 0
                and self.nets[side].edges[n[2]].tail != 1
            ]
            if internal and sum(1 for n in members if n[1] == side) > 1:
                return False
        for (s1, v1, i1), (s2, v2, i2) in itertools.combinations(heads, 2):
            if i1 != i2:
                return False
            pending.append((("v", s1, v1), ("v", s2, v2)))
        for (s1, v1, i1), (s2, v2, i2) in itertools.combinations(tails, 2):
            if i1 != i2:
                return False
            pending.append((("v", s1, v1), ("v", s2, v2)))
        return True

    def merge(self, a: Node, b: Node) -> bool:
        """Glue a to b and close under port consistency; False when the
        gluing is inconsistent, which leaves the state unusable."""
        pending = [(a, b)]
        uf = self.uf
        while pending:
            x, y = pending.pop()
            rx, ry = uf.find(x), uf.find(y)
            if rx == ry:
                continue
            if rx[0] != ry[0]:
                return False
            kind = rx[0]
            merged = uf.members[uf.union(rx, ry)]
            if kind == "v":
                per_side: dict[int, set[int]] = {1: set(), 2: set()}
                for _, side, v in merged:
                    per_side[side].add(v)
                if len(per_side[1]) > 1 or len(per_side[2]) > 1:
                    return False
                decos = {self.nets[side].deco[v] for _, side, v in merged}
                if len(decos) != 1:
                    return False
                members = sorted(merged)
                base = members[0]
                _, bside, bv = base
                bnet = self.nets[bside]
                for other in members[1:]:
                    _, oside, ov = other
                    onet = self.nets[oside]
                    sym = bnet.deco[bv]
                    for i in range(1, sym.arity + 1):
                        pending.append(
                            (
                                ("e", bside, bnet.in_edge(bv, i)),
                                ("e", oside, onet.in_edge(ov, i)),
                            )
                        )
                    for i in range(1, sym.coarity + 1):
                        pending.append(
                            (
                                ("e", bside, bnet.out_edge(bv, i)),
                                ("e", oside, onet.out_edge(ov, i)),
                            )
                        )
            elif not self._edge_class_ok(merged, pending):
                return False
        return True


def _possible_seeds(state: _GlueState) -> list[tuple[Node, Node]]:
    h1, h2 = state.nets[1], state.nets[2]
    find = state.uf.find
    seeds = []
    for v1 in h1.inner_vertices():
        for v2 in h2.inner_vertices():
            if h1.deco[v1] == h2.deco[v2]:
                if find(("v", 1, v1)) != find(("v", 2, v2)):
                    seeds.append((("v", 1, v1), ("v", 2, v2)))
    for side, other in ((1, 2), (2, 1)):
        ns, no = state.nets[side], state.nets[other]
        for e, ends in sorted(ns.edges.items()):
            if ends.head == 0 and ends.tail == 1:  # stray
                for f, fe in sorted(no.edges.items()):
                    if fe.head != 0 and fe.tail != 1:
                        if find(("e", side, e)) != find(("e", other, f)):
                            seeds.append((("e", side, e), ("e", other, f)))
    for side, other in ((1, 2), (2, 1)):
        ns, no = state.nets[side], state.nets[other]
        for e, ends in sorted(ns.edges.items()):
            if ends.head != 0:
                continue
            for f, fe in sorted(no.edges.items()):
                if fe.tail != 1:
                    continue
                if find(("e", side, e)) != find(("e", other, f)):
                    seeds.append((("e", side, e), ("e", other, f)))
    return seeds


def _build_site(state: _GlueState) -> tuple[Network, Embedding, Embedding, bool] | None:
    """Assemble the glued network with the embedding of each pattern and
    its terseness; None when it is cyclic."""
    classes = state.uf.members

    vclasses = sorted(
        (root for root in classes if root[0] == "v"),
        key=lambda r: min(classes[r]),
    )
    vid_of: dict[Node, int] = {}
    deco = {}
    for i, root in enumerate(vclasses):
        vid = 2 + i
        members = classes[root]
        for node in members:
            vid_of[node] = vid
        _, side, v = min(members)
        deco[vid] = state.nets[side].deco[v]

    eclasses = sorted(
        (root for root in classes if root[0] == "e"),
        key=lambda r: min(classes[r]),
    )
    eid_of: dict[Node, int] = {}
    edges: dict[int, Edge] = {}
    out_legs = []
    in_legs = []
    terse = True
    for eid, root in enumerate(eclasses):
        head = tail = None
        hindex = tindex = None
        out_sides, in_sides = set(), set()
        for node in classes[root]:
            eid_of[node] = eid
            _, side, e = node
            ends = state.nets[side].edges[e]
            if ends.head != 0:
                head, hindex = vid_of[("v", side, ends.head)], ends.hindex
            else:
                out_sides.add(side)
            if ends.tail != 1:
                tail, tindex = vid_of[("v", side, ends.tail)], ends.tindex
            else:
                in_sides.add(side)
        # terseness 2/3: an output leg of one pattern and an input leg of
        # the other sharing an edge makes the ambiguity a wrap, not terse
        if any(s != t for s in out_sides for t in in_sides):
            terse = False
        if head is None:
            out_legs.append(eid)
        if tail is None:
            in_legs.append(eid)
        edges[eid] = Edge(head, hindex, tail, tindex)
    if len(_topological_order(deco, edges.values())) < len(deco):
        return None
    for pos, eid in enumerate(out_legs, 1):
        ends = edges[eid]
        edges[eid] = Edge(0, pos, ends.tail, ends.tindex)
    for pos, eid in enumerate(in_legs, 1):
        ends = edges[eid]
        edges[eid] = Edge(ends.head, ends.hindex, 1, pos)

    site = validate(edges, deco)
    emb1, emb2 = (
        Embedding(
            tuple((v, vid_of[("v", side, v)]) for v in net.inner_vertices()),
            tuple((e, eid_of[("e", side, e)]) for e in sorted(net.edges)),
        )
        for side, net in sorted(state.nets.items())
    )
    return site, emb1, emb2, terse


def _is_montage(state: _GlueState, q1: BoolMat, q2: BoolMat) -> bool:
    """A gluing with no shared vertices and no internal-edge sharing is a
    montage iff its leg wiring is sequentially consistent."""
    classes = state.uf.members
    for root, members in classes.items():
        if root[0] == "v" and len({n[1] for n in members}) > 1:
            return False
    wires = []
    for root, members in classes.items():
        if root[0] != "e" or len(members) < 2:
            continue
        for node in members:
            _, side, e = node
            ends = state.nets[side].edges[e]
            if ends.head != 0 and ends.tail != 1 and any(n[1] != side for n in members):
                return False  # something lies over an internal edge
        outs = [n for n in members if state.nets[n[1]].edges[n[2]].head == 0]
        ins = [n for n in members if state.nets[n[1]].edges[n[2]].tail == 1]
        for o in outs:
            for n in ins:
                if o == n:
                    continue
                wires.append((o, n))
    if not wires:
        return True
    omega1, alpha1 = q1.rows, q1.cols
    total_in = alpha1 + q2.cols
    total_out = omega1 + q2.rows
    w_back = BoolMat.zeros(total_in, total_out)
    for o, n in wires:
        _, oside, oe = o
        _, nside, ne = n
        out_pos = state.nets[oside].edges[oe].hindex - 1 + (0 if oside == 1 else omega1)
        in_pos = state.nets[nside].edges[ne].tindex - 1 + (0 if nside == 1 else alpha1)
        w_back = w_back.set(in_pos, out_pos, 1)
    q_tensor = q1.tensor(q2)
    return w_back.mul(q_tensor).is_nilpotent()


def reference_sites(s1, s2):
    """The gluing enumeration without pruning: a recursion that lists every
    gluing state, then builds the site of each non-montage; None stands
    for a cyclic one."""
    seen = set()
    states = []

    def rec(state):
        sig = state.signature()
        if sig in seen:
            return
        seen.add(sig)
        if sig:
            states.append(state)
        for a, b in _possible_seeds(state):
            nxt = state.copy()
            if nxt.merge(a, b):
                rec(nxt)

    rec(_GlueState({1: s1.lhs.rep, 2: s2.lhs.rep}))
    return [_build_site(st) for st in states if not _is_montage(st, s1.qtype, s2.qtype)]


# The node tables that ambiguity._PairTables read from a per-rule layer,
# kept here unchanged: a network renumbered from 0 whatever its ids, and
# both sides joined by shifting each number by its block's offset.


class NodeTables:
    """A network's edges and inner vertices as integer tables: edges are
    numbered from 0 in id order, inner vertices from 0 in id order, and
    each table lists them in that order.  A leg's missing end is None."""

    def __init__(self, net: Network):
        self.eids = eids = sorted(net.edges)
        self.vids = vids = net.inner_vertices()
        enum = {e: i for i, e in enumerate(eids)}
        vnum = {v: j for j, v in enumerate(vids)}
        # per vertex: its symbol, and its in-edges and its out-edges by port
        self.symbol = [net.deco[v] for v in vids]
        self.ports = [
            (tuple(enum[e] for e in net.in_edges(v)), tuple(enum[e] for e in net.out_edges(v)))
            for v in vids
        ]
        # the vertices of each symbol
        self.by_symbol: dict[Symbol, list[int]] = {}
        for j, sym in enumerate(self.symbol):
            self.by_symbol.setdefault(sym, []).append(j)
        # per edge: its head and tail vertex with their port index
        ends = [net.edges[e] for e in eids]
        self.head = [vnum.get(x.head) for x in ends]
        self.tail = [vnum.get(x.tail) for x in ends]
        self.hindex = [x.hindex for x in ends]
        self.tindex = [x.tindex for x in ends]
        self.internal = [h is not None and t is not None for h, t in zip(self.head, self.tail)]
        # edges between inner vertices, strays, output legs and input legs
        self.inner = [e for e, x in enumerate(self.internal) if x]
        self.strays = [e for e, x in enumerate(ends) if x.head == 0 and x.tail == 1]
        self.outs = [e for e, x in enumerate(ends) if x.head == 0]
        self.ins = [e for e, x in enumerate(ends) if x.tail == 1]


def _shift(nodes: list[int | None], offset: int) -> list[int | None]:
    return [None if n is None else n + offset for n in nodes]


class _ReferencePairTables:
    """The tables of ``ambiguity._PairTables`` from each side's
    ``NodeTables``, by the constructor that read them."""

    def __init__(self, s1, s2):
        t1, t2 = NodeTables(s1.lhs.rep), NodeTables(s2.lhs.rep)
        e1, v1 = len(t1.eids), len(t1.vids)
        self.n_edges = ne = e1 + len(t2.eids)
        # the id of each node, and the nodes of each kind and side
        self.ids = t1.eids + t2.eids + t1.vids + t2.vids
        n = len(self.ids)
        self.part = {
            ("e", 1): range(e1),
            ("e", 2): range(e1, ne),
            ("v", 1): range(ne, ne + v1),
            ("v", 2): range(ne + v1, n),
        }
        self.side = [1] * e1 + [2] * (ne - e1) + [1] * v1 + [2] * (n - ne - v1)
        self.symbol = [None] * ne + t1.symbol + t2.symbol
        # per vertex: its in-edges and its out-edges by port
        self.ports = [None] * ne + t1.ports + [
            (tuple(e + e1 for e in ins), tuple(e + e1 for e in outs)) for ins, outs in t2.ports
        ]
        # per edge: its head and tail vertex (None at a leg) with their port index
        self.head = _shift(t1.head, ne) + _shift(t2.head, ne + v1)
        self.tail = _shift(t1.tail, ne) + _shift(t2.tail, ne + v1)
        self.hindex = t1.hindex + t2.hindex
        self.tindex = t1.tindex + t2.tindex
        self.internal = t1.internal + t2.internal
        self.headed = [(e, h) for e, h in enumerate(self.head) if h is not None]
        self.tailed = [(e, t) for e, t in enumerate(self.tail) if t is not None]
        # the montage test's wiring runs from an output leg (a row of
        # q1 (+) q2) to an input leg (a column)
        q1, q2 = s1.qtype, s2.qtype
        self.qtype = q1.tensor(q2)
        self.out_pos = [i - 1 for i in t1.hindex] + [i - 1 + q1.rows for i in t2.hindex]
        self.in_pos = [i - 1 for i in t1.tindex] + [i - 1 + q1.cols for i in t2.tindex]

        # two vertices of one symbol
        seeds = [
            (ne + a, ne + v1 + b) for a, sym in enumerate(t1.symbol) for b in t2.by_symbol.get(sym, ())
        ]
        # a stray edge over an internal edge
        seeds += [(a, e1 + b) for a in t1.strays for b in t2.inner]
        seeds += [(e1 + a, b) for a in t2.strays for b in t1.inner]
        # an output leg wired to an input leg
        seeds += [(a, e1 + b) for a in t1.outs for b in t2.ins]
        seeds += [(e1 + a, b) for a in t2.outs for b in t1.ins]
        self.seeds = seeds


def reference_pair_tables(s1, s2) -> dict:
    """Every table of a rule pair's ``_PairTables``, by name, as the
    per-rule node tables gave them."""
    return vars(_ReferencePairTables(s1, s2))


# ---------------------------------------------------------------------------
# The eager rule-file loader, the oracle of the deferred one
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceRule:
    """A rule as the eager loader built it: both sides canonical."""

    rule_id: str
    qtype: BoolMat
    lhs: NetClass
    rhs: LinComb
    sharp: bool


def _reference_split_additive(text: str) -> list[tuple[int, str]]:
    """Split at top-level +/- into (sign, chunk) pieces.  One sign may
    stand between two terms or before the first; the text after the last
    sign, or the whole text when there is none, must be a term."""
    pieces = []
    depth = 0
    sign = 0  # the sign since the last term; 0 before any
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in "+-" and depth == 0:
            if any(c.strip() for c in cur):
                pieces.append((sign or 1, "".join(cur)))
            elif sign:
                raise AinError("Syntax", f"two signs in a row in {text!r}")
            sign = -1 if ch == "-" else 1
            cur = []
        else:
            cur.append(ch)
    if not any(c.strip() for c in cur):
        raise AinError("Syntax", f"dangling sign or empty expression in {text!r}")
    pieces.append((sign or 1, "".join(cur)))
    return pieces



# The label readers and term builder of the two-pass parser, which built
# each delta as a neutral vertex that smoothening removed: the oracle of
# the one-pass builder.


def reference_braced_labels(body: str) -> list[str]:
    labels = []
    for word in body.split():
        for ch in word:
            if ch not in _BARE_LABEL_CHARS:
                raise AinError("Syntax", f"bad label character {ch!r}")
            labels.append(ch)
    return labels


def reference_parse_leglist(text: str) -> list[str]:
    labels = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "{":
            j = text.find("}", i)
            if j < 0:
                raise AinError("Syntax", "unterminated brace in label list")
            labels.extend(reference_braced_labels(text[i + 1 : j]))
            i = j + 1
        elif ch in _BARE_LABEL_CHARS:
            labels.append(ch)
            i += 1
        else:
            raise AinError("Syntax", f"unexpected {ch!r} in label list")
    return labels


def reference_parse_script(text: str, i: int) -> tuple[list[str], int]:
    """Parse the script immediately after ^ or _, returning (labels, pos)."""
    if i < len(text) and text[i] == "{":
        j = text.find("}", i)
        if j < 0:
            raise AinError("Syntax", "unterminated brace in script")
        return reference_braced_labels(text[i + 1 : j]), j + 1
    labels = []
    while i < len(text) and text[i] in _BARE_LABEL_CHARS:
        labels.append(text[i])
        i += 1
    if not labels:
        raise AinError("Syntax", "empty script")
    return labels, i


def reference_parse_product(text: str) -> tuple[Fraction, list[Factor]]:
    """Parse ``[coefficient] factor*`` (the part between bars, or a naked term)."""
    i = 0
    n = len(text)
    coeff = _ONE
    factors: list[Factor] = []
    seen_coeff = False
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i].isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "/"):
                j += 1
            if seen_coeff or factors:
                raise AinError("Syntax", f"unexpected number at {text[i:j]!r}")
            coeff = _coefficient(text[i:j])
            seen_coeff = True
            i = j
            continue
        if not text[i].isalpha():
            raise AinError("Syntax", f"unexpected {text[i]!r} in term")
        j = i
        while j < n and (text[j].isalnum()):
            j += 1
        name = text[i:j]
        i = j
        sups: list[str] = []
        subs: list[str] = []
        while i < n and text[i] in "^_":
            marker = text[i]
            labels, i = reference_parse_script(text, i + 1)
            if marker == "^":
                if sups:
                    raise AinError("Syntax", f"two superscripts on {name!r}")
                sups = labels
            else:
                if subs:
                    raise AinError("Syntax", f"two subscripts on {name!r}")
                subs = labels
        factors.append(Factor(name, sups, subs))
    return coeff, factors


def reference_term_label_roles(term: Term, sig: Signature) -> tuple[list[str], list[str]]:
    """Unmatched (superscript, subscript) labels in first-appearance order."""
    sups: list[str] = []
    subs: list[str] = []
    for f in term.factors:
        sups.extend(f.sups)
        subs.extend(f.subs)
    sup_set, sub_set = set(sups), set(subs)
    if len(sup_set) != len(sups) or len(sub_set) != len(subs):
        raise AinError("RepeatedLabel", "label used twice in the same role")
    outs = [l for l in sups if l not in sub_set]
    ins = [l for l in subs if l not in sup_set]
    return outs, ins


def reference_term_parts(
    term: Term, sig: Signature, outs: list[str], ins: list[str]
) -> tuple[list[int], dict[int, Edge], dict[int, Symbol]]:
    """The vertices, edges and decorations of a term's network.

    Each label joins the port that produces it to the one that consumes it,
    so once every label is produced and consumed exactly once and each
    factor has its symbol's arities, ports are unique and contiguous and
    every vertex id is valid.  A directed cycle is the one network axiom
    the parts can still break."""
    deltas = _delta_names(sig)
    producers: dict[str, tuple[int, int]] = {}
    consumers: dict[str, tuple[int, int]] = {}

    def add_producer(label: str, where: tuple[int, int]) -> None:
        if label in producers:
            raise AinError("RepeatedLabel", f"label {label!r} produced twice")
        producers[label] = where

    def add_consumer(label: str, where: tuple[int, int]) -> None:
        if label in consumers:
            raise AinError("RepeatedLabel", f"label {label!r} consumed twice")
        consumers[label] = where

    for j, label in enumerate(ins, 1):
        add_producer(label, (1, j))
    for i, label in enumerate(outs, 1):
        add_consumer(label, (0, i))

    deco: dict[int, Symbol] = {}
    vid = 2
    for f in term.factors:
        if f.name in deltas:
            sym = NEUTRAL
            if len(f.sups) != 1 or len(f.subs) != 1:
                raise AinError("ArityMismatch", "delta takes one superscript and one subscript")
        elif f.name in sig:
            sym = sig[f.name]
            if len(f.sups) != sym.coarity or len(f.subs) != sym.arity:
                raise AinError(
                    "ArityMismatch",
                    f"{f.name!r} wants {sym.coarity} superscripts and {sym.arity} subscripts",
                )
        else:
            raise AinError("UnknownSymbol", f"{f.name!r} not in signature")
        deco[vid] = sym
        for i, label in enumerate(f.sups, 1):
            add_producer(label, (vid, i))
        for i, label in enumerate(f.subs, 1):
            add_consumer(label, (vid, i))
        vid += 1

    if set(producers) != set(consumers):
        only_p = sorted(set(producers) - set(consumers))
        only_c = sorted(set(consumers) - set(producers))
        raise AinError(
            "RepeatedLabel",
            f"unbalanced labels (produced only: {only_p}, consumed only: {only_c})",
        )

    edges = {}
    for eid, label in enumerate(sorted(producers)):
        tail, tindex = producers[label]
        head, hindex = consumers[label]
        edges[eid] = Edge(head, hindex, tail, tindex)
    return [0, 1, *deco], edges, deco



def _reference_parse_chunk(chunk: str) -> Term:
    s = chunk.strip()
    coeff = Fraction(1)
    # leading coefficient before a bracket
    i = 0
    while i < len(s) and (s[i].isdigit() or s[i] == "/"):
        i += 1
    if i and i < len(s) and s[i:].lstrip().startswith("["):
        coeff = _coefficient(s[:i])
        s = s[i:].lstrip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise AinError("Syntax", f"unterminated bracket in {chunk!r}")
        inner = s[1:-1]
        parts = inner.split("|")
        if len(parts) != 3:
            raise AinError("Syntax", "closed term needs two bars")
        outs = reference_parse_leglist(parts[0])
        ins = reference_parse_leglist(parts[2])
        body = parts[1].strip()
        if body == "1":
            c2, factors = Fraction(1), []
        else:
            c2, factors = reference_parse_product(parts[1])
        return Term(coeff * c2, True, outs, ins, factors)
    body = s.strip()
    if body == "1" or body == "":
        return Term(coeff, False, None, None, [])
    c2, factors = reference_parse_product(s)
    return Term(coeff * c2, False, None, None, factors)



def _reference_build_term(term: Term, sig: Signature, outs: list[str], ins: list[str]) -> NetClass:
    """The class of a term's network.  Only a cycle can make the parts
    invalid, so they are validated only when a topological order misses a
    vertex, for the message that names the cycle's edges."""
    _, edges, deco = reference_term_parts(term, sig, outs, ins)
    if len(_topological_order(deco, edges.values())) < len(deco):
        try:
            validate(edges, deco)
        except InvalidNetworkError as exc:
            raise AinError("CycleInTerm", str(exc)) from None
    return class_of(smoothen(Network(edges, deco)))



def _reference_parse_combination(
    text: str, sig: Signature, lead_outs: list[str] | None, lead_ins: list[str] | None
) -> tuple[LinComb, list[str], list[str]]:
    """The combination and the leg labels (outs, ins) that order its naked
    terms: the given ones, else the first term's own."""
    terms = [(sign, _reference_parse_chunk(chunk)) for sign, chunk in _reference_split_additive(text)]
    result: LinComb | None = None
    for sign, term in terms:
        if term.closed:
            outs, ins = term.outs, term.ins
        else:
            outs, ins = reference_term_label_roles(term, sig)
            if lead_outs is None:
                lead_outs, lead_ins = outs, ins
            else:
                if sorted(outs) != sorted(lead_outs) or sorted(ins) != sorted(lead_ins):
                    raise AinError(
                        "LegOrderMismatchAcrossTerms",
                        "additive terms have different unmatched label sets",
                    )
                outs, ins = lead_outs, lead_ins
        if lead_outs is None:
            lead_outs, lead_ins = outs, ins
        cls = _reference_build_term(term, sig, outs, ins)
        mono = LinComb.monomial(cls, term.coeff * sign)
        if result is None:
            result = mono
        elif (result.coarity, result.arity) != (mono.coarity, mono.arity):
            raise AinError("LegOrderMismatchAcrossTerms", "terms have different shapes")
        else:
            result = result + mono
    assert result is not None and lead_outs is not None and lead_ins is not None
    return result, lead_outs, lead_ins


def reference_parse_term(text: str, sig: Signature) -> LinComb:
    """The two-pass parser's ``parse_term``, each class canonicalized at once."""
    return _reference_parse_combination(text, sig, None, None)[0]



def reference_parse_rules(text: str, sig: Signature) -> list[ReferenceRule]:
    """Parse a rule file: one rule per line,

        rule <id> [sharp]: <lhs> -> <rhs> [where <out> ~> <in>[, ...]]
    """
    rules: list[ReferenceRule] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("rule "):
            raise AinError("Syntax", f"line {lineno}: expected 'rule'")
        head, _, rest = line[5:].partition(":")
        head_words = head.split()
        if not head_words:
            raise AinError("Syntax", f"line {lineno}: missing rule id")
        rule_id = head_words[0]
        sharp = head_words[1:] == ["sharp"]
        if head_words[1:] not in ([], ["sharp"]):
            raise AinError("Syntax", f"line {lineno}: bad rule header")
        if rule_id in seen:
            raise AinError("Syntax", f"line {lineno}: duplicate rule id {rule_id!r}")
        seen.add(rule_id)

        body, _, where = rest.partition(" where ")
        lhs_text, arrow, rhs_text = body.partition("->")
        if not arrow:
            raise AinError("Syntax", f"line {lineno}: missing '->'")
        lhs, outs, ins = _reference_parse_combination(lhs_text, sig, None, None)
        if not lhs.is_monomial():
            raise RuleError(f"rule {rule_id!r}: LhsNotMonomial")
        rhs = _reference_parse_combination(rhs_text, sig, outs, ins)[0]

        if where.strip():
            if sharp:
                raise AinError("Syntax", f"line {lineno}: sharp rule with a where clause")
            zeros = []
            for clause in where.split(","):
                out_label, arrow2, in_label = clause.partition("~>")
                if not arrow2:
                    raise AinError("Syntax", f"line {lineno}: bad where clause")
                out_label, in_label = out_label.strip(), in_label.strip()
                if out_label not in outs or in_label not in ins:
                    raise AinError(
                        "Syntax", f"line {lineno}: where clause labels not legs"
                    )
                zeros.append((outs.index(out_label), ins.index(in_label)))
            typespec = zeros
        elif sharp:
            typespec = "sharp"
        else:
            typespec = []
        rules.append(_reference_make_rule(rule_id, lhs, rhs, typespec))
    return rules



def lc(x: NetClass | LinComb) -> LinComb:
    """x as a combination: a class is its own monomial."""
    return x if isinstance(x, LinComb) else LinComb.monomial(x)


def _reference_make_rule(
    rule_id: str,
    lhs: NetClass | LinComb,
    rhs: NetClass | LinComb,
    typespec="sharp",
) -> ReferenceRule:
    """Assemble and check a rule.

    ``typespec`` is ``"sharp"`` (type = lhs transference), a list of
    0-based ``(output, input)`` positions to zero out of the all-ones
    type, or an explicit :class:`BoolMat`.
    """
    lhs_lc = lc(lhs)
    if not lhs_lc.is_monomial() or lhs_lc.items()[0][1] != 1:
        raise RuleError(f"rule {rule_id!r}: LhsNotMonomial")
    mu = lhs_lc.monomials()[0]
    rhs_lc = lc(rhs)
    if (rhs_lc.coarity, rhs_lc.arity) != (mu.coarity, mu.arity):
        raise RuleError(f"rule {rule_id!r}: lhs and rhs shapes differ")

    if typespec == "sharp":
        q = mu.tr
        sharp = True
    elif isinstance(typespec, BoolMat):
        q = typespec
        sharp = q == mu.tr
    else:
        q = BoolMat.ones(mu.coarity, mu.arity)
        for i, j in typespec:
            q = q.set(i, j, 0)
        sharp = q == mu.tr
    if (q.rows, q.cols) != (mu.coarity, mu.arity):
        raise RuleError(f"rule {rule_id!r}: type shape mismatch")
    if not mu.tr.leq(q):
        raise RuleError(f"rule {rule_id!r}: TrExceedsType")
    for pos, (term, _) in enumerate(rhs_lc.items()):
        if not term.tr.leq(q):
            raise RuleError(f"rule {rule_id!r}: RhsOutsideType(term {pos})")
    return ReferenceRule(rule_id, q, mu, rhs_lc, sharp)


# ---------------------------------------------------------------------------
# Every network of a shape over a multiset of generators, for counts
# against closed forms
# ---------------------------------------------------------------------------


def all_wirings(symbols: Sequence[Symbol], m: int, n: int) -> list[NetClass]:
    """One class for each isomorphism class of acyclic networks of shape
    (m, n) whose inner vertices carry exactly these symbols, in order of
    first appearance.

    The producers are the vertex outputs and the n input legs, and the
    consumers the vertex inputs and the m output legs; each bijection
    from producers to consumers wires one edge from each producer to its
    image.  Cyclic wirings are dropped and the rest deduplicated by code."""
    deco = dict(enumerate(symbols, 2))
    producers = [(1, j) for j in range(1, n + 1)]
    producers += [(v, i) for v, sym in deco.items() for i in range(1, sym.coarity + 1)]
    consumers = [(0, i) for i in range(1, m + 1)]
    consumers += [(v, j) for v, sym in deco.items() for j in range(1, sym.arity + 1)]
    if len(producers) != len(consumers):
        return []
    classes: dict[tuple, NetClass] = {}
    for image in itertools.permutations(consumers):
        edges = {e: Edge(*head, *tail) for e, (tail, head) in enumerate(zip(producers, image))}
        if len(_topological_order(deco, edges.values())) == len(deco):
            cls = class_of(Network(edges, deco))
            classes.setdefault(cls.code, cls)
    return list(classes.values())
