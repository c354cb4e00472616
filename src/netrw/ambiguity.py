"""Enumeration of ambiguities for rule pairs, resolvability checking,
confluence reporting, and a completion loop.

Two left hand sides overlap when the gluing relation generated by a set
of seeds is consistent: shared inner vertices with equal decorations,
stray edges lying over internal edges of the other pattern, and leg-to-
leg wirings.  The last kind produces the "wrap" obstructions that are
invisible to classical overlap/inclusion analysis; gluings whose wiring
is sequentially consistent are montages and never reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import BoolMat, Perm
from .freeprop import LinComb, NetClass, class_of
from .match import Embedding
from .network import (
    Edge,
    Network,
    _components,
    _least_code,
    act,
    canonical_code,
    transference,
    validate,
)
from .order import LT, OrderSpec, check_compatible, compare
from .rewrite import Rule, _admitted_contexts, _replacement, joinable, make_rule

_RELABELING_CAP = 64  # leg relabelings listed per site at most
_MAX_ROUNDS = 8  # confluence reports per completion at most
_MAX_NEW_RULES = 32  # a completion stops once it has added more rules


@dataclass(frozen=True)
class Ambiguity:
    rule1_id: str
    rule2_id: str
    site: NetClass
    context1: NetClass
    context2: NetClass
    amb_type: BoolMat
    reduct1: LinComb
    reduct2: LinComb
    terse: bool
    key: tuple = field(compare=False)

    @property
    def trivial(self) -> bool:
        return (
            self.rule1_id == self.rule2_id
            and self.context1 == self.context2
            and self.reduct1 == self.reduct2
        )


class _PairTables:
    """Both left hand sides of a rule pair as integer node tables, read
    off their representatives.

    Nodes are numbered in the sorted order of the tuples ("e"|"v", side,
    id): the edges of side 1 and of side 2, then the inner vertices of each
    side.  A class of nodes is named by its least member, so the seed order
    and the numbering of a site follow the order of the tuples.  A
    representative's ids are dense (see ``from_code``), so a node is an id
    plus its block's offset.
    """

    def __init__(self, s1: Rule, s2: Rule):
        reps = s1.lhs.rep, s2.lhs.rep
        e1, v1 = len(reps[0].edges), len(reps[0].deco)
        self.n_edges = ne = e1 + len(reps[1].edges)
        n = ne + v1 + len(reps[1].deco)
        self.part = {
            ("e", 1): range(e1),
            ("e", 2): range(e1, ne),
            ("v", 1): range(ne, ne + v1),
            ("v", 2): range(ne + v1, n),
        }
        # the montage test's wiring runs from an output leg (a row of
        # q1 (+) q2) to an input leg (a column)
        q1, q2 = s1.qtype, s2.qtype
        self.qtype = q1.tensor(q2)
        # per node: its id and side; per vertex: its symbol, and its
        # in-edges and its out-edges by port; per edge: its head and tail
        # vertex (None at a leg) with their port index, and the position
        # of its legs in the montage wiring
        ids, side, symbol, ports = ([None] * n for _ in range(4))
        head, tail, hindex, tindex, out_pos, in_pos = ([None] * ne for _ in range(6))
        for s, rep, rows, cols in (1, reps[0], 0, 0), (2, reps[1], q1.rows, q1.cols):
            e0, v0 = self.part["e", s].start, self.part["v", s].start - 2
            for e, ends in rep.edges.items():
                x = e0 + e
                ids[x], side[x], hindex[x], tindex[x] = e, s, ends.hindex, ends.tindex
                head[x] = None if ends.head == 0 else v0 + ends.head
                tail[x] = None if ends.tail == 1 else v0 + ends.tail
                out_pos[x], in_pos[x] = ends.hindex - 1 + rows, ends.tindex - 1 + cols
            for v, sym in rep.deco.items():
                ids[v0 + v], side[v0 + v], symbol[v0 + v] = v, s, sym
                ports[v0 + v] = (
                    tuple(e0 + e for e in rep.in_edges(v)),
                    tuple(e0 + e for e in rep.out_edges(v)),
                )
        self.ids, self.side, self.symbol, self.ports = ids, side, symbol, ports
        self.head, self.tail, self.hindex, self.tindex = head, tail, hindex, tindex
        self.out_pos, self.in_pos = out_pos, in_pos
        self.internal = internal = [h is not None and t is not None for h, t in zip(head, tail)]

        verts1, verts2 = self.part["v", 1], self.part["v", 2]
        edges1, edges2 = self.part["e", 1], self.part["e", 2]
        # two vertices of one symbol
        seeds = [(a, b) for a in verts1 for b in verts2 if symbol[a] == symbol[b]]
        # a stray edge over an internal edge
        stray = [h is None and t is None for h, t in zip(head, tail)]
        for xs, ys in (edges1, edges2), (edges2, edges1):
            seeds += [(a, b) for a in xs if stray[a] for b in ys if internal[b]]
        # an output leg wired to an input leg
        for xs, ys in (edges1, edges2), (edges2, edges1):
            seeds += [(a, b) for a in xs if head[a] is None for b in ys if tail[b] is None]
        self.seeds = seeds

    def class_ok(self, members: list[int], forced: list[tuple[int, int]]) -> bool:
        """Whether these nodes may form one class; the pairs of nodes that
        the class glues are appended to forced.  Vertices, at most one
        per side and of one symbol, glue their edges port by port.  Edges,
        with at most one head and one tail per side, heads at one port index
        and tails at one, and an internal edge alone on its side, glue their
        heads and their tails."""
        side = self.side
        if members[0] >= self.n_edges:
            if len(members) > 2:
                return False
            a, b = members
            if side[a] == side[b] or self.symbol[a] != self.symbol[b]:
                return False
            for ports_a, ports_b in zip(self.ports[a], self.ports[b]):
                forced += zip(ports_a, ports_b)
            return True
        head, tail, internal = self.head, self.tail, self.internal
        # sets of sides as bits: side 1 is bit 1 and side 2 is bit 2
        seen = many = inner = heads = tails = 0
        h0 = t0 = None
        for n in members:
            s = side[n]
            many |= seen & s
            seen |= s
            if internal[n]:
                inner |= s
            if head[n] is not None:
                if heads & s or (h0 is not None and self.hindex[n] != self.hindex[h0]):
                    return False
                heads |= s
                if h0 is None:
                    h0 = n
                else:
                    forced.append((head[h0], head[n]))
            if tail[n] is not None:
                if tails & s or (t0 is not None and self.tindex[n] != self.tindex[t0]):
                    return False
                tails |= s
                if t0 is None:
                    t0 = n
                else:
                    forced.append((tail[t0], tail[n]))
        return not inner & many

    def is_montage(self, g: "_Gluing") -> bool:
        """A gluing that shares no vertex and no internal edge is a montage
        iff its leg wiring is sequentially consistent."""
        wiring = [0] * self.qtype.cols
        for members in g.members:
            if members is None or len(members) < 2:
                continue
            if members[0] >= self.n_edges or any(self.internal[n] for n in members):
                return False
            for o in members:
                if self.head[o] is None:
                    for n in members:
                        if n != o and self.tail[n] is None:
                            wiring[self.in_pos[n]] |= 1 << self.out_pos[o]
        return BoolMat(len(wiring), self.qtype.rows, tuple(wiring)).mul(self.qtype).is_nilpotent()

    def build_site(self, g: "_Gluing") -> tuple[Network, Embedding, Embedding, bool]:
        """The glued network of an acyclic gluing, with the embedding of
        each pattern and its terseness."""
        cls, members, ne = g.cls, g.members, self.n_edges
        roots = [n for n, ms in enumerate(members) if ms is not None]
        vid = {r: 2 + i for i, r in enumerate(r for r in roots if r >= ne)}
        eid = {r: i for i, r in enumerate(r for r in roots if r < ne)}
        deco = {v: self.symbol[r] for r, v in vid.items()}
        edges: dict[int, Edge] = {}
        out_legs = []
        in_legs = []
        terse = True
        for r, i in eid.items():
            head = tail = hindex = tindex = None
            out_sides = in_sides = 0  # sides as bits, as in class_ok
            for n in members[r]:
                if self.head[n] is None:
                    out_sides |= self.side[n]
                else:
                    head, hindex = vid[cls[self.head[n]]], self.hindex[n]
                if self.tail[n] is None:
                    in_sides |= self.side[n]
                else:
                    tail, tindex = vid[cls[self.tail[n]]], self.tindex[n]
            # terseness 2/3: an output leg of one pattern and an input leg of
            # the other sharing an edge makes the ambiguity a wrap, not terse
            if out_sides and in_sides and out_sides | in_sides == 3:
                terse = False
            if head is None:
                out_legs.append(i)
            if tail is None:
                in_legs.append(i)
            edges[i] = Edge(head, hindex, tail, tindex)
        for pos, i in enumerate(out_legs, 1):
            edges[i] = edges[i]._replace(head=0, hindex=pos)
        for pos, i in enumerate(in_legs, 1):
            edges[i] = edges[i]._replace(tail=1, tindex=pos)

        site = validate(edges, deco)
        emb1, emb2 = (
            Embedding(
                tuple((self.ids[n], vid[cls[n]]) for n in self.part["v", s]),
                tuple((self.ids[n], eid[cls[n]]) for n in self.part["e", s]),
            )
            for s in (1, 2)
        )
        return site, emb1, emb2, terse


class _Gluing:
    """A gluing of both patterns as a partition of the node numbers: each
    node's class, named by its least member, and at each class name the
    list of its members (None at other numbers), and two bit sets over
    class names.  ``reach`` holds the vertex classes that a path beginning
    at the class ends at, and ``start`` the vertex class that such a path
    begins at.  A path from a vertex class is nonempty; a path from an
    edge class begins with the edge, from any of its tail classes to any
    of its head classes.  ``glued`` changes only the copy it makes, and a
    member list is never changed in place, so copies share them."""

    __slots__ = ("cls", "members", "reach", "start")

    def __init__(
        self, cls: list[int], members: list[list[int] | None], reach: list[int], start: list[int]
    ):
        self.cls, self.members, self.reach, self.start = cls, members, reach, start

    @staticmethod
    def root(tables: _PairTables) -> "_Gluing":
        """The gluing that glues nothing, with the arcs of its internal edges."""
        n, ne = len(tables.ids), tables.n_edges
        reach = [0 if h is None else 1 << h for h in tables.head] + [0] * (n - ne)
        start = [0 if t is None else 1 << t for t in tables.tail] + [1 << v for v in range(ne, n)]
        g = _Gluing(list(range(n)), [[v] for v in range(n)], reach, start)
        for e, internal in enumerate(tables.internal):
            if internal:
                g._add_arcs(e)
        return g

    def copy(self) -> "_Gluing":
        return _Gluing(self.cls[:], self.members[:], self.reach[:], self.start[:])

    def closes_cycle(self, x: int, y: int) -> bool:
        """Whether gluing the classes x and y of this acyclic gluing closes
        a directed cycle: a path from one of them reaches where a path from
        one of them begins."""
        return bool((self.reach[x] | self.reach[y]) & (self.start[x] | self.start[y]))

    def _add_arcs(self, e: int) -> None:
        """Record the arcs of edge class e, from each of its tail classes to
        each of its head classes: every class that is a tail class, or
        reaches one, reaches all that e reaches."""
        reach, tails, gained = self.reach, self.start[e], self.reach[e]
        if gained and tails:
            for c, rc in enumerate(reach):
                if (rc | 1 << c) & tails:
                    reach[c] = rc | gained

    def glued(self, tables: _PairTables, a: int, b: int) -> "_Gluing | None":
        """The gluing of a to b closed under port consistency, with ``reach``
        and ``start`` exact at each union; None when the closure is
        inconsistent or closes a directed cycle.  Each union's tests run
        once, on the gluing it extends: this one, unchanged, until the
        first union passes them and it is copied."""
        g = self
        cls, members, reach, start = self.cls, self.members, self.reach, self.start
        pending = [(a, b)]
        while pending:
            x, y = pending.pop()
            lo, hi = cls[x], cls[y]
            if lo == hi:
                continue
            if hi < lo:
                lo, hi = hi, lo
            merged = members[lo] + members[hi]
            if g.closes_cycle(lo, hi) or not tables.class_ok(merged, pending):
                return None
            if g is self:
                g = self.copy()
                cls, members, reach, start = g.cls, g.members, g.reach, g.start
            for n in members[hi]:
                cls[n] = lo
            members[lo], members[hi] = merged, None
            reach[lo] |= reach[hi]
            if lo < tables.n_edges:
                start[lo] |= start[hi]
                g._add_arcs(lo)
                continue
            # a set that holds lo or hi now holds lo and all that lo reaches
            lo_bit, hi_bit = 1 << lo, 1 << hi
            gained = lo_bit | reach[lo]
            for c, rc in enumerate(reach):
                if rc & (lo_bit | hi_bit):
                    reach[c] = rc & ~hi_bit | gained
            for c, sc in enumerate(start):
                if sc & hi_bit:
                    start[c] = sc ^ hi_bit | lo_bit
        return g


def _decisive_sites(
    s1: Rule, s2: Rule
) -> Iterator[tuple[Network, Embedding, Embedding, bool]]:
    """The sites of the acyclic non-montage gluings of both left hand
    sides, each with the two embeddings and its terseness, in depth-first
    preorder of the gluings.

    The search walks a tree: a gluing reached by seed i tries only the
    seeds after i, and keeps a child only if it glues no earlier seed
    that the gluing leaves free.  So each gluing is generated once, by
    the least seed it glues that its parent leaves free, and no set of
    visited gluings is kept; the order is that of a search that tries
    every seed and skips the gluings it has seen.

    A cyclic gluing and all that refine it give no site (gluing more
    nodes maps a cycle onto a closed walk); ``glued`` rejects one at the
    union that closes its cycle, so no cyclic site is assembled."""
    tables = _PairTables(s1, s2)
    root = _Gluing.root(tables)
    stack = [(root, 0)]  # a gluing and the index of the first seed it tries
    while stack:
        state, first = stack.pop()
        # the root glues nothing, so it is no site
        if state is not root and not tables.is_montage(state):
            yield tables.build_site(state)
        cls = state.cls
        free = []  # the free seeds before seed i
        children = []
        for i, (a, b) in enumerate(tables.seeds):
            # a seed already glued gives no child
            if cls[a] == cls[b]:
                continue
            if i >= first:
                child = state.glued(tables, a, b)
                if child is not None and all(child.cls[x] != child.cls[y] for x, y in free):
                    children.append((child, i + 1))
            free.append((a, b))
        # popped in seed order: the first site to give a key supplies
        # its ambiguity, so the order is part of the result
        stack.extend(reversed(children))


def _leg_relabelings(site: Network) -> list[tuple[Perm, Perm]]:
    """Canonical leg reorderings: permutation pairs (sigma, tau) such that
    sigma . site . tau carries the canonical leg numbering.  Ties from
    equal-coded components yield several, at most ``_RELABELING_CAP``;
    all of them act to the same isomorphism class."""
    comps, strays = _components(site)
    entries = []  # (legless code, [per-root (outs, ins)])
    for comp in comps:
        best, assignments = _least_code(site, comp, legs=True)
        entries.append((("C", best), assignments))
    for e in strays:
        ends = site.edges[e]
        entries.append((("S",), [([ends.hindex], [ends.tindex])]))

    entries.sort(key=lambda kv: kv[0])
    groups: list[list[int]] = []
    for i, (code, _) in enumerate(entries):
        if groups and entries[groups[-1][0]][0] == code:
            groups[-1].append(i)
        else:
            groups.append([i])

    group_orders = [list(itertools.permutations(g)) for g in groups]
    if math.prod(map(len, group_orders)) > _RELABELING_CAP:
        group_orders = [[tuple(g)] for g in groups]

    out = []
    for ordering in itertools.product(*group_orders):
        flat = [i for group in ordering for i in group]
        for choice in itertools.product(*(entries[i][1] for i in flat)):
            if len(out) >= _RELABELING_CAP:
                break
            # every leg lies in exactly one component or stray, so these
            # list each old index once, at its new position
            new_out = tuple(old for outs, _ in choice for old in outs)
            new_in = tuple(old for _, ins in choice for old in ins)
            out.append((Perm(new_out).inverse(), Perm(new_in)))
    return out


def _code_under(cls: NetClass, sigma: Perm, tau: Perm) -> tuple:
    """The code of sigma . cls . tau: the class's own under the identity
    relabeling.  It acts on the held network, since a leg-preserving
    isomorphism commutes with ``act``."""
    if sigma.images == tuple(range(1, sigma.n + 1)) and tau.images == tuple(range(1, tau.n + 1)):
        return cls.code
    return canonical_code(act(sigma, cls.net, tau))


def _reducts(
    rule: Rule, ks: list[NetClass], relabelings: list[tuple[Perm, Perm]]
) -> list[tuple[NetClass, LinComb, list[tuple]]]:
    """Each admitted context K with its reduct annex(K, rhs) and the
    reduct's key under each relabeling of the site."""
    out = []
    for k in ks:
        reduct = _replacement(rule, k)
        keys = []
        for sigma, tau in relabelings:
            terms = ((_code_under(t, sigma, tau), c) for t, c in reduct.terms.items())
            keys.append((rule.rule_id, tuple(sorted(terms))))
        out.append((k, reduct, keys))
    return out


def enumerate_decisive(s1: Rule, s2: Rule) -> list[Ambiguity]:
    """All decisive ambiguities of the rule pair, up to site isomorphism,
    leg reordering, and operand swap, plus the non-terse wrap ambiguities
    that leg-to-leg wirings produce."""
    both_sharp = s1.sharp and s2.sharp

    found: dict[tuple, Ambiguity] = {}
    for site, emb1, emb2, terse in _decisive_sites(s1, s2):
        amb_type = transference(site) if both_sharp else BoolMat.ones(site.coarity, site.arity)
        ks1 = list(_admitted_contexts(s1, emb1, site, amb_type))
        if not ks1:
            continue
        ks2 = list(_admitted_contexts(s2, emb2, site, amb_type))
        if not ks2:
            continue
        site_cls = class_of(site)
        relabelings = _leg_relabelings(site)
        # every relabeling gives the same code
        site_code = _code_under(site_cls, *relabelings[0])
        side1 = _reducts(s1, ks1, relabelings)
        side2 = _reducts(s2, ks2, relabelings)
        for k1, r1, keys1 in side1:
            for k2, r2, keys2 in side2:
                key = (site_code, min(tuple(sorted(p)) for p in zip(keys1, keys2)))
                if key in found:
                    continue
                found[key] = Ambiguity(
                    s1.rule_id,
                    s2.rule_id,
                    site_cls,
                    k1,
                    k2,
                    amb_type,
                    r1,
                    r2,
                    terse,
                    key,
                )
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# Resolution and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmbiguityResult:
    ambiguity: Ambiguity
    status: str  # "resolved" | "unresolved" | "unknown"
    difference: LinComb | None


@dataclass(frozen=True)
class ConfluenceReport:
    results: tuple[AmbiguityResult, ...]
    advisory: bool  # True when the system is not sharp

    def counts(self) -> dict[str, int]:
        out = {"resolved": 0, "unresolved": 0, "unknown": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    @property
    def verdict(self) -> str:
        """One of "confluent", "not-confluent" and "unknown", from the counts."""
        counts = self.counts()
        if counts["unresolved"]:
            return "not-confluent"
        if counts["unknown"]:
            return "unknown"
        return "confluent"


def resolve(
    amb: Ambiguity,
    rules: Sequence[Rule],
    spec: OrderSpec | None = None,
    max_steps: int | None = None,
) -> AmbiguityResult:
    """Apply both reductions to the site and check joinability at the
    ambiguity type."""
    if amb.trivial:
        return AmbiguityResult(amb, "resolved", None)
    result = joinable(
        amb.reduct1,
        amb.reduct2,
        amb.amb_type,
        rules,
        max_steps=max_steps,
        order_backed=spec is not None,
    )
    if result.status == "yes":
        return AmbiguityResult(amb, "resolved", None)
    if result.status == "unknown":
        return AmbiguityResult(amb, "unknown", None)
    return AmbiguityResult(amb, "unresolved", result.difference)


def confluence_report(
    rules: Sequence[Rule],
    spec: OrderSpec | None = None,
    max_steps: int | None = None,
) -> ConfluenceReport:
    """Enumerate ambiguities over all rule pairs and resolve each.

    For an all-sharp system a fully resolved report certifies unique
    normal forms; otherwise the report is advisory.
    """
    rules = sorted(rules, key=lambda r: r.rule_id)
    if spec is not None:
        check_compatible(rules, spec)
    results: list[AmbiguityResult] = []
    for i, s1 in enumerate(rules):
        for s2 in rules[i:]:
            for amb in enumerate_decisive(s1, s2):
                results.append(resolve(amb, rules, spec, max_steps))
    results.sort(key=lambda r: r.ambiguity.key)
    advisory = not all(r.sharp for r in rules)
    return ConfluenceReport(tuple(results), advisory)


class OrientationFailedError(ValueError):
    def __init__(self, difference: LinComb):
        super().__init__("cannot orient an unresolved difference")
        self.difference = difference


class LimitReachedError(RuntimeError):
    pass


def complete(
    rules: Sequence[Rule],
    spec: OrderSpec,
    max_steps: int | None = None,
) -> tuple[list[Rule], ConfluenceReport]:
    """Standard completion: orient unresolved differences into new rules
    until the system is confluent or a limit is hit (LimitReachedError)."""
    current = list(rules)
    added = 0
    for _ in range(_MAX_ROUNDS):
        report = confluence_report(current, spec, max_steps)
        bad = [r for r in report.results if r.status == "unresolved"]
        if not bad:
            return current, report
        for res in bad:
            rule = _orient(res.difference, spec, f"c{added}")
            if rule is None:
                raise OrientationFailedError(res.difference)
            current.append(rule)
            added += 1
            if added > _MAX_NEW_RULES:
                raise LimitReachedError("too many generated rules")
    raise LimitReachedError("completion did not converge")


def _orient(diff: LinComb, spec: OrderSpec, rule_id: str) -> Rule | None:
    """A rule mu -> rest from the difference, mu being the monomial that
    every other one lies below; None if there is none.  The rest is those
    others, so the rule is compatible with the order.  The rule is sharp
    when every rhs term's transference lies within tr(mu), and has the
    all-ones type otherwise."""
    items = diff.items()
    for mu, coeff in items:
        if all(
            compare(nu, mu, spec) == LT for nu, _ in items if nu != mu
        ):
            rhs = LinComb.monomial(mu) - diff.scale(1 / coeff)
            sharp = all(t.tr.leq(mu.tr) for t in rhs.terms)
            return make_rule(rule_id, mu, rhs, "sharp" if sharp else [])
    return None
