"""Decorated acyclic port-graphs ("networks") and their basic operations.

A network has a distinguished output vertex 0 and input vertex 1.  Every
edge runs from its tail (the producing end) to its head (the consuming
end); vertex 1 only produces, vertex 0 only consumes.  Ports at each
vertex are numbered from 1, so networks are rigid: an isomorphism can
only rename vertex and edge ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import Perm, Symbol, BoolMat, UnionFind, same


class Edge(NamedTuple):
    """Edge endpoints in the order (head, hindex, tail, tindex)."""

    head: int
    hindex: int
    tail: int
    tindex: int


@dataclass(frozen=True)
class Violation:
    kind: str  # CycleFound | DuplicatePort | GapInIndices | ArityMismatch | BadVertex
    detail: tuple

    def __str__(self) -> str:
        return f"{self.kind}{self.detail}"


class InvalidNetworkError(ValueError):
    def __init__(self, violations: Sequence[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = list(violations)


class Network:
    """An immutable validated network: its edges, and the decorations of
    its inner vertices, which are the keys of ``deco``.

    Use :func:`validate` to construct one from raw data; the constructor
    itself trusts its arguments and keeps both dicts, which nothing may
    change afterwards.  Each vertex's ports are stored once, as lists in
    index order, which the port reads return and callers must not change.
    """

    __slots__ = ("edges", "deco", "_in", "_out", "coarity", "arity")

    def __init__(self, edges: dict[int, Edge], deco: dict[int, Symbol]):
        self.edges = edges
        self.deco = deco
        n = len(edges)
        inp = {v: [None] * sym.arity for v, sym in deco.items()}
        out = {v: [None] * sym.coarity for v, sym in deco.items()}
        inp[0], inp[1], out[0], out[1] = [None] * n, [], [], [None] * n
        for e, ends in edges.items():
            inp[ends.head][ends.hindex - 1] = e
            out[ends.tail][ends.tindex - 1] = e
        # the legs fill a prefix of the n slots of vertices 0 and 1
        self.coarity = n - inp[0].count(None)
        self.arity = n - out[1].count(None)
        del inp[0][self.coarity :], out[1][self.arity :]
        self._in = inp
        self._out = out

    @property
    def vertices(self) -> frozenset[int]:
        """0, 1 and the inner vertices."""
        return frozenset(self.deco.keys() | {0, 1})

    # -- port access ---------------------------------------------------------

    def in_edges(self, v: int) -> list[int]:
        """Edges with head v, in head-index order."""
        return self._in[v]

    def out_edges(self, v: int) -> list[int]:
        """Edges with tail v, in tail-index order."""
        return self._out[v]

    def in_edge(self, v: int, index: int) -> int:
        return self._in[v][index - 1]

    def out_edge(self, v: int, index: int) -> int:
        return self._out[v][index - 1]

    def inner_vertices(self) -> list[int]:
        return sorted(self.deco)

    def __repr__(self) -> str:
        return (
            f"Network({self.coarity},{self.arity};"
            f" {len(self.deco)} inner, {len(self.edges)} edges)"
        )


def _topological_order(inner: Iterable[int], edges: Iterable[Edge]) -> list[int]:
    """Inner vertices ordered so that every edge between two of them runs
    from an earlier to a later one (Kahn's algorithm, sources in the order
    given).  Vertices on or above a directed cycle are left out."""
    indeg = dict.fromkeys(inner, 0)
    succs: dict[int, list[int]] = {v: [] for v in indeg}
    for ends in edges:
        if ends.tail in indeg and ends.head in indeg:
            succs[ends.tail].append(ends.head)
            indeg[ends.head] += 1
    order = [v for v, d in indeg.items() if d == 0]
    for v in order:
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return order


def check(edges: Mapping[int, Edge], deco: Mapping[int, Symbol]) -> list[Violation]:
    """Return the list of network axiom violations (empty when valid).
    The inner vertices are the keys of ``deco``, each at least 2."""
    violations: list[Violation] = []
    low = min(deco, default=2)
    if low < 2:
        violations.append(Violation("BadVertex", ("decorated", low)))
        return violations
    inner = set(deco)
    vset = inner | {0, 1}

    heads: dict[tuple[int, int], int] = {}
    tails: dict[tuple[int, int], int] = {}
    for e, ends in edges.items():
        if ends.head == 1 or ends.head not in vset:
            violations.append(Violation("BadVertex", ("head", e, ends.head)))
            return violations
        if ends.tail == 0 or ends.tail not in vset:
            violations.append(Violation("BadVertex", ("tail", e, ends.tail)))
            return violations
        if ends.hindex < 1 or ends.tindex < 1:
            violations.append(Violation("GapInIndices", (e, "nonpositive index")))
            return violations
        hkey, tkey = (ends.head, ends.hindex), (ends.tail, ends.tindex)
        if hkey in heads:
            violations.append(Violation("DuplicatePort", (ends.head, "in", ends.hindex)))
        heads[hkey] = e
        if tkey in tails:
            violations.append(Violation("DuplicatePort", (ends.tail, "out", ends.tindex)))
        tails[tkey] = e
    if violations:
        return violations

    # contiguity of port indices
    by_head: dict[int, list[int]] = {v: [] for v in vset}
    by_tail: dict[int, list[int]] = {v: [] for v in vset}
    for ends in edges.values():
        by_head[ends.head].append(ends.hindex)
        by_tail[ends.tail].append(ends.tindex)
    for v in vset:
        if v != 1 and sorted(by_head[v]) != list(range(1, len(by_head[v]) + 1)):
            violations.append(Violation("GapInIndices", (v, "in")))
        if v != 0 and sorted(by_tail[v]) != list(range(1, len(by_tail[v]) + 1)):
            violations.append(Violation("GapInIndices", (v, "out")))

    # arities against decorations
    for v in sorted(inner):
        sym = deco[v]
        if len(by_head[v]) != sym.arity or len(by_tail[v]) != sym.coarity:
            violations.append(Violation("ArityMismatch", (v,)))

    # acyclicity: the vertices a topological order leaves out lie on or
    # above a cycle
    cyclic = inner.difference(_topological_order(inner, edges.values()))
    if cyclic:
        witness = sorted(
            e for e, ends in edges.items() if ends.tail in cyclic and ends.head in cyclic
        )
        violations.append(Violation("CycleFound", tuple(witness)))
    return violations


def validate(edges: Mapping[int, Edge], deco: Mapping[int, Symbol]) -> Network:
    """The network with these parts; InvalidNetworkError lists every axiom broken."""
    violations = check(edges, deco)
    if violations:
        raise InvalidNetworkError(violations)
    return Network(edges, deco)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def perm_network(p: Perm) -> Network:
    """The network of phi(p): edge j runs from input port j to output port p(j)."""
    edges = {j - 1: Edge(0, p(j), 1, j) for j in range(1, p.n + 1)}
    return Network(edges, {})


def generator_network(sym: Symbol) -> Network:
    """Single inner vertex decorated by ``sym``, all legs in order."""
    edges: dict[int, Edge] = {}
    eid = 0
    for i in range(1, sym.coarity + 1):
        edges[eid] = Edge(0, i, 2, i)
        eid += 1
    for j in range(1, sym.arity + 1):
        edges[eid] = Edge(2, j, 1, j)
        eid += 1
    return Network(edges, {2: sym})


# ---------------------------------------------------------------------------
# Transference
# ---------------------------------------------------------------------------


def transference(net: Network, order: list[int] | None = None) -> BoolMat:
    """Boolean coarity x arity matrix of input-to-output path existence.

    ``order`` is a topological order of all of net's inner vertices, for a
    caller that has one; by default it is computed."""
    # reach[v] = bitmask of input leg indices (0-based) with a path to v
    reach: dict[int, int] = {}

    def reach_of(e: int) -> int:
        ends = net.edges[e]
        return 1 << (ends.tindex - 1) if ends.tail == 1 else reach[ends.tail]

    if order is None:
        order = _topological_order(net.inner_vertices(), net.edges.values())
    for v in order:
        acc = 0
        for e in net.in_edges(v):
            acc |= reach_of(e)
        reach[v] = acc
    bits = tuple(reach_of(e) for e in net.in_edges(0))
    return BoolMat(net.coarity, net.arity, bits)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class TargetError(ValueError):
    pass


def evaluate(net: Network, target, assign: Mapping[str, object]):
    """Evaluate a network in a target PROP.

    ``assign`` maps symbol names to target elements of the right shape.
    The computation walks a topological order of the inner vertices and
    slices the network below one vertex at a time; the result does not
    depend on which topological order is walked.
    """
    inner = net.inner_vertices()
    images: dict[int, object] = {}
    for v in inner:
        sym = net.deco[v]
        try:
            img = assign[sym.name]
        except KeyError:
            raise TargetError(f"no assignment for symbol {sym.name!r}") from None
        if target.dims(img) != (sym.coarity, sym.arity):
            raise TargetError(
                f"assignment for {sym.name!r} has shape {target.dims(img)},"
                f" expected {(sym.coarity, sym.arity)}"
            )
        images[v] = img

    order = _topological_order(inner, net.edges.values())
    if len(order) != len(inner):
        raise InvalidNetworkError([Violation("CycleFound", ())])
    frontier = net.out_edges(1)
    # phi of the identity of n things, by n; a permutation is tested for
    # the identity by its images, and a Perm is built only for one that is not
    units: dict[int, object] = {}

    def unit(n: int):
        if n not in units:
            units[n] = target.phi(same(n))
        return units[n]

    value = unit(net.arity)
    for v in order:
        ins = net.in_edges(v)
        consumed = set(ins)
        others = [e for e in frontier if e not in consumed]
        arranged = others + ins
        # route frontier position j to arranged position of frontier[j-1]
        pos = {e: i for i, e in enumerate(arranged, 1)}
        routed = tuple(pos[e] for e in frontier)
        if routed != tuple(range(1, len(routed) + 1)):  # phi of the identity is the unit
            value = target.compose(target.phi(Perm(routed)), value)
        slice_elem = target.tensor(unit(len(others)), images[v])
        value = target.compose(slice_elem, value)
        frontier = others + net.out_edges(v)

    pos = {e: i for i, e in enumerate(net.in_edges(0), 1)}
    routed = tuple(pos[e] for e in frontier)
    if routed == tuple(range(1, len(routed) + 1)):
        return value
    return target.compose(target.phi(Perm(routed)), value)


# ---------------------------------------------------------------------------
# Permutation actions
# ---------------------------------------------------------------------------


def act(sigma: Perm | None, net: Network, tau: Perm | None = None) -> Network:
    """Left/right action: relabel output head indices by sigma and input
    tail indices by tau^-1."""
    if sigma is not None and sigma.n != net.coarity:
        raise ValueError("left action size mismatch")
    if tau is not None and tau.n != net.arity:
        raise ValueError("right action size mismatch")
    tau_inv = tau.inverse() if tau is not None else None
    edges = {}
    for e, ends in net.edges.items():
        hindex = ends.hindex
        tindex = ends.tindex
        if sigma is not None and ends.head == 0:
            hindex = sigma(ends.hindex)
        if tau_inv is not None and ends.tail == 1:
            tindex = tau_inv(ends.tindex)
        edges[e] = Edge(ends.head, hindex, ends.tail, tindex)
    return Network(edges, net.deco)


# ---------------------------------------------------------------------------
# Smoothening
# ---------------------------------------------------------------------------


def smoothen(net: Network) -> Network:
    """Remove every vertex decorated by the neutral symbol ``~``, which no
    signature can declare, joining its incident edges.

    Every neutral vertex must have arity = coarity = 1.  Each kept edge
    keeps its id and its tail and takes the head of the headmost segment
    of its neutral chain.
    """
    drop = {v for v, s in net.deco.items() if s.name == "~"}
    if not drop:
        return net
    for v in drop:
        sym = net.deco[v]
        if sym.arity != 1 or sym.coarity != 1:
            raise InvalidNetworkError([Violation("ArityMismatch", (v,))])
    keep_edges = {e for e, ends in net.edges.items() if ends.tail not in drop}

    # headmost edge of the neutral chain starting at e
    head_of: dict[int, int] = {}

    def headmost(e: int) -> int:
        seen = []
        cur = e
        while cur not in head_of:
            ends = net.edges[cur]
            if ends.head not in drop:
                head_of[cur] = cur
                break
            seen.append(cur)
            cur = net.out_edge(ends.head, 1)
        result = head_of[cur]
        for x in seen:
            head_of[x] = result
        return result

    edges = {}
    for e in keep_edges:
        ends = net.edges[e]
        top = net.edges[headmost(e)]
        edges[e] = Edge(top.head, top.hindex, ends.tail, ends.tindex)
    deco = {v: s for v, s in net.deco.items() if v not in drop}
    return Network(edges, deco)


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------


def _components(net: Network) -> tuple[list[list[int]], list[int]]:
    """Connected components of inner vertices, each in ascending order and
    listed by least vertex, as the union-find reads them off the sorted
    inner vertices; plus the stray edges in id order.  The capped leg
    relabelings of an ambiguity site break ties between equal components
    in this order."""
    uf = UnionFind(net.inner_vertices())
    strays = []
    for e, ends in net.edges.items():
        if ends.head == 0 and ends.tail == 1:
            strays.append(e)
        elif ends.head != 0 and ends.tail != 1:
            uf.union(ends.head, ends.tail)
    return uf.classes(), sorted(strays)


def _component_records(
    net: Network, root: int, legs: tuple[list[int], list[int]] | None = None
) -> Iterator[tuple]:
    """The records of the breadth-first serialization of root's component,
    one per vertex: its symbol, as ``deco`` holds it, then its ports in
    index order.  Legs carry their own indices; when ``legs`` is a pair of
    lists (outs, ins), legs are instead numbered by first appearance, and
    their own indices are appended to those lists in that order."""
    outs_seen, ins_seen = legs if legs is not None else (None, None)
    order = {root: 0}
    queue = [root]
    for v in queue:
        ins = []
        for e in net.in_edges(v):
            ends = net.edges[e]
            if ends.tail == 1:
                if ins_seen is None:
                    ins.append(("I", ends.tindex))
                else:
                    ins_seen.append(ends.tindex)
                    ins.append(("I", len(ins_seen)))
            else:
                u = ends.tail
                if u not in order:
                    order[u] = len(order)
                    queue.append(u)
                ins.append(("V", order[u], ends.tindex))
        outs = []
        for e in net.out_edges(v):
            ends = net.edges[e]
            if ends.head == 0:
                if outs_seen is None:
                    outs.append(("O", ends.hindex))
                else:
                    outs_seen.append(ends.hindex)
                    outs.append(("O", len(outs_seen)))
            else:
                u = ends.head
                if u not in order:
                    order[u] = len(order)
                    queue.append(u)
                outs.append(("V", order[u], ends.hindex))
        yield (net.deco[v], tuple(ins), tuple(outs))


def _least_code(
    net: Network, comp: Sequence[int], legs: bool = False
) -> tuple[tuple, list[tuple[list[int], list[int]] | None]]:
    """The least serialization of a component, given in ascending order,
    over all its roots, and, in root order, the leg numbering (outs, ins)
    of each root that gives it (None for each when ``legs`` is false).

    Roots are compared record by record with the least serialization so
    far, which is itself built only as far as a comparison needs it: a
    root is dropped at its first greater record and takes over at its
    first smaller one.  All serializations of a component have the same
    length, so this is tuple order, and a root whose own first record
    loses costs one record.
    """
    first, *others = comp
    seen = ([], []) if legs else None
    best: list[tuple] = []
    rest = _component_records(net, first, seen)  # continues ``best``
    ties = [seen]
    for root in others:
        seen = ([], []) if legs else None
        records = _component_records(net, root, seen)
        for k, rec in enumerate(records):
            if k == len(best):
                best.append(next(rest))
            if rec != best[k]:
                if rec < best[k]:
                    best[k:] = [rec]
                    rest = records
                    ties = [seen]
                break
        else:
            ties.append(seen)
    best.extend(rest)
    return tuple(best), ties


def canonical_code(net: Network) -> tuple:
    """A total serialization of the isomorphism class of ``net``.

    Codes are equal iff the networks are isomorphic: per component the
    least breadth-first serialization over all start vertices is taken
    (ports are totally ordered at each vertex, so each start fixes the
    whole traversal), component codes are sorted, and the leg counts
    appended.  A start's serialization is abandoned at its first record
    that exceeds the least one's (see ``_least_code``), so most starts
    cost a record or two rather than a whole serialization.
    """
    comps, strays = _components(net)
    codes = [("C", _least_code(net, comp)[0]) for comp in comps]
    for e in strays:
        ends = net.edges[e]
        codes.append(("S", ends.tindex, ends.hindex))
    return (net.coarity, net.arity, tuple(sorted(codes)))


def from_code(code: tuple) -> Network:
    """Rebuild the canonical representative from a canonical code, in one
    pass over its records, decorating each vertex by the record's own
    symbol.

    Its ids are dense: the E edges are 0..E-1 and the V inner vertices
    2..V+1, both numbered component by component in code order, so that
    ``edges`` and ``deco`` list them by id.  The gluing search of
    :mod:`netrw.ambiguity` reads a representative's ids as its node
    numbers and relies on this."""
    edges: list[Edge] = []  # edge ids are list positions
    deco: dict[int, Symbol] = {}
    for entry in code[2]:
        if entry[0] == "S":
            _, tindex, hindex = entry
            edges.append(Edge(0, hindex, 1, tindex))
            continue
        base = len(deco) + 2
        for v, (sym, ins, outs) in enumerate(entry[1], base):
            deco[v] = sym
            for i, item in enumerate(ins, 1):
                if item[0] == "I":
                    edges.append(Edge(v, i, 1, item[1]))
                else:
                    edges.append(Edge(v, i, base + item[1], item[2]))
            for i, item in enumerate(outs, 1):
                if item[0] == "O":
                    edges.append(Edge(0, item[1], v, i))
                # inner heads are created from the head side scan above
    return Network(dict(enumerate(edges)), deco)
