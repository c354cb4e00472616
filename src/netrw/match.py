"""Redex location: the features a pattern needs of its subject;
embeddings of a pattern network into a subject, one search per image of
the pattern's first anchor; strong embeddings (the order of the legs on
each subject edge), complement extraction, one context per labeling of
an embedding, and context-type admissibility."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import BoolMat
from .freeprop import NetClass, join_condition, join_transference
from .network import Edge, Network, _components


@dataclass(frozen=True)
class Embedding:
    """An occurrence of a pattern inside a subject.

    ``vertex_map`` sends pattern inner vertices injectively to equally
    decorated subject inner vertices; ``edge_map`` sends pattern edges to
    subject edges, with leg pairs allowed to share an image.
    """

    vertex_map: tuple[tuple[int, int], ...]  # sorted (pattern vertex, subject vertex)
    edge_map: tuple[tuple[int, int], ...]  # sorted (pattern edge, subject edge)


@dataclass(frozen=True)
class StrongEmbedding:
    """An embedding with an injective segment labeling, held as the order
    of the pattern's legs on each subject edge they share: ``stacks`` is
    ``(subject edge, legs from tail to head)`` for each subject edge that
    carries a leg, by subject edge."""

    base: Embedding
    stacks: tuple[tuple[int, tuple[int, ...]], ...]


def _grow_component(
    pattern: Network,
    subject: Network,
    anchor: int,
    image: int,
) -> tuple[dict[int, int], dict[int, int]] | None:
    """Propagate an equally decorated anchor image through ordered ports;
    None on clash.  Each pattern edge's image is read once, at the first end
    the walk reaches: mapping it checks the far end's decoration, port index
    and image, so the far end's port on its image holds that same edge, and
    the walk skips it there."""
    chi = {anchor: image}
    psi: dict[int, int] = {}
    queue = [anchor]
    while queue:
        v = queue.pop()
        w = chi[v]
        for e in pattern.in_edges(v) + pattern.out_edges(v):
            if e in psi:
                continue
            ends = pattern.edges[e]
            if ends.head == v:
                x = subject.in_edge(w, ends.hindex)
            else:
                x = subject.out_edge(w, ends.tindex)
            psi[e] = x
            sub = subject.edges[x]
            for pv, sv, sidx, pidx in (
                (ends.head, sub.head, sub.hindex, ends.hindex),
                (ends.tail, sub.tail, sub.tindex, ends.tindex),
            ):
                if pv in (0, 1):
                    continue
                if sv in (0, 1):
                    return None
                if pattern.deco[pv] != subject.deco.get(sv) or sidx != pidx:
                    return None
                if pv in chi:
                    if chi[pv] != sv:
                        return None
                else:
                    chi[pv] = sv
                    queue.append(pv)
    return chi, psi


def features(net: Network) -> set:
    """The symbols of net's inner vertices and the types ``(tail symbol,
    tindex, head symbol, hindex)`` of its edges between inner vertices.
    An embedding keeps decorations, and puts each edge between two inner
    pattern vertices on a subject edge between their images at the same
    ports, so a pattern embeds only into a subject whose features include
    its own.  Isomorphic networks have the same features."""
    deco = net.deco
    found = set(deco.values())
    for ends in net.edges.values():
        if ends.head != 0 and ends.tail != 1:
            found.add((deco[ends.tail], ends.tindex, deco[ends.head], ends.hindex))
    return found


# anchors, strays and inner edges of a pattern; see pattern_parts
PatternParts = tuple[list[int], list[int], list[int]]


def pattern_parts(pattern: Network) -> PatternParts:
    """What :func:`find_embeddings` reads of a pattern besides its ports:
    an anchor (the least vertex) of each component, components by least
    vertex; the stray edges, by id; and the edges between inner vertices."""
    comps, strays = _components(pattern)
    inner = [e for e, ends in pattern.edges.items() if ends.head != 0 and ends.tail != 1]
    return [comp[0] for comp in comps], strays, inner


def find_embeddings(
    pattern: Network,
    subject: Network,
    image: int | None,
    parts: PatternParts | None = None,
) -> list[Embedding]:
    """The embeddings of ``pattern`` into ``subject`` that send the first
    anchor to ``image`` (None for a pattern with no inner vertex), sorted by
    vertex map, then edge map.  The port walk from one anchor per pattern
    component makes decorations and ports agree; left to check are that
    the vertex map is injective and that strays avoid the images of inner
    edges.  The product yields sorted order: components by least vertex,
    the other anchors' distinct images ascending, strays varying last over
    sorted subject edges.

    ``parts`` is ``pattern_parts(pattern)``, for a caller that matches one
    pattern often."""
    anchors, strays, inner = pattern_parts(pattern) if parts is None else parts
    per_comp: list[list[tuple[dict[int, int], dict[int, int]]]] = []
    for k, anchor in enumerate(anchors):
        found = []
        sym = pattern.deco[anchor]
        for w in [image] if k == 0 else subject.inner_vertices():
            if subject.deco.get(w) == sym:
                grown = _grow_component(pattern, subject, anchor, w)
                if grown is not None:
                    found.append(grown)
        if not found:
            return []
        per_comp.append(found)

    subject_edges = sorted(subject.edges) if strays else []
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
        taken = {psi[e] for e in inner} if strays else ()
        free = [x for x in subject_edges if x not in taken]
        for stray_images in itertools.product(free, repeat=len(strays)):
            psi.update(zip(strays, stray_images))
            results.append(Embedding(vertex_map, tuple(sorted(psi.items()))))
    return results


def embeddings(
    pattern: Network,
    subject: Network,
    parts: PatternParts | None = None,
) -> Iterator[Embedding]:
    """All embeddings of ``pattern`` into ``subject`` in sorted order,
    found as they are taken: one :func:`find_embeddings` search per image
    of the first anchor, equally decorated subject vertices ascending, so
    a caller that stops at its first redex grows no component past it."""
    parts = pattern_parts(pattern) if parts is None else parts
    anchors = parts[0]
    if not anchors:
        yield from find_embeddings(pattern, subject, None, parts)
        return
    sym = pattern.deco[anchors[0]]
    for w in subject.inner_vertices():
        if subject.deco[w] == sym:
            yield from find_embeddings(pattern, subject, w, parts)


def strong_embeddings(emb: Embedding, pattern: Network) -> list[StrongEmbedding]:
    """All segment labelings of an embedding, in the product order over
    subject edges.

    The legs sharing a subject edge are ordered tail to head: an output
    leg (one with an inner tail) is the tailmost segment, an input leg
    (one with an inner head) the headmost, and the stray edges fill the
    slots between them in every order.  An edge between two inner
    vertices shares its image with no other edge and carries no leg.
    """
    parts: dict[int, tuple[list[int], list[int], list[int]]] = {}
    for e, x in emb.edge_map:
        ends = pattern.edges[e]
        if ends.head == 0 or ends.tail == 1:
            outs, strays, ins = parts.setdefault(x, ([], [], []))
            if ends.tail != 1:
                outs.append(e)
            elif ends.head != 0:
                ins.append(e)
            else:
                strays.append(e)
    per_edge = [
        [(x, (*outs, *order, *ins)) for order in itertools.permutations(strays)]
        for x, (outs, strays, ins) in sorted(parts.items())
    ]
    return [StrongEmbedding(emb, stacks) for stacks in itertools.product(*per_edge)]


def contexts(emb: Embedding, pattern: Network, subject: Network) -> list[NetClass]:
    """The contexts K with annex(K, pattern) = subject, one per labeling
    of ``emb``, in labeling order and not yet canonicalized.  No two are
    isomorphic: two labelings differ only in the order of the stray
    pattern edges on a shared subject edge; ``complement`` turns each
    consecutive pair (donor, leg) of those segments into a wire of K, from
    the input leg of the donor's ``hindex`` to the output leg of the leg's
    ``tindex``; the consecutive pairs of a sequence of distinct items fix
    the sequence; and a leg-preserving isomorphism keeps each wire's legs."""
    return [complement(subject, pattern, se) for se in strong_embeddings(emb, pattern)]


def complement(subject: Network, pattern: Network, se: StrongEmbedding) -> NetClass:
    """The context K with class(subject) = annex(class(K), class(pattern)),
    as a class held by the complement network, not yet canonicalized.

    K keeps the subject vertices outside the embedding and the subject
    edges between them.  On a subject edge that carries legs, K's input
    leg for the headmost leg takes the edge's head, K's output leg for
    the tailmost leg takes its tail, and each consecutive pair of legs
    becomes a wire; new edges are numbered after the subject's.
    """
    gone = {w for _, w in se.base.vertex_map}
    stacks = dict(se.stacks)
    fresh = itertools.count(max(subject.edges, default=0) + 1)
    omega_g, alpha_g = subject.coarity, subject.arity
    ends_of = pattern.edges

    edges: dict[int, Edge] = {}
    for x, ends in subject.edges.items():
        stack = stacks.get(x)
        if stack is None:
            if ends.head not in gone and ends.tail not in gone:
                edges[x] = ends
            continue
        if ends.head not in gone:
            edges[next(fresh)] = Edge(ends.head, ends.hindex, 1, alpha_g + ends_of[stack[-1]].hindex)
        if ends.tail not in gone:
            edges[next(fresh)] = Edge(0, omega_g + ends_of[stack[0]].tindex, ends.tail, ends.tindex)
        for donor, leg in zip(stack, stack[1:]):
            edges[next(fresh)] = Edge(0, omega_g + ends_of[leg].tindex, 1, alpha_g + ends_of[donor].hindex)
    deco = {v: sym for v, sym in subject.deco.items() if v not in gone}
    return NetClass(Network(edges, deco))


def context_type_ok(k_tr: BoolMat, q_rule: BoolMat, q_ambient: BoolMat) -> bool:
    """Admissibility of a context K for a rule of type q_rule inside an
    ambient type q_ambient: K annexes the rule's type without a cycle, and
    the block formula puts the result's transference within q_ambient,
    which holds of any transference when q_ambient is all ones."""
    r, q = q_rule.cols, q_rule.rows
    # a cycle through the joined ports needs r > 0 and q > 0
    if r and q and not join_condition(k_tr, q_rule, r, q).is_nilpotent():
        return False
    return q_ambient.is_ones() or join_transference(k_tr, q_rule, r, q).leq(q_ambient)
