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

from .core import BoolMat, Perm, UnionFind
from .freeprop import LinComb, NetClass, class_of, lc_annex
from .match import Embedding, context_type_ok, contexts
from .network import (
    Edge,
    Network,
    _components,
    _least_code,
    _topological_order,
    act,
    canonical_code,
    transference,
    validate,
)
from .order import LT, OrderSpec, compare, rule_compatible
from .rewrite import Rule, RuleError, joinable, make_rule

Node = tuple[str, int, int]  # ("v"|"e", side, id)
_RELABELING_CAP = 64  # leg relabelings listed per site at most


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

    @property
    def wrap(self) -> bool:
        return not self.terse


class _GlueState:
    """A gluing of both patterns: the classes of their vertices and edges."""

    def __init__(self, nets: dict[int, Network], uf: UnionFind | None = None):
        self.nets = nets
        if uf is None:
            nodes: list[Node] = []
            for side, net in nets.items():
                nodes += [("v", side, v) for v in net.inner_vertices()]
                nodes += [("e", side, e) for e in net.edges]
            uf = UnionFind(nodes)
        self.uf = uf

    def copy(self) -> "_GlueState":
        return _GlueState(self.nets, self.uf.copy())

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

    site = validate(set(deco) | {0, 1}, edges, deco)
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


def _decisive_sites(
    s1: Rule, s2: Rule
) -> Iterator[tuple[Network, Embedding, Embedding, bool]]:
    """The acyclic sites of the non-montage gluings of both left hand
    sides, each with the two embeddings and its terseness, in depth-first
    preorder of the gluings."""
    seen: set[frozenset] = set()
    stack = [_GlueState({1: s1.lhs.rep, 2: s2.lhs.rep})]
    while stack:
        state = stack.pop()
        sig = state.signature()
        if sig in seen:
            continue
        seen.add(sig)
        if sig and not _is_montage(state, s1.qtype, s2.qtype):
            built = _build_site(state)
            if built is None:
                # gluing more nodes maps the directed cycle onto a closed
                # walk, so every refinement of this gluing is cyclic too
                continue
            yield built
        children = []
        for a, b in _possible_seeds(state):
            nxt = state.copy()
            if nxt.merge(a, b):
                children.append(nxt)
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


def _reducts(
    rule: Rule, ks: list[NetClass], relabelings: list[tuple[Perm, Perm]]
) -> list[tuple[NetClass, LinComb, list[tuple]]]:
    """Each context K with its reduct annex(K, rhs) and the reduct's key
    under each relabeling of the site."""
    out = []
    for k in ks:
        reduct = lc_annex(k, rule.rhs)
        keys = [
            (
                rule.rule_id,
                tuple(
                    sorted(
                        (canonical_code(act(sigma, t.rep, tau)), c)
                        for t, c in reduct.terms.items()
                    )
                ),
            )
            for sigma, tau in relabelings
        ]
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
        ks1 = [k for k in contexts(emb1, s1.lhs.rep, site) if context_type_ok(k.tr, s1.qtype, amb_type)]
        if not ks1:
            continue
        ks2 = [k for k in contexts(emb2, s2.lhs.rep, site) if context_type_ok(k.tr, s2.qtype, amb_type)]
        if not ks2:
            continue
        site_cls = class_of(site)
        relabelings = _leg_relabelings(site)
        sigma, tau = relabelings[0]  # every relabeling gives the same code
        site_code = canonical_code(act(sigma, site, tau))
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
    operadic: bool

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


class IncompatibleRuleError(ValueError):
    def __init__(self, rule_id: str):
        super().__init__(f"rule {rule_id!r} is not compatible with the order")
        self.rule_id = rule_id


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
        for rule in rules:
            ok, _ = rule_compatible(rule, spec)
            if not ok:
                raise IncompatibleRuleError(rule.rule_id)
    results: list[AmbiguityResult] = []
    for i, s1 in enumerate(rules):
        for s2 in rules[i:]:
            for amb in enumerate_decisive(s1, s2):
                results.append(resolve(amb, rules, spec, max_steps))
    results.sort(key=lambda r: r.ambiguity.key)
    advisory = not all(r.sharp for r in rules)
    operadic = all(r.coarity == 1 for r in rules)
    return ConfluenceReport(tuple(results), advisory, operadic)


class OrientationFailedError(ValueError):
    def __init__(self, difference: LinComb):
        super().__init__("cannot orient an unresolved difference")
        self.difference = difference


class LimitReachedError(RuntimeError):
    pass


def complete(
    rules: Sequence[Rule],
    spec: OrderSpec,
    max_rounds: int = 8,
    max_new_rules: int = 32,
    max_steps: int | None = None,
) -> tuple[list[Rule], ConfluenceReport]:
    """Standard completion: orient unresolved differences into new rules
    until the system is confluent or a limit is hit."""
    current = list(rules)
    added = 0
    for _ in range(max_rounds):
        report = confluence_report(current, spec, max_steps)
        bad = [r for r in report.results if r.status == "unresolved"]
        if not bad:
            return current, report
        progressed = False
        for res in bad:
            diff = res.difference
            if diff is None or diff.is_zero():
                continue
            rule = _orient(diff, spec, f"c{added}", current)
            if rule is None:
                raise OrientationFailedError(diff)
            current.append(rule)
            added += 1
            progressed = True
            if added > max_new_rules:
                raise LimitReachedError("too many generated rules")
        if not progressed:
            raise OrientationFailedError(bad[0].difference or LinComb.zero(0, 0))
    raise LimitReachedError("completion did not converge")


def _orient(diff: LinComb, spec: OrderSpec, rule_id: str, current: Sequence[Rule]) -> Rule | None:
    items = diff.items()
    for mu, coeff in items:
        if all(
            compare(nu, mu, spec) == LT for nu, _ in items if nu != mu
        ):
            rhs = LinComb.monomial(mu) - diff.scale(1 / coeff)
            try:
                rule = make_rule(rule_id, LinComb.monomial(mu), rhs, "sharp")
            except RuleError:
                try:
                    rule = make_rule(rule_id, LinComb.monomial(mu), rhs, [])
                except RuleError:
                    return None
            ok, _ = rule_compatible(rule, spec)
            if ok:
                return rule
    return None
