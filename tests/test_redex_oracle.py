"""The redex search checked by an oracle that shares no code with it.

The paper characterises a subexpression both algebraically and
graph-theoretically; the engine follows the algebraic side (a context K
with annex(K, lhs) = subject).  The oracle here follows the graph side:

- an occurrence of a rule's lhs is a subgraph monomorphism, found by
  networkx, of its inner vertices and the edges between them, with each
  leg on the subject edge at its vertex's port and each stray on any
  subject edge that no edge between inner vertices covers;
- a labeling orders the legs sharing a subject edge: an output leg
  tailmost, an input leg headmost, and the strays between them in every
  order;
- an occurrence under a labeling is a redex when the subject, with the
  occurrence replaced by the rule's type, is acyclic and its paths from
  inputs to outputs stay within the ambient type.  Under the all-ones
  rule type the first condition says that the occurrence is convex: no
  directed path of the subject leaves it and re-enters it, the convex
  matches of Bonchi, Gadducci, Kissinger, Sobocinski and Zanasi,
  *Rewriting modulo symmetric monoidal structure* (LICS 2016).

Both conditions are read off one networkx graph with
``is_directed_acyclic_graph`` and ``has_path``.
"""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

import netrw.match
from netrw.ainparse import parse_rules
from netrw.ambiguity import enumerate_decisive
from netrw.core import BoolMat, parse_signature
from netrw.freeprop import LinComb, annex, class_of
from netrw.network import _components
from netrw.rewrite import _monomial_redexes, reduce_once

from conftest import random_network

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import DiGraphMatcher  # noqa: E402

CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"
SYSTEMS = ("assoc", "circle", "bridge", "zigzag", "frobenius", "hopf")

# rules beside each corpus system's: patterns without inner vertices, one
# and two strays (whose labelings on one subject edge are both redexes
# only under the sharp type), and for Hopf several components, an inner
# vertex beside a stray, and types neither sharp nor all ones
STRAY_RULES = "rule w1: d^a_b -> d^a_b\nrule w2 sharp: d^a_b d^c_e -> d^a_b d^c_e\n"
EXTRA_RULES = {
    "hopf": STRAY_RULES
    + "rule x1: m^a_bc eps_d -> m^a_cb eps_d\n"
    + "rule x2 sharp: S^a_b D^cd_e -> D^dc_e S^a_b\n"
    + "rule x3: S^a_b S^c_d -> S^a_b S^c_d where a ~> d\n"
    + "rule x4: eta^a eps_b -> eta^a eps_b where a ~> b\n"
    + "rule x5: m^a_bc d^e_f -> m^a_cb d^e_f\n",
}


def port_graph(net):
    """A node ("v", v) for each inner vertex, with its symbol, and ("e", e)
    for each edge between inner vertices; arcs run from an edge's tail to
    the edge and on to its head, each with the port index at its vertex."""
    g = nx.DiGraph()
    for v, sym in net.deco.items():
        g.add_node(("v", v), sym=sym)
    for e, ends in net.edges.items():
        if ends.tail != 1 and ends.head != 0:
            g.add_node(("e", e), sym=None)
            g.add_edge(("v", ends.tail), ("e", e), port=ends.tindex)
            g.add_edge(("e", e), ("v", ends.head), port=ends.hindex)
    return g


def occurrences(pattern, subject):
    """(vertex map, edge map) of each occurrence of pattern in subject, both
    as sorted pairs."""
    at_head = {(ends.head, ends.hindex): x for x, ends in subject.edges.items()}
    at_tail = {(ends.tail, ends.tindex): x for x, ends in subject.edges.items()}
    strays = sorted(e for e, ends in pattern.edges.items() if ends.tail == 1 and ends.head == 0)
    matcher = DiGraphMatcher(
        port_graph(subject),
        port_graph(pattern),
        node_match=lambda s, p: s["sym"] == p["sym"],
        edge_match=lambda s, p: s["port"] == p["port"],
    )
    out = []
    for mono in matcher.subgraph_monomorphisms_iter():
        chi, psi = {}, {}
        for (kind, s), (_, p) in mono.items():
            (chi if kind == "v" else psi)[p] = s
        covered = set(psi.values())
        for e, ends in pattern.edges.items():
            if ends.head != 0 and ends.tail == 1:
                psi[e] = at_head[chi[ends.head], ends.hindex]
            elif ends.tail != 1 and ends.head == 0:
                psi[e] = at_tail[chi[ends.tail], ends.tindex]
        free = [x for x in sorted(subject.edges) if x not in covered]
        for images in itertools.product(free, repeat=len(strays)):
            psi.update(zip(strays, images))
            out.append((tuple(sorted(chi.items())), tuple(sorted(psi.items()))))
    return out


def labelings(pattern, edge_map):
    """Each order of the legs on the subject edges they share, as (subject
    edge, legs from tail to head) by subject edge."""
    on = {}
    for e, x in edge_map:
        ends = pattern.edges[e]
        if ends.tail == 1 or ends.head == 0:
            on.setdefault(x, []).append(e)
    per_edge = []
    for x, legs in sorted(on.items()):
        first = [e for e in legs if pattern.edges[e].tail != 1]
        last = [e for e in legs if pattern.edges[e].head != 0]
        middle = [e for e in legs if e not in first and e not in last]
        per_edge.append([(x, (*first, *order, *last)) for order in itertools.permutations(middle)])
    return list(itertools.product(*per_edge))


def verdict(pattern, subject, vertex_map, stacks, q_rule, q_ambient):
    """"redex" when the occurrence under this labeling is one: the subject
    with the occurrence cut out, and with arcs from each pattern input to
    the pattern outputs that the rule's type lets it reach, is acyclic
    (else "cycle"), and its paths from inputs to outputs lie within the
    ambient type (else "outside type")."""
    image = {w for _, w in vertex_map}
    on = dict(stacks)
    g = nx.DiGraph()
    g.add_nodes_from(("in", j) for j in range(1, subject.arity + 1))
    g.add_nodes_from(("out", i) for i in range(1, subject.coarity + 1))

    def tail_node(ends):
        return ("in", ends.tindex) if ends.tail == 1 else ("v", ends.tail)

    def head_node(ends):
        return ("out", ends.hindex) if ends.head == 0 else ("v", ends.head)

    for x, ends in subject.edges.items():
        if x not in on:
            if ends.tail not in image and ends.head not in image:
                g.add_edge(tail_node(ends), head_node(ends))
            continue
        # walk the subject edge from tail to head through its legs
        at = None if ends.tail in image else tail_node(ends)
        for e in on[x]:
            leg = pattern.edges[e]
            if leg.tail == 1 and at is not None:
                g.add_edge(at, ("pattern in", leg.tindex))
            at = ("pattern out", leg.hindex) if leg.head == 0 else None
        if at is not None:
            g.add_edge(at, head_node(ends))
    for i in range(q_rule.rows):
        for j in range(q_rule.cols):
            if q_rule.get(i, j):
                g.add_edge(("pattern in", j + 1), ("pattern out", i + 1))
    if not nx.is_directed_acyclic_graph(g):
        return "cycle"
    within = all(
        q_ambient.get(i, j) or not nx.has_path(g, ("in", j + 1), ("out", i + 1))
        for i in range(subject.coarity)
        for j in range(subject.arity)
    )
    return "redex" if within else "outside type"


def oracle_redexes(nu, q, rules, found, counts):
    """(rule id, vertex map, edge map, labeling) of each redex in nu at
    ambient type q, in the redex order: rules by id, occurrences by vertex
    map and edge map, labelings by their legs.  ``found`` caches each
    rule's occurrences in nu; ``counts`` gathers each labeling's verdict,
    and the occurrences with several labelings that are redexes."""
    subject = nu.rep
    out = []
    for rule in rules:
        pattern = rule.lhs.rep
        key = rule.rule_id, nu
        if key not in found:
            found[key] = occurrences(pattern, subject)
        for vertex_map, edge_map in found[key]:
            redexes = 0
            for stacks in labelings(pattern, edge_map):
                seen = verdict(pattern, subject, vertex_map, stacks, rule.qtype, q)
                counts[seen] += 1
                if seen == "redex":
                    out.append((rule.rule_id, vertex_map, edge_map, stacks))
                    counts["without inner vertices"] += not vertex_map
                    redexes += 1
            counts["several labelings"] += redexes > 1
    return sorted(out)


@pytest.fixture
def origins(monkeypatch):
    """The strong embedding that each context the engine builds comes from,
    by the context's id; the contexts are kept, so no id is reused."""
    real = netrw.match.complement
    made = {}

    def recording(subject, pattern, se):
        ctx = real(subject, pattern, se)
        made[id(ctx)] = ctx, (se.base.vertex_map, se.base.edge_map, se.stacks)
        return ctx

    monkeypatch.setattr(netrw.match, "complement", recording)
    return made


def subjects(sig, rules, rng):
    """Monomials over the signature: random networks with strays and
    several components, and the sites of the rules' decisive ambiguities."""
    symbols = list(sig)
    out = [class_of(random_network(rng, symbols, max_inner=4, max_strays=2)) for _ in range(14)]
    out += [class_of(random_network(rng, symbols, max_inner=6, max_strays=0)) for _ in range(6)]
    for i, s1 in enumerate(rules):
        for s2 in rules[i:]:
            out += [amb.site for amb in enumerate_decisive(s1, s2)]
    return out


def test_redexes_match_graph_oracle(origins):
    # every redex of every rule in every subject at the all-ones ambient
    # type and at the subject's own, in order, and the first redex that
    # reduce_once takes; the counts show that each condition of the
    # oracle refuses labelings the engine also refuses
    rng = random.Random(20261021)
    counts = Counter()
    for system in SYSTEMS:
        sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
        corpus = (CORPUS / f"{system}.rules").read_text(encoding="utf-8")
        own = sorted(parse_rules(corpus, sig), key=lambda r: r.rule_id)
        extra = EXTRA_RULES.get(system, STRAY_RULES)
        rules = sorted(parse_rules(corpus + extra, sig), key=lambda r: r.rule_id)
        found = {}
        for nu in subjects(sig, own, rng):
            counts["subjects"] += 1
            counts["several components"] += len(_components(nu.rep)[0]) > 1
            for q in (BoolMat.ones(nu.coarity, nu.arity), nu.tr):
                expected = oracle_redexes(nu, q, rules, found, counts)
                got = [
                    (rule.rule_id, *origins[id(ctx)][1])
                    for rule, ctx in _monomial_redexes(nu, q, rules)
                ]
                assert got == expected, (system, nu.code)
                step = reduce_once(LinComb.monomial(nu), q, rules)
                if not expected:
                    assert step is None
                    continue
                _, step = step
                assert (step.rule_id, *origins[id(step.context)][1]) == expected[0]
                rule = next(r for r in rules if r.rule_id == step.rule_id)
                assert annex(step.context, rule.lhs) == nu
    assert counts["subjects"] > 150 and counts["several components"] > 40, counts
    assert counts["redex"] > 3000 and counts["without inner vertices"] > 1000, counts
    assert counts["cycle"] > 100 and counts["outside type"] > 20, counts
    assert counts["several labelings"] > 500, counts
