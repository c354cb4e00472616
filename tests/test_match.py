"""Embeddings, strong embeddings, complements, and context types."""

import collections
import importlib.util
import itertools
import math
import sys
from pathlib import Path

import pytest

from netrw.ainparse import parse_rules, parse_term
from netrw.ambiguity import _decisive_sites
from netrw.core import BoolMat, Symbol, cross, parse_signature, same
from netrw.freeprop import (
    JoinUndefinedError,
    annex,
    class_of,
    compose,
    generator,
    identity,
    phi,
    tensor,
)
from netrw.match import (
    Embedding,
    complement,
    context_type_ok,
    contexts,
    embeddings,
    find_embeddings,
    pattern_parts,
    strong_embeddings,
)
from netrw.network import Edge, Network, validate

from conftest import (
    computed,
    corpus_rule_pairs,
    eager_contexts,
    exact_shape_class,
    random_class,
    random_network,
    reference_contexts,
    reference_find_embeddings,
    same_network,
)

CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def brute_force_embeddings(pattern: Network, subject: Network):
    """All decoration-preserving maps satisfying the embedding conditions."""
    pv = pattern.inner_vertices()
    sv = subject.inner_vertices()
    results = set()
    if len(pv) > len(sv):
        candidates = []
    else:
        candidates = itertools.permutations(sv, len(pv))
    for images in candidates:
        chi = dict(zip(pv, images))
        if any(pattern.deco[v] != subject.deco[w] for v, w in chi.items()):
            continue
        psi = {}
        ok = True
        for e, ends in pattern.edges.items():
            image = None
            if ends.head != 0:
                try:
                    image = subject.in_edge(chi[ends.head], ends.hindex)
                except KeyError:
                    ok = False
                    break
            if ends.tail != 1:
                try:
                    t_img = subject.out_edge(chi[ends.tail], ends.tindex)
                except KeyError:
                    ok = False
                    break
                if image is not None and t_img != image:
                    ok = False
                    break
                image = t_img
            if image is not None:
                psi[e] = image
        if not ok:
            continue
        strays = [e for e, ends in pattern.edges.items() if ends.head == 0 and ends.tail == 1]
        for stray_images in itertools.product(sorted(subject.edges), repeat=len(strays)):
            full = dict(psi)
            full.update(dict(zip(strays, stray_images)))
            # verify all five conditions
            good = True
            for e, x in full.items():
                ends, sub = pattern.edges[e], subject.edges[x]
                if ends.head != 0 and (sub.head != chi[ends.head] or sub.hindex != ends.hindex):
                    good = False
                if ends.tail != 1 and (sub.tail != chi[ends.tail] or sub.tindex != ends.tindex):
                    good = False
            for e, f in itertools.combinations(sorted(full), 2):
                if full[e] == full[f]:
                    pe, pf = pattern.edges[e], pattern.edges[f]
                    if not (
                        (pe.head == 0 and pf.tail == 1)
                        or (pe.tail == 1 and pf.head == 0)
                    ):
                        good = False
            if good:
                results.add(
                    (tuple(sorted(chi.items())), tuple(sorted(full.items())))
                )
    return results


class TestFindEmbeddings:
    def test_single_vertex_in_right_comb(self, sig2):
        m = generator(sig2["m"])
        rc = compose(m, tensor(identity(1), m))
        assert len(list(embeddings(m.rep, rc.rep))) == 2

    def test_assoc_lhs_not_in_left_comb(self, sig2):
        m = generator(sig2["m"])
        rc = compose(m, tensor(identity(1), m))
        lc = compose(m, tensor(m, identity(1)))
        assert list(embeddings(rc.rep, lc.rep)) == []

    def test_identity_embedding(self, rng, sig2):
        for _ in range(50):
            g = random_class(rng, list(sig2), max_inner=3)
            embs = list(embeddings(g.rep, g.rep))
            assert any(
                all(v == w for v, w in emb.vertex_map)
                and all(e == x for e, x in emb.edge_map)
                for emb in embs
            )

    def test_completeness_vs_brute_force(self, rng, sig2):
        # the walk's sequence itself, order included: find_embeddings does
        # not sort, so the walk over first-anchor images and each search's
        # product order must already give the sorted order; the last 200
        # patterns may have two strays
        ordered_with_strays = 0
        for case in range(700):
            subject = random_network(rng, list(sig2), max_inner=4)
            pattern = random_network(
                rng, list(sig2), max_inner=2, max_strays=1 if case < 500 else 2
            )
            got = [
                (emb.vertex_map, emb.edge_map)
                for emb in embeddings(pattern, subject)
            ]
            assert got == sorted(brute_force_embeddings(pattern, subject))
            ordered_with_strays += len(got) > 1 and any(
                ends.head == 0 and ends.tail == 1 for ends in pattern.edges.values()
            )
        assert ordered_with_strays >= 100, ordered_with_strays


class TestEmbeddingWalk:
    """The walk over first-anchor images, one search per image, against
    the search over every anchor's images at once
    (``conftest.reference_find_embeddings``)."""

    def test_matches_all_images_search(self, rng, hopf_sig):
        sigs = {
            "hopf": hopf_sig,
            "circle": parse_signature("gen x 1 1\ngen y 1 1\n"),
            "assoc": parse_signature("gen m 1 2\n"),
        }
        counts = collections.Counter()
        for system, sig in sigs.items():
            text = (CORPUS / f"{system}.rules").read_text(encoding="utf-8")
            lhs = [rule.lhs.rep for rule in parse_rules(text, sig)]
            for case in range(150):
                subject = random_network(rng, list(sig), max_inner=6, max_strays=2)
                if case % 3 == 0:
                    pattern = rng.choice(lhs)
                elif case % 3 == 1:
                    max_inner = 0 if case % 2 else 3
                    pattern = random_network(rng, list(sig), max_inner=max_inner, max_strays=2)
                else:
                    # two components or more, side by side, and half the
                    # time beside the subject too
                    parts = [random_class(rng, list(sig), max_inner=2, min_inner=1) for _ in "ab"]
                    pattern = tensor(*parts).rep
                    if case % 2:
                        subject = tensor(tensor(*parts), class_of(subject)).rep
                want = reference_find_embeddings(pattern, subject)
                assert list(embeddings(pattern, subject)) == want
                # each search holds exactly the embeddings with its image
                anchors = pattern_parts(pattern)[0]
                images = subject.inner_vertices() if anchors else [None]
                for w in images:
                    got = find_embeddings(pattern, subject, w)
                    assert got == [e for e in want if w is None or dict(e.vertex_map)[anchors[0]] == w]
                comps = len(anchors)
                strays = len(pattern_parts(pattern)[1])
                counts[system, "several components"] += bool(want) and comps > 1
                counts[system, "strays"] += bool(want) and strays > 0
                counts[system, "no inner vertex"] += bool(want) and comps == 0
                counts[system, "found"] += bool(want)
        assert min(counts.values()) >= 20, counts

    def test_port_reads(self, monkeypatch):
        # every assoc and Hopf rule searched in every input monomial of the
        # benchmark's large-terms workload: 503 embeddings, and 2,687 reads
        # of a subject port, each pattern edge's image read once, at the
        # first end the walk reaches
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # its dataclass looks its module up
        try:
            spec.loader.exec_module(workloads)
        finally:
            del sys.modules[spec.name]
        searches = []
        for job in workloads.round_jobs("large-terms", 1):
            system = "assoc" if job.key[0] == "comb" else "hopf"
            sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
            rules = parse_rules((CORPUS / f"{system}.rules").read_text(encoding="utf-8"), sig)
            subject = parse_term(job.argv[-1], sig).monomials()[0].rep
            searches += [(rule.lhs.rep, subject, rule.lhs_parts) for rule in rules]
        reads = collections.Counter()
        for name in ("in_edge", "out_edge"):
            real = getattr(Network, name)

            def counting(net, v, index, real=real):
                reads[net] += 1
                return real(net, v, index)

            monkeypatch.setattr(Network, name, counting)
        found = sum(len(list(embeddings(*search))) for search in searches)
        assert (found, sum(reads.values())) == (503, 2687)
        assert set(reads) <= {subject for _, subject, _ in searches}


def assert_reference_contexts(emb, pattern, subject) -> int:
    """``contexts`` against ``conftest.reference_contexts``: the same
    order, and equal code, transference and representative; the number of
    contexts."""
    got = contexts(emb, pattern, subject)
    want = reference_contexts(emb, pattern, subject)
    assert [k.code for k in got] == [k.code for k in want]
    assert [k.tr for k in got] == [k.tr for k in want]
    assert all(same_network(k.rep, w.rep) for k, w in zip(got, want))
    return len(got)


class TestStrongEmbeddings:
    def test_no_strays_unique(self, rng, sig2):
        for _ in range(50):
            g = random_class(rng, list(sig2), max_inner=3, max_strays=0)
            for emb in embeddings(g.rep, g.rep):
                ses = strong_embeddings(emb, g.rep)
                if not any(
                    ends.head == 0 and ends.tail == 1 for ends in g.rep.edges.values()
                ):
                    assert len(ses) == 1

    def test_two_strays_two_orderings(self):
        # pattern: two stray edges; subject: one wire
        pattern = validate({0: Edge(0, 1, 1, 1), 1: Edge(0, 2, 1, 2)}, {})
        subject = validate({0: Edge(0, 1, 1, 1)}, {})
        embs = [
            e
            for e in embeddings(pattern, subject)
            if e.edge_map[0][1] == e.edge_map[1][1]
        ]
        assert embs
        ses = strong_embeddings(embs[0], pattern)
        assert len(ses) == 2

    def test_stacks_order_the_legs(self, rng, sig2):
        # every leg lies once in the stack of its base image, stacks by
        # subject edge; a stack lists an output leg first and an input leg
        # last; and there is one labeling per order of the strays on each
        # subject edge
        several = 0
        for _ in range(200):
            subject = random_network(rng, list(sig2), max_inner=3)
            pattern = random_network(rng, list(sig2), max_inner=2, max_strays=3)
            ends = pattern.edges
            legs = sorted(e for e in ends if ends[e].head == 0 or ends[e].tail == 1)
            for emb in list(embeddings(pattern, subject))[:3]:
                psi = dict(emb.edge_map)
                strays = collections.Counter(psi[e] for e in legs if ends[e].head == 0 and ends[e].tail == 1)
                labelings = strong_embeddings(emb, pattern)
                assert len(labelings) == math.prod(map(math.factorial, strays.values()))
                assert len({se.stacks for se in labelings}) == len(labelings)
                several += len(labelings) > 1
                for se in labelings:
                    assert se.base is emb
                    edges = [x for x, _ in se.stacks]
                    assert edges == sorted(set(edges))
                    assert sorted(e for _, stack in se.stacks for e in stack) == legs
                    for x, stack in se.stacks:
                        assert all(psi[e] == x for e in stack)
                        assert all(ends[e].tail == 1 for e in stack[1:])
                        assert all(ends[e].head == 0 for e in stack[:-1])
        assert several >= 50, several


class TestContexts:
    def test_complements_pairwise_distinct(self, rng, sig2):
        # one context per labeling, in labeling order, no two isomorphic
        several = 0
        for _ in range(300):
            subject = random_network(rng, list(sig2), max_inner=3)
            pattern = random_network(rng, list(sig2), max_inner=1, max_strays=3)
            for emb in list(embeddings(pattern, subject))[:4]:
                labelings = strong_embeddings(emb, pattern)
                several += len(labelings) > 1
                want = [complement(subject, pattern, se).code for se in labelings]
                got = [k.code for k in contexts(emb, pattern, subject)]
                assert got == want
                assert len(set(got)) == len(got)
                assert_reference_contexts(emb, pattern, subject)
        assert several >= 50

    def test_corpus_sites_match_reference(self):
        # both rules' contexts at every decisive site of every corpus rule pair
        counts = collections.Counter()
        for s1, s2 in corpus_rule_pairs():
            for site, emb1, emb2, _ in _decisive_sites(s1, s2):
                counts["contexts"] += assert_reference_contexts(emb1, s1.lhs.rep, site)
                counts["contexts"] += assert_reference_contexts(emb2, s2.lhs.rep, site)
                counts["sites"] += 1
        assert counts["sites"] >= 100 and counts["contexts"] >= 200, counts


class TestDeferredContexts:
    def test_contexts_match_eager_classes(self, rng, hopf_sig):
        # each context of contexts() against the class of the same
        # complement network, canonicalized at once: same order, no
        # repeat (eager_contexts drops one), and equal tr, code, rep and
        # hash; no context is canonicalized until it is read
        counts = collections.Counter()
        for system in ("circle", "hopf"):
            sig = hopf_sig if system == "hopf" else parse_signature("gen x 1 1\ngen y 1 1\n")
            text = (CORPUS / f"{system}.rules").read_text(encoding="utf-8")
            lhs = [rule.lhs.rep for rule in parse_rules(text, sig)]
            for _ in range(120):
                subject = random_network(rng, list(sig), max_inner=6, max_strays=2)
                stray = random_network(rng, list(sig), max_inner=1, max_strays=3)
                for pattern in [stray, rng.choice(lhs)]:
                    for emb in list(embeddings(pattern, subject))[:4]:
                        several = len(strong_embeddings(emb, pattern)) > 1
                        got = contexts(emb, pattern, subject)
                        want = eager_contexts(emb, pattern, subject)
                        assert len(got) == len(want)
                        assert not any(computed(k, "code") for k in got)
                        assert [k.tr for k in got] == [k.tr for k in want]
                        assert [k.code for k in got] == [k.code for k in want]
                        assert [hash(k) for k in got] == [hash(k) for k in want]
                        assert all(same_network(k.rep, w.rep) for k, w in zip(got, want))
                        counts[system, several] += 1
        assert min(counts.values()) >= 20, counts


class TestComplement:
    def test_identity_complement_is_cross(self, rng, sig2):
        for _ in range(30):
            g = random_class(rng, list(sig2), max_inner=3)
            embs = list(embeddings(g.rep, g.rep))
            ident = [
                e
                for e in embs
                if all(v == w for v, w in e.vertex_map)
                and all(a == b for a, b in e.edge_map)
            ][0]
            se = strong_embeddings(ident, g.rep)[0]
            k = complement(g.rep, g.rep, se)
            assert k == phi(cross(g.arity, g.coarity))
            assert annex(k, g) == g

    def test_round_trip(self, rng, sig2):
        cases = 0
        while cases < 1000:
            subject = random_network(rng, list(sig2), max_inner=4)
            pattern = random_network(rng, list(sig2), max_inner=2, max_strays=1)
            sub_cls = class_of(subject)
            embs = list(embeddings(pattern, subject))
            if not embs:
                continue
            pat_cls = class_of(pattern)
            for emb in embs[:2]:
                for se in strong_embeddings(emb, pattern)[:2]:
                    k = complement(subject, pattern, se)
                    assert annex(k, pat_cls) == sub_cls
                    cases += 1

    def test_three_way_equivalence(self, rng, sig2):
        # embedding exists <=> strong embedding exists <=> annex factors
        for _ in range(200):
            subject = random_network(rng, list(sig2), max_inner=3)
            pattern = random_network(rng, list(sig2), max_inner=2)
            embs = list(embeddings(pattern, subject))
            if embs:
                ses = strong_embeddings(embs[0], pattern)
                assert ses
                k = complement(subject, pattern, ses[0])
                assert annex(k, class_of(pattern)) == class_of(subject)
        # and conversely: a random annexation admits an embedding
        for _ in range(100):
            k = random_class(rng, list(sig2), max_inner=2)
            h = random_class(rng, list(sig2), max_inner=2)
            try:
                g = annex(k, h)
            except Exception:
                continue
            assert list(embeddings(h.rep, g.rep))


class TestContextType:
    def test_all_ones_ambient(self, rng, sig2):
        for _ in range(100):
            k = random_class(rng, list(sig2), max_inner=2)
            h = random_class(rng, list(sig2), max_inner=2)
            try:
                annex(k, h)
            except Exception:
                continue
            q_rule = BoolMat.ones(h.coarity, h.arity)
            p22 = k.tr.submatrix(
                range(k.coarity - h.arity, k.coarity),
                range(k.arity - h.coarity, k.arity),
            )
            ambient = BoolMat.ones(k.coarity - h.arity, k.arity - h.coarity)
            expected = p22.mul(q_rule).is_nilpotent()
            assert context_type_ok(k.tr, q_rule, ambient) == expected

    def test_zigzag_type_gate(self):
        # K = phi(cross 1 1), rule type J1x1; allowed at J, not at 0
        k = phi(cross(1, 1))
        j = BoolMat.ones(1, 1)
        zero = BoolMat.zeros(1, 1)
        assert context_type_ok(k.tr, j, j)
        assert not context_type_ok(k.tr, j, zero)

    def test_permutation_loop_rejected(self):
        # a context wiring the rule's output straight back to its input is
        # rejected: p22 * q is a permutation pattern, never nilpotent
        k = phi(same(1))  # context of shape (0+1, 0+1) closing a (1,1) rule
        q_rule = BoolMat.ones(1, 1)
        assert not context_type_ok(k.tr, q_rule, BoolMat.ones(0, 0))

    def test_agrees_with_annex(self, rng, hopf_sig):
        # K admits a rule of type H.tr at type q exactly when annex(K, H)
        # is defined and its transference lies within q
        outcomes = collections.Counter()
        for _ in range(300):
            h = random_class(rng, list(hopf_sig), max_inner=2)
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            k = exact_shape_class(rng, hopf_sig, m + h.arity, n + h.coarity)
            q = BoolMat.zeros(m, n)
            for i, j in itertools.product(range(m), range(n)):
                if rng.random() < 0.7:
                    q = q.set(i, j, 1)
            try:
                tr = annex(k, h).tr
            except JoinUndefinedError:
                outcome = "undefined"
            else:
                outcome = "within" if tr.leq(q) else "exceeds"
            assert context_type_ok(k.tr, h.tr, q) == (outcome == "within")
            outcomes[outcome] += 1
        assert min(outcomes[o] for o in ("undefined", "within", "exceeds")) >= 20, outcomes
