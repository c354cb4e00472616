"""Rules, simple reductions, normalization, and joinability."""

from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netrw.ambiguity
import netrw.freeprop
import netrw.match
import netrw.network
from netrw import ainparse, cli, rewrite
from netrw.ainparse import parse_rules, parse_term
from netrw.ambiguity import confluence_report, enumerate_decisive
from netrw.core import BoolMat, Symbol, cross, parse_signature, same
from netrw.freeprop import (
    LinComb,
    NetClass,
    annex,
    compose,
    generator,
    identity,
    lc_annex,
    phi,
    tensor,
)
from netrw.match import features, find_embeddings, pattern_parts
from netrw.network import _components, canonical_code
from netrw.order import LT, OrderSpec, Stage, check_compatible, compare, parse_order
from netrw.props import BAFF_NAT, parse_assignment
from netrw.rewrite import (
    BudgetExceededError,
    JoinResult,
    ReductionCycleError,
    ReductionStep,
    Rule,
    RuleError,
    all_single_steps,
    is_irreducible,
    joinable,
    _monomial_redexes,
    _Redexes,
    _replacement,
    make_rule,
    normalize,
    reduce_once,
)

import conftest
from conftest import (
    computed,
    eager_contexts,
    exact_shape_class,
    format_step,
    random_class,
    random_relabel,
    reference_context_type_ok,
    reference_monomial_redexes,
    same_network,
    swap_everywhere,
)
from test_models import MODELS, value

CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"
SYSTEMS = ("assoc", "circle", "bridge", "zigzag", "frobenius", "hopf")


def corpus_system(system: str):
    """A corpus system's signature, rules and order."""
    sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
    rules = parse_rules((CORPUS / f"{system}.rules").read_text(encoding="utf-8"), sig)
    spec = parse_order(
        (CORPUS / f"{system}.order").read_text(encoding="utf-8"),
        sig,
        lambda name: (CORPUS / name).read_text(encoding="utf-8"),
    )
    return sig, rules, spec


def circle_power_text(n: int) -> str:
    """y^n as a naked path of n y factors."""
    labels = "abcdefghijklmnopqrstuvwxyz"
    return " ".join(f"y^{a}_{b}" for a, b in zip(labels, labels[1:n + 1]))


@pytest.fixture
def msig():
    return parse_signature("gen m 1 2\n")


@pytest.fixture
def assoc(msig):
    return parse_rules("rule assoc sharp: m^a_bc m^c_de -> m^a_ce m^c_bd", msig)


@pytest.fixture
def circle():
    """The circle rule and y^8, which takes 15 steps to normalize."""
    sig = parse_signature("gen x 1 1\ngen y 1 1\n")
    rules = parse_rules("rule circ sharp: y^a_b y^b_c -> d^a_c - x^a_b x^b_c", sig)
    y8 = parse_term(circle_power_text(8), sig)
    return rules, y8, BoolMat.ones(1, 1)


@pytest.fixture
def zig():
    sig = parse_signature("gen cup 0 2\ngen cap 2 0\n")
    rules = parse_rules(
        "rule zig1: cup_12 cap^23 -> d^3_1\nrule zig2: cap^32 cup_21 -> d^3_1\n",
        sig,
    )
    return sig, rules


class TestMakeRule:
    def test_assoc_sharp_type(self, assoc):
        assert assoc[0].sharp
        assert assoc[0].qtype == BoolMat.ones(1, 3)

    def test_bridge_sharp_rejected(self):
        sig = parse_signature("gen eta 1 0\ngen eps 0 1\n")
        eta, eps = generator(sig["eta"]), generator(sig["eps"])
        lhs = LinComb.monomial(compose(eta, eps))
        rhs = LinComb.monomial(phi(same(1)))
        with pytest.raises(RuleError, match="RhsOutsideType"):
            make_rule("bridge", lhs, rhs, "sharp")
        rule = make_rule("bridge", lhs, rhs, BoolMat.ones(1, 1))
        assert not rule.sharp

    def test_zeros_typespec(self):
        sig = parse_signature("gen eta 1 0\ngen eps 0 1\n")
        bridge = compose(generator(sig["eta"]), generator(sig["eps"]))
        lhs = LinComb.monomial(tensor(bridge, identity(1)))
        rule = make_rule("z", lhs, lhs, [(0, 0)])
        assert rule.qtype == BoolMat.from_rows([[0, 1], [1, 1]])
        assert not rule.sharp

    def test_class_lhs_taken_as_is(self, zig):
        # a class lhs is not canonicalized, and under the all-ones type no
        # rhs transference is read; under the sharp type it is
        sig, _ = zig
        [(lhs, _)] = ainparse._parse_summands("cup_12 cap^23", sig, None, True)[0]
        [(rhs, _)] = ainparse._parse_summands("d^3_1", sig, None, False)[0]
        rule = make_rule("z", lhs, rhs, [])
        assert rule.lhs is lhs and not computed(lhs, "code")
        assert rule.qtype.is_ones() and not computed(rhs, "tr")
        assert rule.lhs_needs == {sig["cup"], sig["cap"], (sig["cap"], 1, sig["cup"], 2)}
        with pytest.raises(RuleError, match=r"RhsOutsideType\(term 1\)"):
            make_rule("z", lhs, rhs, "sharp")
        assert computed(rhs, "tr") and not computed(lhs, "code")

    def test_lhs_not_monomial(self, msig):
        m = generator(msig["m"])
        two = LinComb.monomial(m, 2)
        with pytest.raises(RuleError, match="LhsNotMonomial"):
            make_rule("bad", two, two, "sharp")


    def test_shape_checks(self, msig):
        m = generator(msig["m"])
        with pytest.raises(RuleError) as exc:
            make_rule("r", m, phi(same(1)), "sharp")
        assert str(exc.value) == "rule 'r': lhs and rhs shapes differ"
        with pytest.raises(RuleError) as exc:
            make_rule("r", m, m, BoolMat.ones(2, 2))
        assert str(exc.value) == "rule 'r': type shape mismatch"

class TestReduceOnce:
    def test_right_comb_to_left_comb(self, msig, assoc):
        m = generator(msig["m"])
        rc = LinComb.monomial(compose(m, tensor(identity(1), m)))
        lc = LinComb.monomial(compose(m, tensor(m, identity(1))))
        q = BoolMat.ones(1, 3)
        out, step = reduce_once(rc, q, assoc)
        assert out == lc
        assert step.rule_id == "assoc"
        # the step record witnesses the congruence: the replaced monomial
        # is the context-annexed lhs and the replacement the annexed rhs
        assert annex(step.context, assoc[0].lhs) == step.before
        assert lc_annex(step.context, assoc[0].rhs) == step.after
        assert "apply assoc" in format_step(step)

    def test_identity_irreducible(self, msig, assoc):
        for n in range(3):
            x = LinComb.monomial(phi(same(n)))
            assert reduce_once(x, BoolMat.ones(n, n), assoc) is None

    def test_zigzag_types(self, zig):
        sig, rules = zig
        m1 = parse_term("cup_12 cap^23", sig)
        assert reduce_once(m1, BoolMat.zeros(1, 1), rules) is None
        out, _ = reduce_once(m1, BoolMat.ones(1, 1), rules)
        assert out == LinComb.monomial(phi(same(1)))

    def test_type_monotonicity(self, rng, zig):
        # reductions available at q stay available at q' >= q
        sig, rules = zig
        for text in ("cup_12 cap^23", "cap^32 cup_21"):
            x = parse_term(text, sig)
            assert reduce_once(x, BoolMat.zeros(1, 1), rules) is None
            assert reduce_once(x, BoolMat.ones(1, 1), rules) is not None


class TestNormalize:
    def test_needs_order_or_budget(self, circle):
        # with neither, nothing bounds the walk
        rules, y8, q = circle
        with pytest.raises(ValueError) as exc:
            normalize(y8, q, rules)
        assert str(exc.value) == "normalize needs either order_backed or max_steps"

    def test_right_nested_depth_four(self, msig, assoc):
        # right comb on 4 leaves reaches the left comb; the step count is a
        # valid rotation distance in the Tamari lattice (between 2 and 3)
        m = generator(msig["m"])
        rc = compose(m, tensor(identity(1), compose(m, tensor(identity(1), m))))
        lc = compose(m, tensor(compose(m, tensor(m, identity(1))), identity(1)))
        trace = []
        q = BoolMat.ones(1, 4)
        nf = normalize(LinComb.monomial(rc), q, assoc, order_backed=True, trace=trace)
        assert nf == LinComb.monomial(lc)
        assert 2 <= len(trace) <= 3

    def test_idempotent(self, rng, msig, assoc):
        for _ in range(50):
            x = LinComb.monomial(random_class(rng, list(msig), max_inner=4))
            q = BoolMat.ones(x.coarity, x.arity)
            nf = normalize(x, q, assoc, order_backed=True)
            assert normalize(nf, q, assoc, order_backed=True) == nf
            assert is_irreducible(nf, q, assoc)

    def test_cancellation_normalizes_to_zero(self, rng, msig, assoc):
        x = LinComb.monomial(random_class(rng, list(msig), max_inner=3))
        q = BoolMat.ones(x.coarity, x.arity)
        assert normalize(x + (-x), q, assoc, max_steps=5).is_zero()
        assert is_irreducible(x + (-x), q, assoc)
        assert is_irreducible(LinComb.zero(1, 3), BoolMat.ones(1, 3), assoc)

    def test_budget_exceeded(self, msig, assoc):
        m = generator(msig["m"])
        deep = m
        for _ in range(3):
            deep = compose(m, tensor(identity(1), deep))
        q = BoolMat.ones(1, deep.arity)
        with pytest.raises(BudgetExceededError) as info:
            normalize(LinComb.monomial(deep), q, assoc, max_steps=1)
        assert not info.value.partial.is_zero()

    def test_zero_budget_applies_no_step(self, msig, assoc, circle):
        rules, y8, q = circle
        trace = []
        with pytest.raises(BudgetExceededError) as info:
            normalize(y8, q, rules, max_steps=0, trace=trace)
        assert info.value.steps == 0
        assert info.value.partial == y8
        assert trace == []
        m = LinComb.monomial(generator(msig["m"]))
        assert normalize(m, BoolMat.ones(1, 2), assoc, max_steps=0) == m

    def test_budget_counts_steps(self, circle):
        # the budget counts first replacements: y^8 takes 10, where the
        # step path takes 15 steps
        rules, y8, q = circle
        nf = normalize(y8, q, rules, max_steps=10)
        for k in (1, 5, 9):
            trace = []
            with pytest.raises(BudgetExceededError) as info:
                normalize(y8, q, rules, max_steps=k, trace=trace)
            assert info.value.steps == k == len(trace)
            assert normalize(info.value.partial, q, rules, max_steps=10) == nf

    def test_one_complement_per_labeling(self, monkeypatch, circle):
        # each context is computed once: strong_embeddings returns the
        # labelings, and exactly one complement is taken of each
        rules, y8, q = circle
        counts = {"complement": 0, "labelings": 0}
        real_complement = netrw.match.complement
        real_strong = netrw.match.strong_embeddings

        def counting_complement(*args):
            counts["complement"] += 1
            return real_complement(*args)

        def counting_strong(*args, **kwargs):
            labelings = real_strong(*args, **kwargs)
            counts["labelings"] += len(labelings)
            return labelings

        swap_everywhere(monkeypatch, real_complement, counting_complement)
        swap_everywhere(monkeypatch, real_strong, counting_strong)
        normalize(y8, q, rules, max_steps=15)
        assert counts["labelings"] > 0
        assert counts["complement"] == counts["labelings"]

    def test_every_step_decreases(self, rng, msig, assoc):
        assignment = parse_assignment(
            "map m = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 2", msig, BAFF_NAT
        )
        spec = OrderSpec((Stage(BAFF_NAT, assignment),))
        for _ in range(40):
            x = LinComb.monomial(random_class(rng, list(msig), max_inner=4))
            q = BoolMat.ones(x.coarity, x.arity)
            trace = []
            normalize(x, q, assoc, order_backed=True, trace=trace)
            for step in trace:
                for term in step.after.monomials():
                    assert compare(term, step.before, spec) == LT


class TestFeedbackTypedRule:
    def test_wrap_context_needs_the_type_zero(self):
        # the smallest feedback-typed rule: its where clause lets the
        # context wire output a back into input e; with the all-ones type
        # the same occurrence is rejected
        sig = parse_signature(
            "gen m 1 2\ngen S 1 1\ngen D 2 1\ngen eta 1 0\ngen eps 0 1\n"
        )
        rules = parse_rules(
            "rule fb: m^b_cd m^c_ef S^d_g d^f_h D^{a h}_i D^{i g}_j"
            " -> d^a_j d^b_e where a ~> e",
            sig,
        )
        subject = parse_term(
            "m^b_cd m^c_ef S^d_g d^f_h D^{a h}_i D^{i g}_j D^{x e}_a", sig
        )
        q = BoolMat.ones(subject.coarity, subject.arity)
        hit = reduce_once(subject, q, rules)
        assert hit is not None
        assert hit[0] == parse_term("[b x|D^{x b}_j|j]", sig)

        untyped = parse_rules(
            "rule fbj: m^b_cd m^c_ef S^d_g d^f_h D^{a h}_i D^{i g}_j"
            " -> d^a_j d^b_e",
            sig,
        )
        assert is_irreducible(subject, q, untyped)


class TestJoinable:
    def test_trivial(self, rng, msig, assoc):
        x = LinComb.monomial(random_class(rng, list(msig)))
        q = BoolMat.ones(x.coarity, x.arity)
        assert joinable(x, x, q, assoc, max_steps=3).status == "yes"

    def test_zigzag_joinability(self, zig):
        sig, rules = zig
        x = parse_term("cup_12 cap^23", sig)
        y = parse_term("cap^32 cup_21", sig)
        assert joinable(x, y, BoolMat.zeros(1, 1), rules, max_steps=10).status == "no"
        res = joinable(x, y, BoolMat.ones(1, 1), rules, max_steps=10)
        assert res.status == "yes"
        assert res.common == LinComb.monomial(phi(same(1)))

    def test_pentagon(self, msig, assoc):
        m = generator(msig["m"])
        site = compose(m, tensor(identity(1), compose(m, tensor(identity(1), m))))
        q = BoolMat.ones(1, 4)
        steps = all_single_steps(LinComb.monomial(site), q, assoc)
        assert len(steps) == 2
        res = joinable(steps[0], steps[1], q, assoc, max_steps=10)
        assert res.status == "yes"

    def test_budget_runs_out_inside_joinable(self, monkeypatch):
        # with one step allowed, 19 of the Hopf ambiguities are unknown,
        # each because a normalization inside joinable ran out of budget
        sig = parse_signature((CORPUS / "hopf.sig").read_text(encoding="utf-8"))
        rules = parse_rules((CORPUS / "hopf.rules").read_text(encoding="utf-8"), sig)
        real_normalize, real_joinable = rewrite.normalize, joinable
        ran_out = []
        calls = []  # per joinable call: its status, and whether the budget ran out

        def recording_normalize(*args, **kwargs):
            try:
                return real_normalize(*args, **kwargs)
            except BudgetExceededError:
                ran_out.append(True)
                raise

        def recording_joinable(*args, **kwargs):
            ran_out.clear()
            result = real_joinable(*args, **kwargs)
            calls.append((result.status, bool(ran_out)))
            return result

        monkeypatch.setattr(rewrite, "normalize", recording_normalize)
        monkeypatch.setattr(netrw.ambiguity, "joinable", recording_joinable)
        report = confluence_report(rules, max_steps=1)
        assert report.counts() == {"resolved": 27, "unresolved": 0, "unknown": 19}
        assert Counter(status for status, out in calls if out) == {"unknown": 19}
        assert all(out for status, out in calls if status == "unknown")

    def test_breadth_first_join(self, monkeypatch, circle):
        # y^3 and its second one-step reduct have different order-backed
        # normal forms, yet the breadth-first search finds the reduct among
        # y^3's own one-step reducts, and takes the least common form
        rules, _, q = circle
        sig = parse_signature("gen x 1 1\ngen y 1 1\n")
        x = parse_term(circle_power_text(3), sig)
        reduct = all_single_steps(x, q, rules)[1]
        assert normalize(x, q, rules, order_backed=True) != normalize(reduct, q, rules, order_backed=True)
        keyed = []
        real_key = rewrite._lc_key

        def recording_key(c):
            keyed.append(c)
            return real_key(c)

        monkeypatch.setattr(rewrite, "_lc_key", recording_key)
        assert joinable(x, reduct, q, rules, order_backed=True) == JoinResult("yes", reduct)
        assert keyed == [reduct]


# ---------------------------------------------------------------------------
# The redex memo against plain reduce_once calls
# ---------------------------------------------------------------------------

# _grow_component calls in normalizing the right comb of 20 products
GROWN_ON_COMB_20 = 210


def normalize_traced(x, q, rules):
    """The first replacements an order-backed normalization takes."""
    trace = []
    normalize(x, q, rules, order_backed=True, trace=trace)
    return trace


def plain_reduce_once(x, q, rules):
    """reduce_once from its definition, with neither memo nor agenda: the
    monomials sorted by code, each searched afresh, and the result built by
    LinComb arithmetic."""
    if (q.rows, q.cols) != (x.coarity, x.arity):
        raise RuleError("ambient type shape mismatch")
    if not all(t.tr.leq(q) for t in x.terms):
        raise RuleError("combination outside ambient type")
    rules = sorted(rules, key=lambda r: r.rule_id)
    for nu, coeff in x.items():
        for rule, ctx in _monomial_redexes(nu, q, rules):
            after = lc_annex(ctx, rule.rhs)
            out = x + (after - LinComb.monomial(nu)).scale(coeff)
            return out, ReductionStep(rule.rule_id, ctx, nu, after, coeff)
    return None


def reference_normalize(x, q, rules, max_steps, trace, reduce=reduce_once):
    """normalize's stepping loop over plain reduce_once calls, which share
    no memo."""
    steps = 0
    while (hit := reduce(x, q, rules)) is not None:
        if steps >= max_steps:
            raise BudgetExceededError(x, steps)
        x, step = hit
        trace.append(step)
        steps += 1
    return x


def reference_joinable(x, y, q, rules, max_steps):
    """joinable's search over plain reduce_once and all_single_steps calls."""
    if x == y:
        return JoinResult("yes", x)
    try:
        nx = reference_normalize(x, q, rules, max_steps, [])
        ny = reference_normalize(y, q, rules, max_steps, [])
    except BudgetExceededError:
        return JoinResult("unknown")
    if nx == ny:
        return JoinResult("yes", nx)
    seen = [{x, nx}, {y, ny}]
    frontiers = [[x], [y]]
    for _ in range(max_steps):
        if not any(frontiers):
            return JoinResult("no", difference=nx - ny)
        for side in (0, 1):
            fresh = []
            for z in frontiers[side]:
                for w in all_single_steps(z, q, rules):
                    if w not in seen[side]:
                        seen[side].add(w)
                        fresh.append(w)
            frontiers[side] = fresh
        common = seen[0] & seen[1]
        if common:
            key = lambda z: tuple((t.code, c) for t, c in z.items())
            return JoinResult("yes", min(common, key=key))
    return JoinResult("unknown") if any(frontiers) else JoinResult("no", difference=nx - ny)


# a budget no normalization in these tests comes near
UNBOUNDED = 10**4


def replacement_map(trace, rules):
    """Each traced monomial's replacement, checked: every entry is its
    rule's reduct at its context, and no monomial has two replacements."""
    by_id = {rule.rule_id: rule for rule in rules}
    after = {}
    for step in trace:
        rule = by_id[step.rule_id]
        assert annex(step.context, rule.lhs) == step.before
        assert lc_annex(step.context, rule.rhs) == step.after
        assert after.setdefault(step.before, step.after) == step.after
    return after


def replayed(x, trace, rules):
    """x's normal form rebuilt from a normalization's trace alone: each
    monomial that is some entry's ``before`` is replaced by that entry's
    ``after``, until none is left."""
    after = replacement_map(trace, rules)
    # each round shortens every chain of replacements left by one
    for _ in range(len(after) + 1):
        if not after.keys() & x.terms.keys():
            return x
        y = LinComb.zero(x.coarity, x.arity)
        for t, c in x.terms.items():
            y += after[t].scale(c) if t in after else LinComb.monomial(t, c)
        x = y
    raise AssertionError("the trace's replacements reach no fixpoint")


def check_one_route(x, q, rules, budgets, model=None) -> int:
    """normalize against the step path, reference_normalize, at each
    budget; returns how many of the normalizations stopped.

    Where normalize finishes, it gives the step path's fixpoint NF(x), and
    its trace replays to it.  Where it stops, it has taken exactly the
    budget's replacements, each its rule's reduct; its partial keeps x's
    value in ``model``, if one is given, and normalizing the partial with a
    larger budget gives NF(x), with fewer replacements than x needs where
    the walk took any, so the partial holds the work done; at budget 0 the
    partial is x."""
    nf = reference_normalize(x, q, rules, UNBOUNDED, [])
    total = []
    normalize(x, q, rules, max_steps=UNBOUNDED, trace=total)
    stops = 0
    for budget in budgets:
        trace = []
        try:
            got = normalize(x, q, rules, max_steps=budget, trace=trace)
        except BudgetExceededError as exc:
            assert exc.steps == budget == len(trace)
            replacement_map(trace, rules)
            rest = []
            assert normalize(exc.partial, q, rules, max_steps=UNBOUNDED, trace=rest) == nf
            assert len(rest) < len(total) if budget else exc.partial == x
            if model is not None:
                assert value(exc.partial, model) == value(x, model)
            stops += 1
        else:
            assert len(trace) <= budget
            assert got == nf == replayed(x, trace, rules)
    return stops


def outcome(run, *args):
    """(normal form or BudgetExceededError fields, trace) of one
    normalization."""
    trace = []
    try:
        result = ("nf", run(*args, trace=trace))
    except BudgetExceededError as exc:
        result = ("budget", exc.partial, exc.steps, str(exc))
    return result, trace


def memo_normalize(x, q, rules, max_steps, trace):
    return normalize(x, q, rules, max_steps=max_steps, trace=trace)


def plain_normalize(x, q, rules, max_steps, trace):
    return reference_normalize(x, q, rules, max_steps, trace, reduce=plain_reduce_once)


def agenda_events(x, trace):
    """(steps at which a monomial other than the reduced one cancels to
    zero, steps whose reduced monomial leaves the combination and comes
    back later) of a normalization of x."""
    combos = [set(x.terms)]
    for step in trace:
        x = x + (step.after - LinComb.monomial(step.before)).scale(step.coefficient)
        combos.append(set(x.terms))
    cancels = returns = 0
    for i, step in enumerate(trace):
        cancels += bool(combos[i] - combos[i + 1] - {step.before})
        returns += step.before not in combos[i + 1] and any(
            step.before in later for later in combos[i + 2 :]
        )
    return cancels, returns


def random_circle_sum(rng, sig, rules):
    """A sum of short x, y words with small coefficients, and a one-step
    reduct of the first: the terms overlap, so reducts meet other terms
    and cancel them."""
    labels = "abcdefghi"
    words = []
    for _ in range(rng.randint(1, 3)):
        letters = "".join(rng.choice("xyy") for _ in range(rng.randint(0, 8)))
        words.append(" ".join(f"{g}^{a}_{b}" for g, a, b in zip(letters, labels, labels[1:])))
    a, *rest = (parse_term(word or "d^a_b", sig) for word in words)
    reduct = next(iter(all_single_steps(a, BoolMat.ones(1, 1), rules)), a)
    x = a + reduct.scale(rng.choice((1, -1)))
    for b in rest:
        x += b.scale(rng.choice((1, -1, 2, Fraction(1, 2))))
    return x


@pytest.fixture(scope="module")
def corpus_ambiguities():
    """(system, rules, ambiguity) for every decisive ambiguity of every
    corpus system."""
    out = []
    for system in SYSTEMS:
        sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
        text = (CORPUS / f"{system}.rules").read_text(encoding="utf-8")
        rules = sorted(parse_rules(text, sig), key=lambda r: r.rule_id)
        for i, s1 in enumerate(rules):
            for s2 in rules[i:]:
                out += [(system, rules, amb) for amb in enumerate_decisive(s1, s2)]
    return out


class TestReplacement:
    """``_replacement``, the reduct of an admitted redex, against
    ``lc_annex``: the join with each rhs term needs no nilpotence test once
    the context is admitted."""

    @staticmethod
    def check_redexes(nu, q, rules, counts):
        for rule, ctx in _monomial_redexes(nu, q, rules):
            before = counts["join_condition"]
            got = _replacement(rule, ctx)
            assert counts["join_condition"] == before
            assert got == lc_annex(ctx, rule.rhs)
            counts["redexes"] += 1
            # the oracle tests nilpotence only for ports joined both ways
            counts["joined both ways"] += bool(rule.rhs.terms and rule.qtype.rows and rule.qtype.cols)

    @staticmethod
    def count_join_conditions(monkeypatch, counts):
        real = netrw.freeprop.join_condition

        def counting(*args):
            counts["join_condition"] += 1
            return real(*args)

        swap_everywhere(monkeypatch, real, counting)

    def test_corpus_redexes(self, monkeypatch, corpus_ambiguities):
        # every redex of every site, reduct term and rule side of the corpus,
        # at the ambiguity's type and at the all-ones type
        counts = Counter()
        self.count_join_conditions(monkeypatch, counts)
        for system, rules, amb in corpus_ambiguities:
            subjects = {amb.site, *amb.reduct1.terms, *amb.reduct2.terms}
            for nu in subjects:
                for q in (amb.amb_type, BoolMat.ones(nu.coarity, nu.arity)):
                    if nu.tr.leq(q):
                        self.check_redexes(nu, q, rules, counts)
            counts[system] += 1
        assert all(counts[system] for system in SYSTEMS)
        assert counts["redexes"] > 300
        # the oracle's joins were counted, so the wrapper is in place
        assert counts["join_condition"] >= counts["joined both ways"] > 100

    def test_random_hopf_monomials(self, monkeypatch, rng, hopf_sig):
        rules = sorted(
            parse_rules((CORPUS / "hopf.rules").read_text(encoding="utf-8"), hopf_sig),
            key=lambda r: r.rule_id,
        )
        counts = Counter()
        self.count_join_conditions(monkeypatch, counts)
        for _ in range(150):
            nu = random_class(rng, list(hopf_sig), max_inner=7, max_strays=2, min_inner=2)
            for q in (nu.tr, BoolMat.ones(nu.coarity, nu.arity)):
                self.check_redexes(nu, q, rules, counts)
        assert counts["redexes"] > 150
        assert counts["join_condition"] >= counts["joined both ways"] > 50


class TestRedexMemo:
    def test_corpus_normalizations_match_reference(self, corpus_ambiguities):
        # every site and reduct of the corpus, at budgets that stop the
        # walk and one that does not; a partial keeps its value in the
        # circle and Hopf models
        systems, stops = set(), 0
        for system, rules, amb in corpus_ambiguities:
            site, r1, r2 = LinComb.monomial(amb.site), amb.reduct1, amb.reduct2
            for x in (site, r1, r2, r1 + r2, r1.scale(2) - r2 + site):
                stops += check_one_route(x, amb.amb_type, rules, (0, 1, 2, 25), MODELS.get(system))
            systems.add(system)
        assert systems == set(SYSTEMS)
        assert stops >= 300, stops

    def test_random_hopf_combinations_match_reference(self, rng, hopf_sig):
        rules = parse_rules((CORPUS / "hopf.rules").read_text(encoding="utf-8"), hopf_sig)
        checked = repeats = stops = 0
        while checked < 200:
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            a, b = (LinComb.monomial(exact_shape_class(rng, hopf_sig, m, n)) for _ in "ab")
            q = BoolMat.ones(m, n)
            # a one-step reduct of a shares most of a's subnetworks, so the
            # normalization meets the same monomials from several sides
            x = a + b.scale(rng.choice((1, 2, Fraction(-1, 3))))
            x += next(iter(all_single_steps(a, q, rules)), b)
            if len(x.terms) < 2:
                continue
            checked += 1
            stops += check_one_route(x, q, rules, (rng.randint(0, 3), 400), MODELS["hopf"])
            # monomials the step path reduces more than once, where the
            # walk finds their normal form once
            trace = outcome(reference_normalize, x, q, rules, 400)[1]
            repeats += len(trace) - len({step.before for step in trace})
        assert repeats > 50 and stops > 50, (repeats, stops)

    def test_agenda_matches_plain_steps(self, rng, hopf_sig):
        # the step path over reduce_once against loops that sort, search
        # and rebuild the whole combination on every step, and normalize
        # against both, on inputs where a step cancels a monomial other
        # than the one it reduces, where a monomial reduced away comes
        # back, and where the budget stops the normalization
        hopf = parse_rules((CORPUS / "hopf.rules").read_text(encoding="utf-8"), hopf_sig)
        circle_sig = parse_signature((CORPUS / "circle.sig").read_text(encoding="utf-8"))
        circle = parse_rules((CORPUS / "circle.rules").read_text(encoding="utf-8"), circle_sig)
        counts = Counter()
        while counts["hopf"] < 120 or counts["circle"] < 120:
            if counts["hopf"] < counts["circle"]:
                m, n = rng.randint(0, 2), rng.randint(0, 2)
                a, b = (LinComb.monomial(exact_shape_class(rng, hopf_sig, m, n)) for _ in "ab")
                q, rules, system = BoolMat.ones(m, n), hopf, "hopf"
                x = a + b.scale(rng.choice((1, 2, Fraction(-1, 3))))
                x += next(iter(all_single_steps(a, q, rules)), b).scale(rng.choice((1, -1)))
            else:
                x = random_circle_sum(rng, circle_sig, circle)
                q, rules, system = BoolMat.ones(1, 1), circle, "circle"
            if len(x.terms) < 2:
                continue
            counts[system] += 1
            budgets = (rng.randint(0, 6), 400)
            for budget in budgets:
                args = (x, q, rules, budget)
                expected = outcome(plain_normalize, *args)
                assert outcome(reference_normalize, *args) == expected
                counts["budget stops"] += expected[0][0] == "budget"
            counts["walk stops"] += check_one_route(x, q, rules, budgets, MODELS[system])
            cancels, returns = agenda_events(x, expected[1])
            counts[system, "cancels"] += cancels
            counts[system, "returns"] += returns
        assert counts["hopf", "cancels"] >= 15 and counts["hopf", "returns"] >= 20, counts
        assert counts["circle", "cancels"] >= 40 and counts["circle", "returns"] >= 100, counts
        assert counts["budget stops"] >= 60 and counts["walk stops"] >= 60, counts

    def test_shared_memo_matches_fresh_calls(self, corpus_ambiguities):
        # a memo filled with first redexes and normal forms by normalize
        # answers all_single_steps, and then normalize, as fresh calls do
        for system, rules, amb in corpus_ambiguities:
            q, memo, trace = amb.amb_type, _Redexes(amb.amb_type, rules), []
            try:
                normalize(amb.reduct1 + amb.reduct2, q, rules, max_steps=25, trace=trace, memo=memo)
            except BudgetExceededError:
                pass
            for z in [amb.reduct1, amb.reduct2, LinComb.monomial(amb.site)] + [
                step.after for step in trace
            ]:
                assert all_single_steps(z, q, rules, memo) == all_single_steps(z, q, rules)
                nf = normalize(z, q, rules, max_steps=UNBOUNDED)
                assert normalize(z, q, rules, max_steps=UNBOUNDED, memo=memo) == nf

    def test_types_checked_before_any_step(self, hopf_sig):
        # S eta eps is reducible at the zero type and sorts before the
        # identity, which lies outside it: no call applies a step
        rules = parse_rules((CORPUS / "hopf.rules").read_text(encoding="utf-8"), hopf_sig)
        x = parse_term("S^a_b eta^b eps_c + d^a_c", hopf_sig)
        q = BoolMat.zeros(1, 1)
        assert reduce_once(x - parse_term("d^a_c", hopf_sig), q, rules) is not None
        calls = (
            lambda: reduce_once(x, q, rules),
            lambda: all_single_steps(x, q, rules),
            lambda: normalize(x, q, rules, max_steps=5),
            lambda: joinable(x, x.scale(2), q, rules, max_steps=5),
        )
        for call in calls:
            with pytest.raises(RuleError, match="^combination outside ambient type$"):
                call()
        with pytest.raises(RuleError, match="^ambient type shape mismatch$"):
            normalize(x, BoolMat.zeros(1, 2), rules, max_steps=5)

    def test_corpus_joinability_matches_reference(self, corpus_ambiguities):
        for system, rules, amb in corpus_ambiguities:
            args = (amb.reduct1, amb.reduct2, amb.amb_type, rules)
            assert joinable(*args, max_steps=25) == reference_joinable(*args, max_steps=25)

    def test_joinable_resumes_redex_searches(self, monkeypatch, corpus_ambiguities):
        # the breadth-first search resumes each search that the
        # normalizations left after a monomial's first redex, instead of
        # running it again from the first rule or the first anchor image;
        # and the second normalization resumes the searches of the chain
        # links that the first one followed
        searches = Counter()
        real_find = netrw.match.find_embeddings

        def counting_find(pattern, subject, image, *parts):
            searches[id(pattern), canonical_code(subject), image] += 1
            return real_find(pattern, subject, image, *parts)

        swap_everywhere(monkeypatch, real_find, counting_find)
        for system, rules, amb in corpus_ambiguities:
            searches.clear()
            joinable(amb.reduct1, amb.reduct2, amb.amb_type, rules, max_steps=25)
            assert max(searches.values(), default=1) == 1, (system, amb.key)
        # order-backed: assoc right combs, whose replacements are all chain
        # links, and circle powers, whose normal forms differ from those of
        # some one-step reducts, each against its one-step reducts
        statuses = Counter()
        for system, n, term in [("assoc", n, right_comb_text(n)) for n in range(3, 9)] + [
            ("circle", n, circle_word("y" * n)) for n in range(2, 9)
        ]:
            sig, rules, spec = corpus_system(system)
            check_compatible(rules, spec)
            x = parse_term(term, sig)
            q = BoolMat.ones(x.coarity, x.arity)
            for y in all_single_steps(x, q, rules):
                searches.clear()
                result = joinable(x, y, q, rules, order_backed=True)
                assert max(searches.values()) == 1, (system, n)
                statuses[system, result.status] += 1
        assert statuses[("assoc", "yes")] >= 20 and statuses[("circle", "yes")] >= 10, statuses

    def test_joinable_charges_only_new_replacements(self):
        # joinable's second normalization reuses the normal forms the first
        # found, and a budget counts only the replacements it takes beyond
        # them: y^8 takes 10, after which three of its one-step reducts take
        # 6 more, where each alone takes 12.  At a budget of 10 joinable
        # answers from y^8's side but not from the reduct's
        sig, rules, _ = corpus_system("circle")
        x, q = parse_term(circle_word("y" * 8), sig), BoolMat.ones(1, 1)
        over = 0
        for r in all_single_steps(x, q, rules):
            assert joinable(x, r, q, rules, max_steps=10).status == "yes"
            try:
                normalize(r, q, rules, max_steps=10)
            except BudgetExceededError:
                assert joinable(r, x, q, rules, max_steps=10).status == "unknown"
                over += 1
        assert over == 3

    def test_one_search_per_monomial_and_rule(self, monkeypatch):
        # circle y^12 takes 21 first replacements, where the step path
        # takes 63 steps and, searching afresh, looks at every monomial of
        # the growing combination again (about 6 calls a step); the walk
        # searches each distinct monomial once per rule, each image of the
        # rule's first anchor at most once
        sig = parse_signature("gen x 1 1\ngen y 1 1\n")
        rules = parse_rules("rule circ sharp: y^a_b y^b_c -> d^a_c - x^a_b x^b_c", sig)
        y12 = parse_term(circle_power_text(12), sig)
        searches = Counter()
        real_find = netrw.match.find_embeddings

        def counting_find(pattern, subject, image, *parts):
            searches[canonical_code(pattern), canonical_code(subject), image] += 1
            return real_find(pattern, subject, image, *parts)

        swap_everywhere(monkeypatch, real_find, counting_find)
        trace = []
        normalize(y12, BoolMat.ones(1, 1), rules, max_steps=100, trace=trace)
        monomials = set(y12.terms).union(*(step.after.terms for step in trace))
        assert len(trace) == 21
        assert max(searches.values()) == 1
        searched = {(pattern, subject) for pattern, subject, _ in searches}
        assert len(searched) <= len(monomials) * len(rules) < 63
        assert sum(searches.values()) <= sum(len(t.rep.deco) for t in monomials) * len(rules)

    def test_search_stops_at_first_redex(self, monkeypatch, msig, assoc):
        # the right comb of 20 products takes 19 steps; each step grows
        # components only up to the first anchor image that gives a redex
        # (searching every image grew 400 components, 190 of them whole)
        labels = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        comb = " ".join(f"m^{labels[2 * i]}_{labels[2 * i + 1]}{labels[2 * i + 2]}" for i in range(20))
        x = parse_term(comb, msig)
        grown = Counter()
        real_grow = netrw.match._grow_component

        def counting_grow(*args):
            result = real_grow(*args)
            grown[result is not None] += 1
            return result

        monkeypatch.setattr(netrw.match, "_grow_component", counting_grow)
        trace = normalize_traced(x, BoolMat.ones(1, 21), assoc)
        assert len(trace) == 19
        assert grown[True] == len(trace)
        assert sum(grown.values()) <= GROWN_ON_COMB_20

    def test_reducts_not_traversed_under_ones_type(self, monkeypatch, msig, assoc, circle, zig):
        # every transference fits the all-ones type, so no reduct is
        # traversed; a sharp rule's contexts are admissible there unchecked,
        # so only the contexts of a rule whose type is not tr(lhs) are
        circle_rules, y8, q = circle
        zsig, zig_rules = zig
        comb = parse_term("m^a_bc m^c_de m^e_fg m^g_hi", msig)
        snake = parse_term("cup_12 cap^23 cup_34 cap^45", zsig)
        traversed, contexts_taken = [], []
        real_tr, real_complement = netrw.network.transference, netrw.match.complement

        def recording_tr(net, *order):
            traversed.append(net)
            return real_tr(net, *order)

        def recording_complement(*args):
            k = real_complement(*args)
            contexts_taken.append(k.net)
            return k

        swap_everywhere(monkeypatch, real_tr, recording_tr)
        swap_everywhere(monkeypatch, real_complement, recording_complement)
        trace = normalize_traced(y8, q, circle_rules) + normalize_traced(comb, BoolMat.ones(1, 5), assoc)
        assert len(trace) == 10 + 3 and not traversed
        assert not any(rule.sharp for rule in zig_rules)
        assert len(normalize_traced(snake, q, zig_rules)) == 2 and traversed
        context_nets = {id(net) for net in contexts_taken}
        assert all(id(net) in context_nets for net in traversed)


# ---------------------------------------------------------------------------
# Contexts canonicalized only when read
# ---------------------------------------------------------------------------


def same_contexts(a: NetClass, b: NetClass) -> bool:
    return a == b and a.tr == b.tr and same_network(a.rep, b.rep)


class TestContextTypeUnderOnes:
    """``context_type_ok`` skips the block formula under the all-ones
    ambient type, and a sharp rule's contexts are not checked at all; at
    each type at which ``_Redexes`` admits a monomial nu, all ones and
    tr(nu), the redexes found must be those found with the version that
    checks every context of every rule and computes the formula
    (``conftest.reference_monomial_redexes`` with
    ``conftest.reference_context_type_ok``)."""

    def test_redexes_match_reference(self, monkeypatch, rng, hopf_sig, corpus_ambiguities):
        hopf = sorted(
            parse_rules((CORPUS / "hopf.rules").read_text(encoding="utf-8"), hopf_sig),
            key=lambda r: r.rule_id,
        )
        subjects = [(amb.site, rules) for _, rules, amb in corpus_ambiguities]
        for _ in range(60):
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            subjects.append((exact_shape_class(rng, hopf_sig, m, n), hopf))
        real = netrw.match.join_transference
        formulas = Counter()

        def counting(*args):
            formulas["calls"] += 1
            return real(*args)

        monkeypatch.setattr(netrw.match, "join_transference", counting)
        found = Counter()
        for nu, rules in subjects:
            for q in (BoolMat.ones(nu.coarity, nu.arity), nu.tr):
                formulas.clear()
                redexes = list(_monomial_redexes(nu, q, rules))
                if q.is_ones() or all(rule.sharp for rule in rules):
                    assert not formulas
                else:
                    found["formulas"] += formulas["calls"]
                with monkeypatch.context() as patch:
                    patch.setattr(conftest, "context_type_ok", reference_context_type_ok)
                    expected = list(reference_monomial_redexes(nu, q, rules))
                assert redexes == expected
                for (r1, k1), (r2, k2) in zip(redexes, expected):
                    assert r1.rule_id == r2.rule_id and same_contexts(k1, k2)
                found[q.is_ones()] += len(redexes)
        # every formula is a non-sharp rule's context at a corpus site of
        # bridge, zigzag or frobenius, whose type is not all ones: 13 of them
        assert found[True] >= 300 and found[False] >= 5 and found["formulas"] >= 13, found


def redex_list(search, nu, q, rules):
    """A redex search's whole output: rule id, context code and replacement
    of each redex, in order."""
    return [(rule.rule_id, ctx.code, _replacement(rule, ctx)) for rule, ctx in search(nu, q, rules)]


def reached_monomials(x, q, rules):
    """The monomials of x and of every combination its normalization at q
    meets within 25 steps."""
    trace = []
    try:
        normalize(x, q, rules, max_steps=25, trace=trace)
    except BudgetExceededError:
        pass
    return set(x.terms).union(*(step.after.terms for step in trace))


EXTRA_HOPF_RULES = (
    "rule w: d^a_b -> d^a_b\n"  # no inner vertex: needs nothing
    "rule x: m^a_bc eps_d -> m^a_cb eps_d\n"  # two components, not sharp
    "rule y sharp: S^a_b D^cd_e -> D^dc_e S^a_b\n"  # two components, sharp
)


class TestIndexedRedexes:
    """``_monomial_redexes`` passes over each rule whose ``lhs_needs`` the
    monomial lacks, and admits a sharp rule's contexts unchecked;
    ``conftest.reference_monomial_redexes``, which searches every rule and
    checks every context, is the oracle."""

    def check(self, nu, q, rules, counts):
        found = redex_list(_monomial_redexes, nu, q, rules)
        assert found == redex_list(reference_monomial_redexes, nu, q, rules)
        have = features(nu.net)
        counts["redexes"] += len(found)
        counts["passed over"] += sum(not rule.lhs_needs <= have for rule in rules)
        for rule, ctx in _monomial_redexes(nu, q, rules):
            if rule.sharp:
                # annex(K, lhs) = nu is acyclic and tr(nu) <= q: the
                # skipped check holds
                assert reference_context_type_ok(ctx.tr, rule.qtype, q)
                counts["unchecked"] += 1

    def test_corpus_monomials_and_sites(self, corpus_ambiguities):
        counts = Counter()
        reached = {}  # system: (rules, {(monomial, ambient type)})
        for system, rules, amb in corpus_ambiguities:
            self.check(amb.site, amb.amb_type, rules, counts)
            self.check(amb.site, BoolMat.ones(amb.site.coarity, amb.site.arity), rules, counts)
            counts["sites"] += 1
            _, seen = reached.setdefault(system, (rules, set()))
            for x in (amb.reduct1, amb.reduct2):
                seen |= {(nu, amb.amb_type) for nu in reached_monomials(x, amb.amb_type, rules)}
        for rules, seen in reached.values():
            for rule in rules:
                for x in (LinComb.monomial(rule.lhs), rule.rhs):
                    for q in (rule.qtype, BoolMat.ones(rule.coarity, rule.arity)):
                        seen |= {(nu, q) for nu in reached_monomials(x, q, rules)}
            for nu, q in seen:
                self.check(nu, q, rules, counts)
            counts["monomials"] += len(seen)
        assert set(reached) == set(SYSTEMS)
        assert counts["sites"] >= 60 and counts["monomials"] >= 150, counts
        assert counts["redexes"] >= 300 and counts["passed over"] >= 2000, counts
        assert counts["unchecked"] >= 250, counts

    def test_random_hopf_networks(self, rng, hopf_sig):
        text = (CORPUS / "hopf.rules").read_text(encoding="utf-8") + EXTRA_HOPF_RULES
        rules = sorted(parse_rules(text, hopf_sig), key=lambda r: r.rule_id)
        assert rules[-3].lhs_needs == frozenset()
        counts = Counter()
        for _ in range(200):
            nu = random_class(rng, list(hopf_sig), max_inner=7, max_strays=2, min_inner=2)
            comps, strays = _components(nu.net)
            counts["several components"] += len(comps) > 1
            counts["strays"] += bool(strays)
            for q in (nu.tr, BoolMat.ones(nu.coarity, nu.arity)):
                self.check(nu, q, rules, counts)
        assert counts["several components"] >= 150 and counts["strays"] >= 100, counts
        assert counts["redexes"] >= 3000 and counts["passed over"] >= 4000, counts
        assert counts["unchecked"] >= 4000, counts

    def test_embeddings_only_into_subjects_with_the_needs(self, rng, hopf_sig):
        # the index's premise: a pattern with an embedding into a subject
        # has only features the subject has, whichever networks hold them
        text = (CORPUS / "hopf.rules").read_text(encoding="utf-8") + EXTRA_HOPF_RULES
        rules = parse_rules(text, hopf_sig)
        patterns = [(rule.lhs_needs, rule.lhs.rep) for rule in rules]
        for _ in range(40):
            p = random_class(rng, list(hopf_sig), max_inner=2, max_strays=1)
            patterns.append((frozenset(features(random_relabel(rng, p.rep))), p.rep))
        hits = 0
        for _ in range(120):
            subject = random_class(rng, list(hopf_sig), max_inner=7, max_strays=2, min_inner=2)
            have = features(random_relabel(rng, subject.rep))
            assert have == features(subject.rep)
            for needs, pattern in patterns:
                assert needs == features(pattern)
                anchors = pattern_parts(pattern)[0]
                images = subject.rep.inner_vertices() if anchors else [None]
                if any(find_embeddings(pattern, subject.rep, w) for w in images):
                    assert needs <= have
                    hits += 1
        assert hits >= 2500, hits


class TestDeferredContexts:
    """Steps and ambiguities found with contexts that stay uncanonicalized
    until read, against the same found with every context canonicalized
    as it is taken (``conftest.eager_contexts``)."""

    def test_steps_match_eager_contexts(self, monkeypatch, rng, hopf_sig):
        hopf = parse_rules((CORPUS / "hopf.rules").read_text(encoding="utf-8"), hopf_sig)
        circle_sig = parse_signature((CORPUS / "circle.sig").read_text(encoding="utf-8"))
        circle = parse_rules((CORPUS / "circle.rules").read_text(encoding="utf-8"), circle_sig)
        steps = Counter()
        for k in range(80):
            if k % 2:
                m, n = rng.randint(0, 2), rng.randint(0, 2)
                x = LinComb.monomial(exact_shape_class(rng, hopf_sig, m, n))
                x += LinComb.monomial(exact_shape_class(rng, hopf_sig, m, n)).scale(2)
                q, rules, system = BoolMat.ones(m, n), hopf, "hopf"
            else:
                x = random_circle_sum(rng, circle_sig, circle)
                q, rules, system = BoolMat.ones(1, 1), circle, "circle"
            args = (x, q, rules, 40)
            deferred = outcome(memo_normalize, *args)
            check_one_route(x, q, rules, (40,))
            with monkeypatch.context() as patch:
                patch.setattr(rewrite, "contexts", eager_contexts)
                eager = outcome(memo_normalize, *args)
            assert deferred == eager
            for a, b in zip(deferred[1], eager[1]):
                assert same_contexts(a.context, b.context)
            steps[system] += len(eager[1])
        assert min(steps.values()) >= 60, steps

    def test_ambiguities_match_eager_contexts(self, monkeypatch, corpus_ambiguities):
        monkeypatch.setattr(rewrite, "contexts", eager_contexts)
        eager = []
        for system in SYSTEMS:
            sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
            text = (CORPUS / f"{system}.rules").read_text(encoding="utf-8")
            rules = sorted(parse_rules(text, sig), key=lambda r: r.rule_id)
            for i, s1 in enumerate(rules):
                for s2 in rules[i:]:
                    eager += enumerate_decisive(s1, s2)
        deferred = [amb for _, _, amb in corpus_ambiguities]
        assert deferred == eager
        assert [a.key for a in deferred] == [a.key for a in eager]
        assert [a.trivial for a in deferred] == [a.trivial for a in eager]
        assert any(a.trivial for a in eager) and not all(a.trivial for a in eager)
        for a, b in zip(deferred, eager):
            assert same_contexts(a.context1, b.context1)
            assert same_contexts(a.context2, b.context2)

    @pytest.fixture
    def codes(self, monkeypatch):
        """Counts of canonical codes computed and complements taken."""
        counts = Counter()
        for module, name in ((netrw.network, "canonical_code"), (netrw.match, "complement")):
            real = getattr(module, name)

            def counting(*args, real=real, name=name):
                counts[name] += 1
                return real(*args)

            swap_everywhere(monkeypatch, real, counting)
        return counts

    def normalize_cli(self, capsys, system, term):
        files = [f"--{kind}={CORPUS}/{system}.{kind}" for kind in ("sig", "rules", "order")]
        code = cli.main(["normalize", *files, term])
        out = capsys.readouterr().out
        assert code == cli.OK and out.strip()

    def test_canonical_codes_of_circle_power(self, codes, capsys):
        # y^10 takes 31 steps from 15 redex contexts; canonicalizing
        # those would make 49 codes
        self.normalize_cli(capsys, "circle", circle_power_text(10))
        assert codes == {"canonical_code": 34, "complement": 15}

    def test_canonical_codes_of_right_comb(self, codes, capsys):
        # the right comb of 10 products takes 9 steps, one context each;
        # canonicalizing those would make 21 codes
        letters = "abcdefghijklmnopqrstu"
        comb = " ".join(f"m^{letters[2 * i]}_{letters[2 * i + 1]}{letters[2 * i + 2]}" for i in range(10))
        self.normalize_cli(capsys, "assoc", comb)
        assert codes == {"canonical_code": 12, "complement": 9}


class TestDeferredReps:
    """A reduct's class computes its code at once and its representative
    only on the first read, so a reduct that merges into a monomial the
    combination already holds rebuilds none."""

    @pytest.fixture
    def circle_corpus(self):
        sig = parse_signature((CORPUS / "circle.sig").read_text(encoding="utf-8"))
        return sig, parse_rules((CORPUS / "circle.rules").read_text(encoding="utf-8"), sig)

    def test_reduct_merging_into_a_held_monomial(self, monkeypatch, circle_corpus):
        # y y -> d - x x, into a combination that holds x x already
        sig, rules = circle_corpus
        x = parse_term("y^a_b y^b_c + 2 x^a_b x^b_c", sig)
        expected = parse_term("d^a_b + x^a_c x^c_b", sig)
        made = []
        real = netrw.freeprop.class_of

        def recording(net):
            made.append(real(net))
            return made[-1]

        swap_everywhere(monkeypatch, real, recording)
        after, _ = reduce_once(x, BoolMat.ones(1, 1), rules)
        assert after == expected
        merged = [cls for cls in made if cls in x.terms]
        assert len(merged) == 1 and not computed(merged[0], "rep")

    def test_circle_power_reps(self, monkeypatch, circle_corpus):
        # the circle order's normal form of y^14: 59 codes, and a rep for
        # each class read; rebuilding every reduct's rep made 58
        sig, rules = circle_corpus
        x = parse_term(circle_power_text(14), sig)
        counts = Counter()
        for real in (netrw.network.canonical_code, netrw.network.from_code):

            def counting(*args, real=real):
                counts[real.__name__] += 1
                return real(*args)

            swap_everywhere(monkeypatch, real, counting)
        normalize(x, BoolMat.ones(1, 1), rules, order_backed=True)
        assert counts["canonical_code"] == 59
        assert counts["from_code"] <= 29

    def test_representatives_build_no_symbol(self, monkeypatch):
        # a representative is decorated by the symbols its code holds, so
        # once the files are loaded, normalizing validates no new Symbol
        def load(system, text):
            sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
            rules = parse_rules((CORPUS / f"{system}.rules").read_text(encoding="utf-8"), sig)
            return parse_term(text, sig), rules

        # D(m^8): D^yz_a over the right comb m^a_bc m^c_de ... m^o_pq
        labels = "abcdefghijklmnopq"
        comb = " ".join(f"m^{labels[i]}_{labels[i + 1]}{labels[i + 2]}" for i in range(0, 16, 2))
        y14, circle_rules = load("circle", circle_power_text(14))
        d_m8, hopf_rules = load("hopf", f"D^yz_a {comb}")
        assert (d_m8.coarity, d_m8.arity) == (2, 9)
        built = Counter()
        real = Symbol.__post_init__

        def counting(self):
            built[self.name] += 1
            real(self)

        monkeypatch.setattr(Symbol, "__post_init__", counting)
        froms = Counter()
        real_from = netrw.network.from_code

        def counting_from(code):
            froms["from_code"] += 1
            return real_from(code)

        swap_everywhere(monkeypatch, real_from, counting_from)
        normalize(y14, BoolMat.ones(1, 1), circle_rules, order_backed=True)
        normalize(d_m8, BoolMat.ones(2, 9), hopf_rules, max_steps=400)
        assert froms["from_code"] > 0 and not built


# ---------------------------------------------------------------------------
# Order-backed normal forms, one per monomial
# ---------------------------------------------------------------------------

LABELS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def circle_word(letters: str) -> str:
    """A word in x and y as a naked path; the empty word is a wire."""
    if not letters:
        return "d^a_b"
    return " ".join(f"{g}^{a}_{b}" for g, a, b in zip(letters, LABELS, LABELS[1:]))


def right_comb_text(n: int) -> str:
    """m(x1, m(x2, ... m(xn, x_{n+1}))) with its legs in that order."""
    return " ".join(f"m^{LABELS[2 * i]}_{LABELS[2 * i + 1]}{LABELS[2 * i + 2]}" for i in range(n))


def stepped(x, q, rules):
    """x's normal form by the step path."""
    return reference_normalize(x, q, rules, UNBOUNDED, [])


@pytest.fixture(scope="module")
def circle_corpus_rules():
    sig = parse_signature((CORPUS / "circle.sig").read_text(encoding="utf-8"))
    return sig, parse_rules((CORPUS / "circle.rules").read_text(encoding="utf-8"), sig)


class TestNormalForms:
    """A normalization sums each monomial's normal form, found once; it
    must give exactly the fixpoint that the step path reaches, and a
    budget that stops it must leave a reduct with that normal form."""

    def test_circle_powers(self, circle_corpus_rules):
        sig, rules = circle_corpus_rules
        q = BoolMat.ones(1, 1)
        stops = 0
        for n in range(1, 17):
            x = parse_term(circle_word("y" * n), sig)
            assert normalize(x, q, rules, order_backed=True) == stepped(x, q, rules), n
            stops += check_one_route(x, q, rules, (n // 2, UNBOUNDED), MODELS["circle"])
        # y^n takes k(k+1)/2 first replacements, k = n/2: more than n/2 from n = 4
        assert stops == 13

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-4, max_value=4, max_denominator=6),
                st.text(alphabet="xy", max_size=9),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_circle_combinations(self, circle_corpus_rules, summands):
        sig, rules = circle_corpus_rules
        q = BoolMat.ones(1, 1)
        x = LinComb.zero(1, 1)
        for c, letters in summands:
            x += parse_term(circle_word(letters), sig).scale(c)
        assert normalize(x, q, rules, order_backed=True) == stepped(x, q, rules)
        check_one_route(x, q, rules, (2,), MODELS["circle"])

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-4, max_value=4, max_denominator=6),
                st.text(alphabet="xyz", max_size=7),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_chains_with_coefficients(self, summands):
        # x -> 2y and zz -> -1/2 y are links of chains whose coefficients
        # multiply; yy -> 3z - d is not.  Under the weights x 7, y 3, z 2
        # and d 0 every rule lowers each word's total, so the rules terminate
        sig = parse_signature("gen x 1 1\ngen y 1 1\ngen z 1 1\n")
        rules = parse_rules(
            "rule a: x^a_b -> 2 y^a_b\n"
            "rule b: y^a_b y^b_c -> 3 z^a_c - d^a_c\n"
            "rule c: z^a_b z^b_c -> -1/2 y^a_c\n",
            sig,
        )
        q = BoolMat.ones(1, 1)
        x = LinComb.zero(1, 1)
        for c, letters in summands:
            x += parse_term(circle_word(letters), sig).scale(c)
        assert normalize(x, q, rules, order_backed=True) == stepped(x, q, rules)
        check_one_route(x, q, rules, (2,))

    def test_right_combs(self, msig, assoc):
        for n in range(1, 13):
            x = parse_term(right_comb_text(n), msig)
            q = BoolMat.ones(1, n + 1)
            nf = normalize(x, q, assoc, order_backed=True)
            assert nf == stepped(x, q, assoc) and nf.is_monomial(), n
            # the comb of n products takes n - 1 first replacements
            assert check_one_route(x, q, assoc, (n // 2, UNBOUNDED)) == (n > 2)

    @pytest.mark.parametrize("system", ["assoc", "circle"])
    def test_confluence_report_reducts(self, system):
        # every reduct of the ordered report, alone and summed, fresh and
        # through one memo shared as joinable shares it
        _, rules, spec = corpus_system(system)
        report = confluence_report(rules, spec)
        assert report.results
        for result in report.results:
            amb = result.ambiguity
            q, memo = amb.amb_type, _Redexes(amb.amb_type, rules)
            for x in (amb.reduct1, amb.reduct2, amb.reduct1 - amb.reduct2):
                expected = stepped(x, q, rules)
                assert normalize(x, q, rules, order_backed=True) == expected
                assert normalize(x, q, rules, order_backed=True, memo=memo) == expected

    def test_corpus_ambiguities(self, corpus_ambiguities):
        # every site and reduct of every corpus system, the unordered ones
        # too: each of these normalizes within 100 steps
        systems = set()
        for system, rules, amb in corpus_ambiguities:
            q = amb.amb_type
            for x in (LinComb.monomial(amb.site), amb.reduct1, amb.reduct2, amb.reduct1 - amb.reduct2):
                assert normalize(x, q, rules, order_backed=True) == stepped(x, q, rules)
            systems.add(system)
        assert systems == set(SYSTEMS)

    def test_swap_rules_cycle(self):
        # x -> y -> x is a chain of single-term replacements; x -> y + d,
        # y -> x returns to a monomial whose reduction is under way; and
        # x -> 2x is a chain of one link
        sig = parse_signature("gen x 1 1\ngen y 1 1\n")
        x, y = (parse_term(f"{g}^a_b", sig) for g in "xy")
        q = BoolMat.ones(1, 1)
        systems = (
            "rule a: x^a_b -> y^a_b\nrule b: y^a_b -> x^a_b\n",
            "rule a: x^a_b -> y^a_b + d^a_b\nrule b: y^a_b -> x^a_b\n",
            "rule a: x^a_b -> 2 x^a_b\n",
        )
        # with a budget each run stops where the recurrence is found, with
        # the replacements taken and the reduct they leave, from x and from
        # 3y - x; a monomial under way stops before its replacement is
        # taken again
        d = parse_term("d^a_b", sig)
        budgeted = (
            ((y, "aba"), (x.scale(2), "bab")),
            ((x + d, "ab"), (x.scale(2) + d.scale(3), "bab")),
            ((x.scale(4), "aa"), (y.scale(3) - x.scale(4), "aa")),
        )
        for text, stops in zip(systems, budgeted):
            rules = parse_rules(text, sig)
            for start, (partial, taken) in zip((x, y.scale(3) - x), stops):
                with pytest.raises(ReductionCycleError) as info:
                    normalize(start, q, rules, order_backed=True)
                assert info.value.monomial in (*x.terms, *y.terms)
                trace = []
                with pytest.raises(BudgetExceededError) as info:
                    normalize(start, q, rules, max_steps=25, trace=trace)
                assert info.value.partial == partial
                assert info.value.steps == len(trace) == len(taken)
                assert "".join(step.rule_id for step in trace) == taken
                replacement_map(trace, rules)

    @pytest.fixture
    def work(self, monkeypatch):
        """Calls of _replacement, which finds a monomial's first
        replacement, of _reduct, which applies one step, and of
        _Redexes.follow, which the walk makes once per replacement term."""
        counts = Counter()
        for real in (rewrite._replacement, rewrite._reduct):

            def counting(*args, real=real):
                counts[real.__name__] += 1
                return real(*args)

            swap_everywhere(monkeypatch, real, counting)
        real_follow = _Redexes.follow

        def counting_follow(*args):
            counts["follow"] += 1
            return real_follow(*args)

        monkeypatch.setattr(_Redexes, "follow", counting_follow)
        return counts

    def test_circle_power_growth(self, work, circle_corpus_rules):
        # ROADMAP item 18: y^n finds k(k+1)/2 first replacements,
        # k = n/2, each of two terms, and walks each term once (plus the
        # input's one); it applies no step.  The step path applies 2^k - 1
        # steps (127 at n = 14, 16,383 at n = 28), each with a replacement
        # of its own, so doubling n multiplies the walk's work by about 4
        # rather than by 2^k
        sig, rules = circle_corpus_rules
        q = BoolMat.ones(1, 1)
        counts = {}
        for n in (14, 28):
            work.clear()
            normalize(parse_term(circle_word("y" * n), sig), q, rules, order_backed=True)
            counts[n] = dict(work)
        assert counts == {
            14: {"_replacement": 28, "follow": 57},
            28: {"_replacement": 105, "follow": 211},
        }
        work.clear()
        stepped(parse_term(circle_word("y" * 14), sig), q, rules)
        assert work == {"_replacement": 127, "_reduct": 127}


# ---------------------------------------------------------------------------
# The entry point the benchmark traces
# ---------------------------------------------------------------------------


class TestTracedEntryPoint:
    """The benchmark's tracer swaps every binding of ``reduce_once`` and
    ``normalize`` for a wrapper, and counts the calls of ``reduce_once``
    that return a step as a job's steps.  A normalization, budgeted or
    not, takes its first replacements in one walk and applies no step: it
    reaches ``normalize`` once and ``reduce_once`` never, so the tracer
    reads no steps from it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for real in (rewrite.reduce_once, rewrite.normalize):

            def counting(*args, real=real, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            swap_everywhere(monkeypatch, real, counting)
        return calls

    def normalize_cli(self, capsys, *argv):
        files = [f"--{kind}={CORPUS}/circle.{kind}" for kind in ("sig", "rules")]
        code = cli.main(["normalize", *files, *argv, circle_power_text(10)])
        return code, capsys.readouterr().out

    def test_ordered_circle_power(self, calls, capsys):
        code, out = self.normalize_cli(capsys, f"--order={CORPUS}/circle.order")
        assert code == cli.OK and out.strip()
        assert calls == ["normalize"]

    def test_budget_stop(self, calls, capsys):
        # y^10 takes 15 first replacements
        code, out = self.normalize_cli(capsys, "--max-steps=7")
        assert code == cli.NEGATIVE and out.startswith("budget exceeded; partial: ")
        assert calls == ["normalize"]
        code, out = self.normalize_cli(capsys, "--max-steps=15")
        assert code == cli.OK and calls == ["normalize"] * 2
