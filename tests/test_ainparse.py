"""AIN parsing, printing, and the notation theorems."""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from netrw import ainparse, network
from netrw.ainparse import AinError, format_term, parse_rules, parse_term
from netrw.core import BoolMat, cross, parse_signature, same
from netrw.freeprop import (
    LinComb,
    class_of,
    compose,
    generator,
    lc_sym_join,
    phi,
    sym_join,
    tensor,
)
from netrw.network import InvalidNetworkError, _components, smoothen, transference, validate
from netrw.rewrite import RuleError, normalize

from conftest import (
    NEUTRAL,
    computed,
    exact_shape_class,
    random_class,
    random_network,
    reference_parse_rules,
    reference_parse_term,
    reference_term_label_roles,
    reference_term_parts,
    swap_everywhere,
)

CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"
CORPUS_SYSTEMS = ("assoc", "bridge", "circle", "frobenius", "hopf", "zigzag")



@pytest.fixture
def hsig():
    return parse_signature(
        "gen m 1 2\ngen S 1 1\ngen D 2 1\ngen eta 1 0\ngen eps 0 1\n"
    )


class TestParse:
    def test_closed_cross(self, hsig):
        assert parse_term("[ab|1|ba]", hsig) == LinComb.monomial(phi(cross(1, 1)))
        assert parse_term("[a b|1|b a]", hsig) == parse_term("[ab|1|ba]", hsig)

    def test_naked_equals_closed(self, hsig):
        assert parse_term("m^a_{b c} eta^b", hsig) == parse_term(
            "[a| m^a_{bc} eta^b |c]", hsig
        )

    def test_delta_rhs(self, hsig):
        assert parse_term("d^a_c", hsig) == LinComb.monomial(phi(same(1)))
        assert parse_term("delta^a_c", hsig) == LinComb.monomial(phi(same(1)))

    def test_antipode_axiom_lhs(self, hsig):
        x = parse_term("[b| m^b_{c d} S^c_e D^{e d}_a |a]", hsig)
        assert (x.coarity, x.arity) == (1, 1)
        assert len(x.monomials()[0].rep.deco) == 3

    def test_scalar_one(self, hsig):
        one = parse_term("1", hsig)
        assert one == LinComb.monomial(phi(same(0)))

    def test_coefficients(self, hsig):
        x = parse_term("2 m^a_bc - 1/2 m^a_bc", hsig)
        assert list(x.terms.values()) == [Fraction(3, 2)]

    def test_leading_sign(self, hsig):
        assert parse_term("+ m^a_bc", hsig) == parse_term("m^a_bc", hsig)
        assert list(parse_term("- 2 m^a_bc", hsig).terms.values()) == [-2]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m^a_bc +", "dangling sign"),
            ("m^a_bc -", "dangling sign"),
            ("-", "dangling sign"),
            ("  ", "empty expression"),
            ("1/ m^a_bc", "bad coefficient '1/'"),
            ("1/0 m^a_bc", "zero denominator in '1/0'"),
            ("1// [a|m^a_bc|b c]", "bad coefficient '1//'"),
            ("- - m^a_bc", "two signs in a row in '- - m^a_bc'"),
            ("m^a_bc +- + m^a_bc", "two signs in a row"),
            # at most one script of each kind, even after an empty one
            ("m^{}^a_bc", "two superscripts on 'm'"),
            ("m^a_{ }_bc", "two subscripts on 'm'"),
            # no whitespace inside a factor or a rational
            ("m^a _bc", "unexpected '_' in 'm^a _bc'"),
            ("m ^a_bc", "unexpected '^' in 'm ^a_bc'"),
            ("1 /2 m^a_bc", "unexpected '/' in '1 /2 m^a_bc'"),
            # a term ends at its closing bracket
            ("[a|m^a_bc|b c] [x|1|x]", "unexpected '[' in '[a|m^a_bc|b c] [x|1|x]'"),
            ("[a|1|a", "unterminated bracket in '[a|1|a'"),
            ("[a|m^a_bc 1|b c]", "unexpected number at '1'"),
            ("2 1", "unexpected number at '1'"),
        ],
    )
    def test_syntax_errors(self, hsig, text, message):
        with pytest.raises(AinError, match="^Syntax: ") as exc:
            parse_term(text, hsig)
        assert message in str(exc.value)

    def test_unknown_symbol(self, hsig):
        with pytest.raises(AinError, match="UnknownSymbol"):
            parse_term("zz^a_b", hsig)

    def test_arity_mismatch(self, hsig):
        with pytest.raises(AinError, match="ArityMismatch"):
            parse_term("m^a_b", hsig)

    def test_repeated_label(self, hsig):
        with pytest.raises(AinError, match="RepeatedLabel"):
            parse_term("S^a_b S^a_c", hsig)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("S^a_b S^a_c", "label 'a' produced twice"),
            ("S^a_b S^c_b", "label 'b' consumed twice"),
            ("d^a_b S^a_c", "label 'a' produced twice"),
            ("[a|S^a_b|b a]", "label 'a' produced twice"),
            ("[a|S^c_b|b]", "unbalanced labels (produced only: ['c'], consumed only: ['a'])"),
        ],
    )
    def test_repeated_label_message(self, hsig, text, message):
        with pytest.raises(AinError) as exc:
            parse_term(text, hsig)
        assert str(exc.value) == f"RepeatedLabel: {message}"

    def test_cycle(self, hsig):
        with pytest.raises(AinError, match="CycleInTerm"):
            parse_term("[|S^a_b S^b_a|]", hsig)

    @pytest.mark.parametrize(
        "text, witness",
        [
            ("[|S^a_b S^b_a|]", "(0, 1)"),  # two vertices
            ("S^a_a", "(0,)"),  # a self-loop
            ("d^a_b d^b_a", "(0, 1)"),  # deltas only
            ("[x|S^x_y d^a_a|y]", "(0,)"),  # a delta on itself, beside a wire
            ("S^d_c D^ac_b S^b_a", "(0, 1, 2)"),  # a vertex above the cycle
        ],
    )
    def test_cycle_message(self, hsig, text, witness):
        # the message names the edges among the vertices on or above the
        # cycle, by label order; both builders give it
        for build in (ainparse._build_term, validated_build):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(ainparse, "_build_term", build)
                with pytest.raises(AinError) as exc:
                    parse_term(text, hsig)
            assert str(exc.value) == f"CycleInTerm: CycleFound{witness}"

    @pytest.mark.parametrize(
        "text, witness",
        [
            ("S^a_b d^b_a", "(0,)"),
            ("[|S^a_b d^b_c d^c_a|]", "(0,)"),
            ("S^a_b d^b_c S^c_a", "(0, 2)"),
            ("S^e_a d^a_b D^bc_d d^d_e", "(1, 4)"),
        ],
    )
    def test_cycle_through_deltas(self, hsig, text, witness):
        # a wire through deltas is one edge, with its tailmost label's id
        with pytest.raises(AinError) as exc:
            parse_term(text, hsig)
        assert str(exc.value) == f"CycleInTerm: CycleFound{witness}"

    @pytest.mark.parametrize(
        "decl, text", [("gen delta 1 1", "delta^a_b"), ("gen delta 2 1", "delta^ab_c"), ("gen d 2 1", "d^ab_c")]
    )
    def test_declared_delta_is_the_generator(self, decl, text):
        sig = parse_signature(decl)
        x = parse_term(text, sig)
        assert x == LinComb.monomial(generator(next(iter(sig))))
        assert parse_term(format_term(x), sig) == x
        # the name the signature leaves free is still the delta
        other = "d" if "delta" in sig else "delta"
        assert parse_term(f"{other}^a_b", sig) == LinComb.monomial(phi(same(1)))

    def test_leg_mismatch_across_terms(self, hsig):
        with pytest.raises(AinError, match="LegOrderMismatchAcrossTerms"):
            parse_term("S^a_b + S^a_c", hsig)


class TestGrammar:
    """The examples of README's grammar section, each as README reads it."""

    @pytest.mark.parametrize(
        "texts",
        [
            ("m^a_bc", "m^a_{bc}", "m^a_{b c}", "m_{\tb c}^a", "2m^a_bc - m^a_bc"),
            ("[ab|1|ba]", "[a b|1|b a]", "[{a b}|1|{b}a]", "[ab|\t1 |ba]"),
            ("[a||a]", "[a|1|a]", "[a| |a]", "d^a_b", "delta^{a}_{ b }"),
            ("[a|2|a]", "2 [a|1|a]", "2[a||a]", "[a|1|a] + [a||a]", "4 [a|1/2|a]"),
            ("1", "[|1|]", "[||]", "2 - 1", "+ 1"),
            ("2", "1 + 1", "2 [|1|]", "[|2|]", "4/2"),
        ],
    )
    def test_spellings_of_one_combination(self, hsig, texts):
        first = parse_term(texts[0], hsig)
        assert [parse_term(text, hsig) for text in texts[1:]] == [first] * (len(texts) - 1)

    @pytest.mark.parametrize("text, coeff", [("1", 1), ("2", 2), ("1/3", Fraction(1, 3)), ("- 2/7", Fraction(-2, 7))])
    def test_a_rational_alone_is_a_multiple_of_the_unit(self, hsig, text, coeff):
        assert parse_term(text, hsig) == LinComb.monomial(phi(same(0)), coeff)


def validated_build(term, sig, legs, typed):
    """The two-pass term builder (``conftest.reference_term_parts``),
    which built each delta as a neutral vertex, with every network axiom
    checked by ``validate``, then smoothening.  The class is canonicalized
    at once and, ``typed`` or not, its transference is traversed on its
    first read."""
    if term.closed:
        outs, ins = term.outs, term.ins
    else:
        outs, ins = reference_term_label_roles(term, sig)
        if legs is not None:
            if sorted(outs) != sorted(legs[0]) or sorted(ins) != sorted(legs[1]):
                raise AinError(
                    "LegOrderMismatchAcrossTerms",
                    "additive terms have different unmatched label sets",
                )
            outs, ins = legs
    _, edges, deco = reference_term_parts(term, sig, outs, ins)
    try:
        net = validate(edges, deco)
    except InvalidNetworkError as exc:
        raise AinError("CycleInTerm", str(exc)) from None
    return class_of(smoothen(net)), (outs, ins)


def assert_same_classes(x: LinComb, y: LinComb) -> None:
    assert len(x.terms) == len(y.terms)
    for (a, ca), (b, cb) in zip(x.items(), y.items()):
        assert (a.code, a.rep.edges, a.tr, ca) == (b.code, b.rep.edges, b.tr, cb)


def term_text(rng: random.Random, net) -> str:
    """A closed term for ``net``: random labels, factors in random order,
    and a delta spliced into about a third of the edges."""
    labels = iter(rng.sample(ainparse._PRINT_ALPHABET, 2 * len(net.edges)))
    tail_label, head_label, factors = {}, {}, []
    for e in net.edges:
        tail_label[e] = head_label[e] = next(labels)
        if rng.random() < 0.3:
            head_label[e] = next(labels)
            factors.append(f"d^{head_label[e]}_{tail_label[e]}")
    for v in net.inner_vertices():
        sups = "".join(tail_label[e] for e in net.out_edges(v))
        subs = "".join(head_label[e] for e in net.in_edges(v))
        factors.append(net.deco[v].name + (f"^{{{sups}}}" if sups else "") + (f"_{{{subs}}}" if subs else ""))
    rng.shuffle(factors)
    outs = " ".join(head_label[net.in_edge(0, i)] for i in range(1, net.coarity + 1))
    ins = " ".join(tail_label[net.out_edge(1, j)] for j in range(1, net.arity + 1))
    return f"[{outs}| {' '.join(factors) or '1'} |{ins}]"


def no_neutral_vertex(x: LinComb) -> bool:
    """Whether no class of x holds a neutral vertex in the network it was
    built as; read before anything canonicalizes it."""
    return not any(NEUTRAL in cls.net.deco.values() for cls in x.terms)


class TestTermBuilding:
    """The parser builds a term's network without validating it: only a
    cycle can break the axioms once the labels pair up.  The two-pass
    builder, which made each delta a neutral vertex, validated and
    smoothened, is the oracle."""

    @pytest.mark.parametrize(
        "text",
        [
            "[a|d^a_b|b]",  # a stray wire through a delta
            "[a|d^a_b d^b_c d^c_e|e]",  # a chain of deltas
            "[a|d^c_e d^a_b d^b_c|e]",  # the chain written out of order
            "[a b|d^a_c delta^b_e|e c]",  # crossing wires
            "[|d^a_b eps_a eta^b|]",  # a wire between two vertices
            "[a|S^a_b d^b_c d^c_e S^e_f|f]",
            "D^ab_c d^c_e S^e_f d^f_g m^g_hi",
            "d^a_b S^b_c d^c_e",  # deltas on the legs of a naked term
            "m^a_bc d^b_e d^c_x",
            "d^x_a m^a_bc d^b_e d^c_y eta^z",
            "d^a_b + S^a_b",
            "d^b_e d^a_c - [b a|d^a_c d^b_e|e c]",
            "[b a|d^a_c d^b_e|c e] + 2 d^b_e d^a_c",
        ],
    )
    def test_deltas(self, monkeypatch, hsig, text):
        fast = parse_term(text, hsig)
        assert no_neutral_vertex(fast)
        monkeypatch.setattr(ainparse, "_build_term", validated_build)
        assert_same_classes(fast, parse_term(text, hsig))

    @pytest.mark.parametrize("system", CORPUS_SYSTEMS)
    def test_corpus_rule_sides(self, monkeypatch, system):
        sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
        text = (CORPUS / f"{system}.rules").read_text(encoding="utf-8")
        fast = parse_rules(text, sig)
        assert all(no_neutral_vertex(r.rhs) for r in fast)
        assert all(NEUTRAL not in r.lhs.net.deco.values() for r in fast)
        monkeypatch.setattr(ainparse, "_build_term", validated_build)
        slow = parse_rules(text, sig)
        assert len(fast) == len(slow) > 0
        for a, b in zip(fast, slow):
            assert (a.rule_id, a.qtype, a.sharp) == (b.rule_id, b.qtype, b.sharp)
            assert_same_classes(LinComb.monomial(a.lhs), LinComb.monomial(b.lhs))
            assert_same_classes(a.rhs, b.rhs)

    def test_random_hopf_networks(self, monkeypatch, rng, hopf_sig):
        # networks like the random Hopf benchmark inputs: several components
        # and stray edges; the parsed class must also be the network's own
        several = with_strays = with_deltas = 0
        for _ in range(150):
            net = random_network(rng, list(hopf_sig), max_inner=8, max_strays=2, min_inner=3)
            text = term_text(rng, net)
            fast = parse_term(text, hopf_sig)
            assert no_neutral_vertex(fast)
            with monkeypatch.context() as m:
                m.setattr(ainparse, "_build_term", validated_build)
                slow = parse_term(text, hopf_sig)
            assert_same_classes(fast, slow)
            assert_same_classes(fast, LinComb.monomial(class_of(net)))
            comps, strays = _components(net)
            several += len(comps) > 1
            with_strays += bool(strays)
            with_deltas += "d^" in text
        assert several > 100 and with_strays > 50 and with_deltas > 100


FACTOR_NAMES = ("m", "S", "D", "eta", "eps", "d", "delta")


def random_script(rng: random.Random, labels: list[str]) -> str:
    """A script's labels as a bare run or a group, braced tight or spaced."""
    roll = rng.random()
    if roll < 0.6:
        return "".join(labels)
    return "{" + ("" if roll < 0.8 else " ").join(labels) + "}"


def random_label(rng: random.Random, alphabet: str, used: list[str]) -> str:
    """A label, mostly one not yet used in its role."""
    fresh = [label for label in alphabet if label not in used]
    return rng.choice(fresh if fresh and rng.random() < 0.99 else alphabet)


def random_product(rng: random.Random, sig) -> tuple[str, bool]:
    """A syntactically valid product over the Hopf signature, naked or
    closed, and whether it has a delta.  Its labels come from a small
    alphabet, so that they repeat, go unmatched and close cycles, and one
    factor in twenty has a wrong number of superscripts."""
    count = rng.randint(0, 5)
    alphabet = "abcdefghijkl"[: rng.randint(1, 2 + 2 * count)]
    factors, sups, subs, deltas = [], [], [], False
    for _ in range(count):
        name = rng.choice(FACTOR_NAMES)
        delta = name in ("d", "delta")
        deltas |= delta
        coarity, arity = (1, 1) if delta else (sig[name].coarity, sig[name].arity)
        if rng.random() < 0.05:
            coarity = rng.randint(0, 2)
        up, down = [], []
        for _ in range(coarity):
            up.append(random_label(rng, alphabet, sups + up))
        for _ in range(arity):
            down.append(random_label(rng, alphabet, subs + down))
        sups += up
        subs += down
        scripts = [mark + random_script(rng, labels) for mark, labels in (("^", up), ("_", down)) if labels]
        rng.shuffle(scripts)
        factors.append(name + "".join(scripts))
    body = " ".join(factors) or "1"
    if rng.random() < 0.6:
        return body, deltas
    outs = [label for label in dict.fromkeys(sups) if label not in subs]
    ins = [label for label in dict.fromkeys(subs) if label not in sups]
    if rng.random() < 0.1:
        outs = rng.sample(alphabet, rng.randint(0, min(2, len(alphabet))))
    rng.shuffle(outs)
    rng.shuffle(ins)
    return f"[{' '.join(outs)}|{body}|{' '.join(ins)}]", deltas


TERM_ALPHABET = "mSDdeltapsab012^_{}[]|+-/ \t"

# a factor's script that follows an empty braced script of its kind, as in
# m^{}^a_bc, which the two-pass parser took as the factor's only one
REPEATED_SCRIPT = re.compile(r"([\^_])\{\s*\}(?:[\^_](?:\{[^}]*\}|[0-9A-Za-z]*))*?\1")


def parses_alike(text: str, sig, deltas: bool = True) -> bool:
    """``parse_term`` against the two-pass parser on one text: both accept,
    with identical classes and no neutral vertex, or both reject, the new
    one with AinError or RuleError, and with the same message for a cycle
    when the text has no delta.  A text that repeats a script after an
    empty one is rejected although the two-pass parser accepts it.
    Returns whether the text parsed."""
    try:
        want = reference_parse_term(text, sig)
    except (AinError, RuleError) as exc:
        with pytest.raises((AinError, RuleError)) as raised:
            parse_term(text, sig)
        if not deltas and exc.kind == "CycleInTerm":
            assert str(raised.value) == str(exc)
        return False
    if REPEATED_SCRIPT.search(text):
        with pytest.raises(AinError, match=r"^Syntax: two (super|sub)scripts on "):
            parse_term(text, sig)
        return False
    got = parse_term(text, sig)
    assert no_neutral_vertex(got)
    assert_same_classes(got, want)
    return True


class TestAgainstTwoPassParser:
    """The one-pass builder and the label reader accept exactly what the
    two-pass parser accepted, and give the same classes
    (``conftest.reference_parse_term``)."""

    def test_random_products(self, rng, hsig):
        kinds = Counter()
        for _ in range(5000):
            text, deltas = random_product(rng, hsig)
            if rng.random() < 0.2:
                more, also = random_product(rng, hsig)
                text, deltas = f"{text} {rng.choice(('+', '-', '+ 2'))} {more}", deltas or also
            kinds[parses_alike(text, hsig, deltas), deltas] += 1
        assert all(kinds[key] > 300 for key in itertools.product((True, False), repeat=2))

    def test_random_strings(self, rng, hsig):
        parsed = 0
        for _ in range(20000):
            text = "".join(rng.choices(TERM_ALPHABET, k=rng.randint(1, 12)))
            parsed += parses_alike(text, hsig)
        assert parsed > 100

    @pytest.mark.parametrize("text", ["m^{}^a_bc", "S_{ }^a_b", "m^{\t}_bc^a", "m^a_{}_bc", "D^{}_a^bc"])
    def test_repeated_script_after_an_empty_one(self, hsig, text):
        # the two-pass parser read only a script's labels, so it took an
        # empty first script as none; one of each kind is all a factor has
        assert REPEATED_SCRIPT.search(text)
        reference_parse_term(text, hsig)
        assert not parses_alike(text, hsig)


class TestRules:
    def test_hopf_file_loads_sharp(self, hsig):
        text = open("src/netrw/corpus/hopf.rules").read()
        rules = parse_rules(text, hsig)
        assert len(rules) == 14
        assert all(r.sharp for r in rules)

    def test_where_clause_zero(self, hsig):
        # the smallest feedback-typed rule instance: where a ~> e
        text = (
            "rule fb: m^b_cd m^c_ef S^d_g d^f_h D^{a h}_i D^{i g}_j"
            " -> d^a_j d^b_e where a ~> e"
        )
        rule = parse_rules(text, hsig)[0]
        # lhs legs: outputs (b, a), inputs (e, j); the declared zero at
        # (a, e) coincides with the transference zero, so the rule is sharp
        assert rule.qtype.get(1, 0) == 0
        assert sum(sum(row) for row in rule.qtype.to_rows()) == 3
        assert rule.sharp and rule.qtype == rule.lhs.tr

    def test_duplicate_id(self, hsig):
        with pytest.raises(AinError):
            parse_rules("rule a: d^x_y -> d^x_y\nrule a: d^x_y -> d^x_y", hsig)

    def test_rule_rhs_trailing_sign(self, hsig):
        for sign in "+-":
            with pytest.raises(AinError, match="^Syntax: line 1: dangling sign"):
                parse_rules(f"rule r: m^a_bc -> m^a_bc {sign}", hsig)

    @pytest.mark.parametrize(
        "second, message",
        [
            ("m^a _bc -> m^a_bc", "Syntax: line 2: unexpected '_' in ' m^a _bc '"),
            ("m^a_bb -> m^a_bb", "RepeatedLabel: line 2: label 'b' consumed twice"),
            ("m^a_bc -> m^a_b", "ArityMismatch: line 2: 'm' wants 1 superscripts and 2 subscripts"),
        ],
    )
    def test_term_error_names_its_line(self, hsig, second, message):
        with pytest.raises(AinError) as exc:
            parse_rules(f"rule a: m^a_bc -> m^a_bc\nrule b: {second}", hsig)
        assert str(exc.value) == message

    def test_rhs_inherits_lhs_legs(self, hsig):
        rule = parse_rules("rule r: m^a_bc eta^b -> d^a_c", hsig)[0]
        assert rule.lhs.coarity == 1 and rule.lhs.arity == 1
        assert rule.rhs == LinComb.monomial(phi(same(1)))

    @pytest.mark.parametrize(
        "rhs, term",
        [
            ("eps_a eta^b + d^b_a", 2),
            ("d^b_a + eps_a eta^b", 1),
            ("eps_a eta^b + d^b_a - d^b_a + 2 d^b_a", 2),
        ],
    )
    def test_rhs_outside_type_names_the_written_term(self, hsig, rhs, term):
        # counted from 1 in the order written, whatever the codes' order;
        # the first written term of a class that stays in the rhs
        with pytest.raises(RuleError, match=rf"^rule 'a': RhsOutsideType\(term {term}\)$"):
            parse_rules(f"rule a sharp: eps_a eta^b -> {rhs}", hsig)

    @pytest.mark.parametrize(
        "rhs, terms",
        [("eps_a eta^b + d^b_a - d^b_a", 1), ("0 d^b_a + eps_a eta^b", 1), ("d^b_a - d^b_a", 0)],
    )
    def test_rhs_outside_type_that_cancels(self, hsig, rhs, terms):
        # a class outside the type whose coefficients sum to zero is no term
        rule = parse_rules(f"rule a sharp: eps_a eta^b -> {rhs}", hsig)[0]
        expected = parse_term("eps_a eta^b", hsig).scale(terms)
        assert rule.rhs == expected



def eager_rejects(lines: list[str], sig) -> bool:
    """Whether the eager loader rejects a rule file of these lines."""
    try:
        reference_parse_rules("\n".join(lines), sig)
    except Exception:
        return True
    return False


def assert_loads_alike(text: str, sig) -> str:
    """``parse_rules`` against the eager loader on one rule file: the same
    rules, or the same error, whose kind is returned.  Only the term that
    ``RhsOutsideType`` names may differ, as the eager loader counted it in
    code order from 0, and an error inside a term, which the eager loader
    does not place, names its line."""
    try:
        expected = reference_parse_rules(text, sig)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            parse_rules(text, sig)
        assert type(raised.value) is type(exc)
        got, want = str(raised.value), str(exc)
        if isinstance(exc, AinError) and not exc.message.startswith("line "):
            # an error inside a term: parse_rules names the line the
            # eager loader stopped at, the first whose prefix fails
            lines = text.splitlines()
            lineno = next(k for k in range(1, len(lines) + 1) if eager_rejects(lines[:k], sig))
            want = f"{exc.kind}: line {lineno}: {exc.message}"
        if "RhsOutsideType" in want:
            got, want = (re.sub(r"\(term \d+\)$", "", m) for m in (got, want))
        assert got == want
        return exc.kind if isinstance(exc, AinError) else want.split(": ")[-1].split("(")[0]
    rules = parse_rules(text, sig)
    assert len(rules) == len(expected)
    for got, want in zip(rules, expected):
        assert (got.rule_id, got.qtype, got.sharp) == (want.rule_id, want.qtype, want.sharp)
        assert got.lhs.code == want.lhs.code
        assert got.rhs == want.rhs
    return "loaded"


COEFFICIENTS = ("", "", "", "2 ", "1/2 ", "3/4 ", "0 ")


def random_rule_line(rng: random.Random, pool, rule_id: str) -> str:
    """One rule over Hopf networks of shape up to (2, 2): closed or naked
    sides, one to four rhs terms that may repeat a class, cancel or have
    coefficient 0, a sharp header or a where clause, and now and then a
    fault."""
    m, n = rng.randint(0, 2), rng.randint(0, 2)
    lhs_net = rng.choice(pool[m, n])
    lhs = term_text(rng, lhs_net)
    outs, body, ins = lhs[1:-1].split("|")
    naked = rng.random() < 0.3
    if naked:
        lhs = body
    written: list[tuple[str, str]] = []  # (coefficient, term)
    for k in range(rng.randint(1, 4)):
        roll = rng.random()
        if written and roll < 0.3:
            # an earlier term again, relabelled, with the opposite sign
            coeff, term = rng.choice(written)
            sign = "+" if coeff.startswith("-") else "-"
            written.append((sign + coeff.lstrip("+-"), term))
            continue
        if roll < 0.45:
            net = lhs_net
        elif roll < 0.47:
            net = rng.choice(pool[rng.randint(0, 2), rng.randint(0, 2)])
        else:
            net = rng.choice(pool[m, n])
        if naked and net is lhs_net and rng.random() < 0.5:
            factors = body.split()
            rng.shuffle(factors)
            term = " ".join(factors)
        else:
            term = term_text(rng, net)
        written.append((rng.choice("+-") + rng.choice(COEFFICIENTS), term))
    rhs = " ".join(f"{c[0]} {c[1:]}{term}" for c, term in written)
    if rhs.startswith("+ ") and rng.random() < 0.7:
        rhs = rhs[2:]
    sharp = rng.random() < 0.6
    where = ""
    outs, ins = outs.split(), ins.split()
    # mostly (output, input) pairs with no path between them in the lhs
    tr = transference(lhs_net)
    free = [(o, i) for r, o in enumerate(outs) for c, i in enumerate(ins) if not tr.get(r, c)]
    if outs and ins and rng.random() < (0.5 if free else 0.05):
        pairs = {
            rng.choice(free) if free and rng.random() < 0.9 else (rng.choice(outs), rng.choice(ins))
            for _ in range(rng.randint(1, 2))
        }
        if rng.random() < 0.05:
            pairs.add(("Z", "Y"))
        where = " where " + ", ".join(f"{o} ~> {i}" for o, i in sorted(pairs))
        sharp = sharp and rng.random() < 0.1
    line = f"rule {rule_id}{' sharp' if sharp else ''}: {lhs} -> {rhs}{where}"
    fault = rng.random()
    if fault < 0.015:
        line = line.replace("->", "=>")
    elif fault < 0.03:
        line = line.replace(":", " sharp sharp:", 1)
    elif fault < 0.05:
        line = line.replace(" -> ", f" + {term_text(rng, rng.choice(pool[m, n]))} -> ", 1)
    elif fault < 0.065:
        line = line.replace(" -> ", f" + {lhs} -> ", 1)
    elif fault < 0.08:
        line += " +" if not where else ""
    elif fault < 0.09:
        line = line.replace(" -> ", " -> - + ", 1)
    elif fault < 0.1:
        line = line.replace("S", "Q", 1)
    return line


class TestDeferredLoad:
    """``parse_rules`` checks every side at once but canonicalizes a
    right-hand side only on its first read; the eager loader of
    ``conftest.reference_parse_rules`` is the oracle."""

    @pytest.mark.parametrize("system", CORPUS_SYSTEMS)
    def test_corpus_matches_eager_loader(self, system):
        sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
        text = (CORPUS / f"{system}.rules").read_text(encoding="utf-8")
        assert assert_loads_alike(text, sig) == "loaded"

    def test_random_rule_files_match_eager_loader(self, rng, hsig):
        pool = {
            (m, n): [exact_shape_class(rng, hsig, m, n).rep for _ in range(5)]
            for m in range(3)
            for n in range(3)
        }
        kinds = Counter()
        for _ in range(240):
            lines = [random_rule_line(rng, pool, f"r{k}") for k in range(rng.randint(1, 3))]
            if rng.random() < 0.03:
                lines.append(lines[0])
            kinds[assert_loads_alike("\n".join(lines), hsig)] += 1
        faults = kinds.copy()
        del faults["loaded"], faults["RhsOutsideType"]
        assert kinds["loaded"] > 120 and kinds["RhsOutsideType"] > 8
        assert len(faults) >= 6 and sum(faults.values()) > 50

    def test_load_canonicalizes_no_lhs(self, monkeypatch, hsig):
        counts = Counter()
        for real in (network.canonical_code, network.from_code):

            def counting(*args, real=real):
                counts[real.__name__] += 1
                return real(*args)

            swap_everywhere(monkeypatch, real, counting)
        text = (CORPUS / "hopf.rules").read_text(encoding="utf-8")
        text += "\nrule s: m^a_bc -> 2 m^a_bc - m^a_cb + 1/2 m^a_bc"
        rules = parse_rules(text, hsig)
        assert not counts
        # reading one rule's rhs canonicalizes that rule's terms only
        assert rules[-1].rhs == parse_term("5/2 m^a_bc - m^a_cb", hsig)
        assert counts == {"canonical_code": 3 + 2}
        assert not any(computed(t, "code") for r in rules[:-1] for t, _ in r.summands)
        assert not any(computed(t, "rep") for r in rules for t, _ in r.summands)
        assert not any(computed(r.lhs, "code") for r in rules)
        # normalizing a monomial canonicalizes only the lhs's of the rules
        # whose needs it has, up to the rule that fires: here r02 removes
        # the unit, and D^ab_d has the needs of no rule.  Unindexed, the
        # search would canonicalize r01's lhs too, which it tries first.
        x = parse_term("D^ab_c m^c_de eta^e", hsig)
        trace = []
        normalize(x, BoolMat.ones(2, 1), rules, max_steps=5, trace=trace)
        assert [step.rule_id for step in trace] == ["r02"]
        assert [r.rule_id for r in rules if computed(r.lhs, "code")] == ["r02"]


class TestLoadTransferences:
    """A parsed term's transference is computed along the topological
    order that rules out a cycle, and a rule's type reads the rhs ones
    only when it is not all ones."""

    def count_calls(self, monkeypatch, *reals):
        counts = Counter()
        for real in reals:

            def counting(*args, real=real):
                counts[real.__name__] += 1
                return real(*args)

            swap_everywhere(monkeypatch, real, counting)
        return counts

    def test_hopf_load_orders_each_term_once(self, monkeypatch, hsig):
        text = (CORPUS / "hopf.rules").read_text(encoding="utf-8")
        counts = self.count_calls(monkeypatch, network._topological_order, network.transference)
        built = network.Network.__init__

        def counting_init(net, *args):
            counts["Network"] += 1
            built(net, *args)

        monkeypatch.setattr(network.Network, "__init__", counting_init)
        rules = parse_rules(text, hsig)
        terms = len(rules) + sum(len(r.summands) for r in rules)
        assert terms == 28
        # every Hopf type is all ones, so only the lhs's are typed; the four
        # terms with a delta are built as one network too, smoothened by none
        assert counts == {"_topological_order": 28, "transference": 14, "Network": 28}
        assert all(computed(r.lhs, "tr") for r in rules)

    @pytest.mark.parametrize("system", CORPUS_SYSTEMS)
    def test_rhs_transference_only_under_a_type_not_all_ones(self, monkeypatch, system):
        sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
        text = (CORPUS / f"{system}.rules").read_text(encoding="utf-8")
        counts = self.count_calls(monkeypatch, network.transference)
        rules = parse_rules(text, sig)
        typed = [r for r in rules if not r.qtype.is_ones()]
        for r in rules:
            assert [computed(t, "tr") for t, _ in r.summands] == [r in typed] * len(r.summands)
        assert counts["transference"] == len(rules) + sum(len(r.summands) for r in typed)
        if system == "zigzag":
            assert counts["transference"] == 2 and not typed

    def test_where_and_sharp_rules_type_their_rhs(self, hsig):
        rules = parse_rules(
            "rule w: eta^a eps_b -> eta^a eps_b where a ~> b\n"
            "rule s sharp: eta^a eps_b -> eta^a eps_b\n"
            "rule t sharp: m^a_bc -> m^a_cb\n",
            hsig,
        )
        assert [computed(r.summands[0][0], "tr") for r in rules] == [True, True, False]
        assert [r.qtype.is_ones() for r in rules] == [False, False, True]

    def test_transference_along_parse_order(self, rng, hopf_sig):
        # random Hopf networks with deltas spliced into their edges: the
        # transference computed as the term is built is the network's own
        with_deltas = 0
        for _ in range(150):
            net = random_network(rng, list(hopf_sig), max_inner=8, max_strays=2)
            text = term_text(rng, net)
            [(cls, _)] = ainparse._parse_summands(text, hopf_sig, None, True)[0]
            assert computed(cls, "tr") and cls.tr == transference(net)
            assert cls.tr == transference(cls.net)
            with_deltas += "d^" in text
        assert with_deltas > 100


class TestFormat:
    def test_cross_format(self):
        sig = parse_signature("gen m 1 2")
        assert format_term(LinComb.monomial(phi(cross(1, 1)))) == "[a b|1|b a]"

    def test_roundtrip_random(self, rng, hsig):
        for _ in range(300):
            x = LinComb.monomial(random_class(rng, list(hsig), max_inner=4))
            assert parse_term(format_term(x), hsig) == x

    def test_roundtrip_combinations(self, rng, hsig):
        for _ in range(50):
            a = random_class(rng, list(hsig), max_inner=3)
            b = random_class(rng, list(hsig), max_inner=3)
            if (a.coarity, a.arity) != (b.coarity, b.arity):
                continue
            x = LinComb.monomial(a, Fraction(2, 3)) + LinComb.monomial(b, -2)
            assert parse_term(format_term(x), hsig) == x

    def test_zero(self, hsig):
        assert format_term(LinComb.zero(1, 1)) == "0"



def render_with(cls, names):
    """Closed-form text for a class with a chosen edge -> label table."""
    rep = cls.rep
    outs = [names[rep.in_edge(0, i)] for i in range(1, rep.coarity + 1)]
    ins = [names[rep.out_edge(1, j)] for j in range(1, rep.arity + 1)]
    factors = []
    for v in rep.inner_vertices():
        sym = rep.deco[v]
        piece = sym.name
        if sym.coarity:
            piece += "^{" + " ".join(names[e] for e in rep.out_edges(v)) + "}"
        if sym.arity:
            piece += "_{" + " ".join(names[e] for e in rep.in_edges(v)) + "}"
        factors.append(piece)
    body = " ".join(factors) if factors else "1"
    return "[{}|{}|{}]".format(" ".join(outs), body, " ".join(ins))


ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


class TestNotationTheorems:
    def test_factor_order_independence(self, rng, hsig):
        # permuting the factors of a product leaves the class unchanged
        for _ in range(300):
            x = random_class(rng, list(hsig), max_inner=4)
            text = format_term(LinComb.monomial(x))
            outs, body, ins = text[1:-1].split("|")
            factors = body.split()
            if body == "1" or len(factors) < 2:
                continue
            rng.shuffle(factors)
            scrambled = f"[{outs}|{' '.join(factors)}|{ins}]"
            assert parse_term(scrambled, hsig) == LinComb.monomial(x)

    def test_label_renaming_independence(self, rng, hsig):
        for _ in range(300):
            x = random_class(rng, list(hsig), max_inner=3)
            pool = list(ALPHABET)
            rng.shuffle(pool)
            names = {e: pool[k] for k, e in enumerate(sorted(x.rep.edges))}
            renamed = render_with(x, names)
            assert parse_term(renamed, hsig) == LinComb.monomial(x), renamed

    def test_concatenation_is_composition(self, rng, hsig):
        # [a|M|b] o [b|N|c] == [a|M N|c]
        cases = 0
        while cases < 300:
            a = random_class(rng, list(hsig), max_inner=2)
            b = random_class(rng, list(hsig), max_inner=2)
            if a.arity != b.coarity:
                continue
            if len(a.rep.edges) + len(b.rep.edges) > len(ALPHABET):
                continue
            whole = compose(a, b)
            names_a = {e: ALPHABET[k] for k, e in enumerate(sorted(a.rep.edges))}
            off = len(a.rep.edges)
            names_b = {e: ALPHABET[off + k] for k, e in enumerate(sorted(b.rep.edges))}
            # identify b's output legs with a's input legs
            for j in range(1, a.arity + 1):
                names_b[b.rep.in_edge(0, j)] = names_a[a.rep.out_edge(1, j)]
            ta = render_with(a, names_a)[1:-1].split("|")
            tb = render_with(b, names_b)[1:-1].split("|")
            body1 = "" if ta[1] == "1" else ta[1]
            body2 = "" if tb[1] == "1" else tb[1]
            body = (body1 + " " + body2).strip() or "1"
            glued = f"[{ta[0]}|{body}|{tb[2]}]"
            assert parse_term(glued, hsig) == LinComb.monomial(whole), glued
            cases += 1

    def test_juxtaposition_is_tensor(self, rng, hsig):
        # [a|M|b] (x) [c|N|d] == [a c|M N|b d]
        cases = 0
        while cases < 300:
            a = random_class(rng, list(hsig), max_inner=2)
            b = random_class(rng, list(hsig), max_inner=2)
            if len(a.rep.edges) + len(b.rep.edges) > len(ALPHABET):
                continue
            whole = tensor(a, b)
            names_a = {e: ALPHABET[k] for k, e in enumerate(sorted(a.rep.edges))}
            off = len(a.rep.edges)
            names_b = {e: ALPHABET[off + k] for k, e in enumerate(sorted(b.rep.edges))}
            ta = render_with(a, names_a)[1:-1].split("|")
            tb = render_with(b, names_b)[1:-1].split("|")
            body1 = "" if ta[1] == "1" else ta[1]
            body2 = "" if tb[1] == "1" else tb[1]
            body = (body1 + " " + body2).strip() or "1"
            glued = "[{} {}|{}|{} {}]".format(ta[0], tb[0], body, ta[2], tb[2])
            glued = glued.replace("[ ", "[").replace(" |", "|").replace("| ", "|")
            assert parse_term(glued, hsig) == LinComb.monomial(whole), glued
            cases += 1

    def test_factor_group_rejoin(self, rng, hsig):
        # splitting the factors of a parsed product into two groups and
        # re-joining with the symmetric join reproduces the whole
        cases = 0
        while cases < 200:
            x = random_class(rng, list(hsig), max_inner=4, max_strays=0)
            rep = x.rep
            inner = rep.inner_vertices()
            if len(inner) < 2:
                continue
            group1 = set(rng.sample(inner, rng.randint(1, len(inner) - 1)))
            names = {}
            alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
            for e in sorted(rep.edges):
                names[e] = alphabet[e]

            def owner(e):
                ends = rep.edges[e]
                producer = ends.tail if ends.tail != 1 else None
                consumer = ends.head if ends.head != 0 else None
                return producer, consumer

            outs1, outs2, ins1, ins2 = [], [], [], []
            for i in range(1, rep.coarity + 1):
                e = rep.in_edge(0, i)
                (outs1 if rep.edges[e].tail in group1 else outs2).append(names[e])
            for j in range(1, rep.arity + 1):
                e = rep.out_edge(1, j)
                ends = rep.edges[e]
                target = ends.head in group1 if ends.head != 0 else (
                    ends.tail in group1 if ends.tail != 1 else True
                )
                (ins1 if target else ins2).append(names[e])
            qlist, rlist = [], []
            for e, ends in sorted(rep.edges.items()):
                if ends.head in (0,) or ends.tail in (1,):
                    continue
                p_in_1 = ends.tail in group1
                c_in_1 = ends.head in group1
                if p_in_1 and not c_in_1:
                    rlist.append(names[e])
                elif c_in_1 and not p_in_1:
                    qlist.append(names[e])

            def factors_for(group):
                out = []
                for v in rep.inner_vertices():
                    if v not in group:
                        continue
                    sym = rep.deco[v]
                    piece = sym.name
                    if sym.coarity:
                        piece += "^{" + " ".join(names[e] for e in rep.out_edges(v)) + "}"
                    if sym.arity:
                        piece += "_{" + " ".join(names[e] for e in rep.in_edges(v)) + "}"
                    out.append(piece)
                return " ".join(out) or "1"

            group2 = set(inner) - group1
            k_text = "[{}|{}|{}]".format(
                " ".join(outs1 + rlist), factors_for(group1), " ".join(ins1 + qlist)
            )
            h_text = "[{}|{}|{}]".format(
                " ".join(qlist + outs2), factors_for(group2), " ".join(rlist + ins2)
            )
            k = parse_term(k_text, hsig)
            h = parse_term(h_text, hsig)
            joined = lc_sym_join(k, len(rlist), len(qlist), h)
            whole_text = "[{}|{}|{}]".format(
                " ".join(outs1 + outs2),
                factors_for(group1) + " " + factors_for(group2),
                " ".join(ins1 + ins2),
            )
            whole = parse_term(whole_text, hsig)
            assert joined == whole, (k_text, h_text)
            cases += 1
