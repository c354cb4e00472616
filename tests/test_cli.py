"""The batch front end: subcommands, exit codes, and determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from netrw import cli
from netrw.cli import OK, USAGE_ERROR, UsageError, main
from netrw.freeprop import ShapeError

from conftest import REFERENCE_COMMANDS, reference_parser

SRC = Path(__file__).resolve().parent.parent / "src"
CORPUS = SRC / "netrw" / "corpus"


@pytest.fixture
def corpus(tmp_path):
    for name in (
        "assoc.sig",
        "assoc.rules",
        "assoc.map",
        "assoc.order",
        "bridge.sig",
        "frobenius.sig",
        "frobenius.rules",
        "zigzag.sig",
        "zigzag.rules",
        "hopf.sig",
        "hopf.rules",
        "circle.sig",
        "circle.rules",
        "circle.map",
        "circle.order",
    ):
        shutil.copy(CORPUS / name, tmp_path / name)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSubcommands:
    def test_validate(self, corpus, capsys):
        code, out, _ = run(capsys, "validate", "--sig", str(corpus / "assoc.sig"), "m^a_bc")
        assert code == 0 and "coarity 1" in out

    def test_validate_error_exit_2(self, corpus, capsys):
        code, _, err = run(capsys, "validate", "--sig", str(corpus / "assoc.sig"), "zz^a_b")
        assert code == 2 and "UnknownSymbol" in err

    def test_iso(self, corpus, capsys):
        sig = str(corpus / "assoc.sig")
        code, out, _ = run(capsys, "iso", "--sig", sig, "m^a_bc m^c_de", "m^x_{yz} m^z_{pq}")
        assert code == 0 and out.strip() == "isomorphic"
        code, out, _ = run(capsys, "iso", "--sig", sig, "m^a_bc m^c_de", "m^a_ce m^c_bd")
        assert code == 1 and out.strip() == "distinct"

    def test_tr_bridge(self, corpus, capsys):
        code, out, _ = run(
            capsys, "tr", "--sig", str(corpus / "bridge.sig"), "[b| eta^b eps_a |a]"
        )
        assert code == 0 and out.strip() == "[0]"

    def test_eval_matrix(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--sig",
            str(corpus / "assoc.sig"),
            "--target",
            "baff-nat",
            "--map",
            str(corpus / "assoc.map"),
            "m^a_bc m^c_de",
        )
        assert code == 0 and "0 0 1 2 4" in out

    def test_eval_bool_matrix_map(self, corpus, capsys, tmp_path):
        # the boolean target composes boolean matrices, so the map's
        # entries are read as booleans, any nonzero one as 1
        amap = tmp_path / "bool.map"
        amap.write_text("map m = 1 3\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "eval",
            "--sig",
            str(corpus / "assoc.sig"),
            "--target",
            "bool-matrix",
            "--map",
            str(amap),
            "m^a_bc m^c_de",
        )
        assert code == 0 and out.strip() == "1 * [1 1 1]"

    def test_eval_matrix_map_without_inputs_or_outputs(self, corpus, capsys, tmp_path):
        # an empty body gives a generator with no inputs an m x 0 matrix and
        # one with no outputs a 0 x n matrix, so the Hopf unit and counit
        # have values in every matrix target
        amap = tmp_path / "hopf.map"
        amap.write_text("map m = 1 1\nmap eta =\nmap D = 1 ; 1\nmap eps =\nmap S = 1\n", encoding="utf-8")
        hopf = ["--sig", str(corpus / "hopf.sig"), "--map", str(amap)]
        for target in ("nat-matrix", "rat-matrix", "bool-matrix"):
            code, out, _ = run(capsys, "eval", *hopf, "--target", target, "D^ab_c m^c_de eta^d")
            assert code == 0 and out.strip() == "1 * [1; 1]"
        # a value with no entries prints with its shape
        code, out, _ = run(capsys, "eval", *hopf, "--target", "nat-matrix", "eta^a")
        assert code == 0 and out.strip() == "1 * [](1x0)"
        code, out, _ = run(capsys, "eval", *hopf, "--target", "nat-matrix", "eps_a eta^a")
        assert code == 0 and out.strip() == "1 * [](0x0)"
        sig = tmp_path / "e.sig"
        sig.write_text("gen e 0 1\n", encoding="utf-8")
        emap = tmp_path / "e.map"
        emap.write_text("map e =\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "--sig", str(sig), "--target", "nat-matrix", "--map", str(emap), "e_a")
        assert code == 0 and out.strip() == "1 * [](0x1)", err
        emap.write_text("map e = 1\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", "--sig", str(sig), "--target", "nat-matrix", "--map", str(emap), "e_a")
        assert code == 2 and "'e' needs a 0x1 matrix" in err

    @pytest.mark.parametrize(
        "target, entries, message",
        [
            ("nat-matrix", "1 x", "error: line 2: malformed entry 'x'"),
            ("rat-matrix", "1 1/x", "error: line 2: malformed entry '1/x'"),
        ],
    )
    def test_eval_malformed_map_entry_names_its_line(self, corpus, capsys, tmp_path, target, entries, message):
        amap = tmp_path / "bad.map"
        amap.write_text(f"# assoc\nmap m = {entries}\n", encoding="utf-8")
        code, out, err = run(
            capsys, "eval", "--sig", str(corpus / "assoc.sig"), "--target", target, "--map", str(amap), "m^a_bc"
        )
        assert (code, out, err.strip()) == (2, "", message)

    def test_eval_connectivity_default_map(self, corpus, capsys):
        # a value prints as its shape, its blocks in ascending order with
        # outputs (o) before inputs (i), and its cycle count
        conn = ["eval", "--sig", str(corpus / "assoc.sig"), "--target", "connectivity"]
        code, out, _ = run(capsys, *conn, "m^a_bc")
        assert (code, out) == (0, "1 * 1x2 {o1 i1 i2} cyc 0\n")
        code, out, _ = run(capsys, *conn, "[ab|1|ab] + [ab|1|ba]")
        assert (code, out) == (0, "1 * 2x2 {o1 i1} {o2 i2} cyc 0\n1 * 2x2 {o1 i2} {o2 i1} cyc 0\n")

    def test_join(self, corpus, capsys):
        sig = str(corpus / "assoc.sig")
        code, out, _ = run(
            capsys, "join", "--sig", sig, "--r", "0", "--q", "0", "m^a_bc", "m^a_bc"
        )
        assert code == 0
        code, _, _ = run(
            capsys, "join", "--sig", sig, "--r", "1", "--q", "1", "[ab|1|ab]", "[xy|1|xy]"
        )
        assert code == 1

    def test_normalize_with_order(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "normalize",
            "--sig",
            str(corpus / "assoc.sig"),
            "--rules",
            str(corpus / "assoc.rules"),
            "--order",
            str(corpus / "assoc.order"),
            "m^a_bc m^c_de",
        )
        assert code == 0 and out.strip() == "[a|m^e_bc m^a_ed|b c d]"

    def test_normalize_budget(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "normalize",
            "--sig",
            str(corpus / "assoc.sig"),
            "--rules",
            str(corpus / "assoc.rules"),
            "--max-steps",
            "50",
            "m^a_bc m^c_de",
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["normalize", "confluence"])
    def test_negative_budget_exit_2(self, corpus, capsys, command):
        term = ["m^a_bc m^c_de"] if command == "normalize" else []
        code, out, err = run(
            capsys,
            command,
            "--sig",
            str(corpus / "assoc.sig"),
            "--rules",
            str(corpus / "assoc.rules"),
            "--max-steps",
            "-1",
            *term,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_budget(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "normalize",
            "--sig",
            str(corpus / "assoc.sig"),
            "--rules",
            str(corpus / "assoc.rules"),
            "--max-steps",
            "0",
            "m^a_bc m^c_de",
        )
        assert code == 1 and out.startswith("budget exceeded; partial: ")

    def test_order_backed_zero_budget(self, corpus, capsys):
        # --max-steps bounds an ordered run too
        code, out, _ = run(
            capsys,
            "normalize",
            "--sig",
            str(corpus / "circle.sig"),
            "--rules",
            str(corpus / "circle.rules"),
            "--order",
            str(corpus / "circle.order"),
            "--max-steps",
            "0",
            "y^a_b y^b_c",
        )
        assert code == 1 and out.startswith("budget exceeded; partial: ")

    def test_ambiguities_pair(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "ambiguities",
            "--sig",
            str(corpus / "assoc.sig"),
            "--rules",
            str(corpus / "assoc.rules"),
            "--pair",
            "assoc",
            "assoc",
        )
        assert code == 0 and out.count("assoc / assoc") == 2

    def test_confluence_assoc(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "confluence",
            "--sig",
            str(corpus / "assoc.sig"),
            "--rules",
            str(corpus / "assoc.rules"),
            "--order",
            str(corpus / "assoc.order"),
        )
        assert code == 0
        assert "1 nontrivial" in out and "verdict: confluent" in out

    def test_confluence_frobenius(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "confluence",
            "--sig",
            str(corpus / "frobenius.sig"),
            "--rules",
            str(corpus / "frobenius.rules"),
            "--max-steps",
            "25",
        )
        assert code == 1
        assert "wrap" in out and "not-confluent" in out

    def test_complete_circle(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "complete",
            "--sig",
            str(corpus / "circle.sig"),
            "--rules",
            str(corpus / "circle.rules"),
            "--order",
            str(corpus / "circle.order"),
        )
        assert code == 0 and "1 rules added" in out

    def test_complete_unknown_verdict_exits_1(self, corpus, capsys):
        # with no steps allowed nothing is resolved: like confluence, any
        # verdict other than confluent exits 1
        code, out, _ = run(
            capsys,
            "complete",
            "--sig",
            str(corpus / "circle.sig"),
            "--rules",
            str(corpus / "circle.rules"),
            "--order",
            str(corpus / "circle.order"),
            "--max-steps",
            "0",
        )
        assert code == 1 and out == "0 rules added; verdict: unknown\n"

    def test_order_check(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "order-check",
            "--sig",
            str(corpus / "assoc.sig"),
            "--order",
            str(corpus / "assoc.order"),
            "--rules",
            str(corpus / "assoc.rules"),
        )
        assert code == 0 and "compatible" in out

    def test_order_backed_run_names_first_failure(self, corpus, capsys):
        write_flat_order(corpus)
        code, out, err = run(
            capsys,
            "normalize",
            "--sig",
            str(corpus / "circle.sig"),
            "--rules",
            str(corpus / "circle.rules"),
            "--order",
            str(corpus / "flat.order"),
            "y^a_b y^b_c",
        )
        assert (code, out) == (2, "")
        assert err == "error: order not admissible: symbol 'x': row 3 has no positive entry\n"

    def test_order_check_reports_inadmissible_order(self, corpus, capsys):
        # the order that normalize, confluence and complete refuse still
        # gets its full report, with exit 1
        write_flat_order(corpus)
        code, out, err = run(
            capsys,
            "order-check",
            "--sig",
            str(corpus / "circle.sig"),
            "--order",
            str(corpus / "flat.order"),
            "--rules",
            str(corpus / "circle.rules"),
        )
        assert code == 1 and err == ""
        assert out == (
            "stage 1 (baff): FAIL\n"
            "  - symbol 'x': row 3 has no positive entry\n"
            "  - symbol 'x': column 3 has no positive entry\n"
            "order NOT admissible\n"
            "rule circ: compatible\n"
        )

    def test_json_mode(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "--json",
            "confluence",
            "--sig",
            str(corpus / "assoc.sig"),
            "--rules",
            str(corpus / "assoc.rules"),
            "--order",
            str(corpus / "assoc.order"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "confluent"

    def test_determinism(self, corpus, capsys):
        args = (
            "confluence",
            "--sig",
            str(corpus / "hopf.sig"),
            "--rules",
            str(corpus / "hopf.rules"),
            "--max-steps",
            "25",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("name", ["m^", "1", "x_y"])
    def test_sig_name_no_term_can_write_exit_2(self, tmp_path, capsys, name):
        (tmp_path / "bad.sig").write_text(f"gen {name} 1 1\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", "--sig", str(tmp_path / "bad.sig"), "1")
        assert (code, out) == (2, "")
        assert err == f"error: line 1: symbol name {name!r} is not a letter then letters and digits\n"

    def test_sig_directory_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", "--sig", str(tmp_path), "m^a_bc")
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    def test_sig_not_utf8_exit_2(self, tmp_path, capsys):
        (tmp_path / "bad.sig").write_bytes(b"gen m 1 2\ngen \xff 1 1\n")
        code, out, err = run(capsys, "validate", "--sig", str(tmp_path / "bad.sig"), "m^a_bc")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fault", [ValueError, ShapeError], ids=["ValueError", "ShapeError"])
    def test_program_fault_propagates(self, monkeypatch, corpus, fault):
        # a fault of the program is no input error: a bare ValueError, as a
        # shape mismatch inside the engine raises, or an engine ShapeError
        # (only join's --r and --q make one an input error) ends in a traceback
        def faulty(args):
            raise fault("shape mismatch in boolean matrix product")

        about, _, options, positionals = cli._COMMANDS["validate"]
        monkeypatch.setitem(cli._COMMANDS, "validate", (about, faulty, options, positionals))
        with pytest.raises(fault, match="shape mismatch"):
            main(["validate", "--sig", str(corpus / "assoc.sig"), "m^a_bc"])


# Command lines that each end in one error line; "{name}" stands for the
# corpus file of that name.
USAGE_ARGV = [
    ["normalize", "--sig", "assoc.sig", "--max-steps", "x", "m^a_bc"],
    ["validate", "--sig", "assoc.sig"],
    ["no-such-command"],
]
BAD_INPUT_ARGV = [
    ["confluence", "--sig", "{assoc.sig}", "--max-steps", "3"],
    ["complete", "--sig", "{assoc.sig}", "--rules", "{assoc.rules}"],
    ["order-check", "--sig", "{assoc.sig}"],
    ["join", "--sig", "{assoc.sig}", "--r", "-1", "--q", "0", "m^a_bc", "m^a_bc"],
    ["join", "--sig", "{assoc.sig}", "--r", "5", "--q", "0", "0", "m^a_bc"],
    ["join", "--sig", "{assoc.sig}", "--r", "5", "--q", "0", "m^a_bc", "m^a_bc"],
    ["validate", "--sig", "{assoc.sig}", "1/0 m^a_{bc}"],
    ["eval", "--sig", "{assoc.sig}", "--target", "rat-matrix", "--map", "{zero.map}", "m^a_bc"],
    ["tr", "--sig", "{assoc.sig}", "0"],
    ["eval", "--sig", "{assoc.sig}", "--target", "rat-matrix", "m^a_bc"],
    ["normalize", "--sig", "{assoc.sig}", "--rules", "{rev.rules}", "--order", "{assoc.order}", "m^a_bc"],
    ["ambiguities", "--sig", "{assoc.sig}", "--rules", "{assoc.rules}", "--pair", "assoc", "nope"],
    ["confluence", "--sig", "{assoc.sig}", "--rules", "{rev.rules}", "--order", "{assoc.order}"],
    ["complete", "--sig", "{assoc.sig}", "--rules", "{rev.rules}", "--order", "{assoc.order}"],
    ["order-check", "--sig", "{circle.sig}", "--order", "{neg.order}", "--rules", "{grow.rules}"],
    ["normalize", "--sig", "{circle.sig}", "--rules", "{grow.rules}", "--order", "{neg.order}", "y^a_b"],
    ["eval", "--sig", "{circle.sig}", "--target", "nat-matrix", "--map", "{half.map}", "x^a_b y^b_c"],
    ["eval", "--sig", "{circle.sig}", "--target", "baff-nat", "--map", "{neg.map}", "x^a_b y^b_c"],
    ["order-check", "--sig", "{assoc.sig}", "--order", "{stage.order}"],
    ["normalize", "--sig", "{circle.sig}", "--rules", "{circle.rules}", "--order", "{flat.order}", "y^a_b y^b_c"],
    ["confluence", "--sig", "{circle.sig}", "--rules", "{circle.rules}", "--order", "{flat.order}"],
    ["complete", "--sig", "{circle.sig}", "--rules", "{circle.rules}", "--order", "{flat.order}"],
    ["validate", "--sig", "{assoc.sig}", "1/ m^a_bc"],
    ["eval", "--sig", "{circle.sig}", "--target", "rat-matrix", "--map", "{twice.map}", "x^a_b y^b_c"],
    ["validate", "--sig", "{assoc.sig}", "- - m^a_bc"],
    ["normalize", "--sig", "{assoc.sig}", "--rules", "{assoc.rules}", "--max-steps", "0", "m^a_bc +- + m^a_bc"],
]
BAD_INPUT_IDS = ["no-rules", "no-order", "order-check-no-order", "negative-r", "r-too-big-zero-operand", "r-too-big", "term-zero-denominator", "map-zero-denominator", "tr-not-monomial", "eval-no-map", "normalize-incompatible-rule", "unknown-rule", "confluence-incompatible-rule", "complete-incompatible-rule", "order-check-negative-entry", "normalize-negative-entry", "eval-nat-fraction", "eval-baff-negative-entry", "stage-without-kind", "normalize-inadmissible", "confluence-inadmissible", "complete-inadmissible", "term-bad-coefficient", "map-duplicate", "term-two-signs", "term-sign-pair"]
NO_BOUND_ARGV = [
    ["normalize", "--sig", "{assoc.sig}", "--rules", "{assoc.rules}", "m^a_bc m^c_de"],
    ["confluence", "--sig", "{zigzag.sig}", "--rules", "{zigzag.rules}"],
]


def in_corpus(corpus, argv):
    return [str(corpus / a[1:-1]) if a.startswith("{") else a for a in argv]


def write_flat_order(corpus):
    """flat.order: circle's order with a zero row and column in x's image,
    which check_strictness rejects."""
    (corpus / "flat.map").write_text(
        "map x = 1 0 0 ; 0 1 0 ; 0 0 0\nmap y = 1 0 0 ; 0 1 0 ; 0 1 3\n", encoding="utf-8"
    )
    (corpus / "flat.order").write_text("order { stage baff flat.map }\n", encoding="utf-8")


def bad_input(corpus, argv):
    """argv of BAD_INPUT_ARGV made runnable: its extra files written and
    its file names resolved."""
    (corpus / "zero.map").write_text("map m = 1 1/0\n", encoding="utf-8")
    # entries outside N, which once made an order that never terminates
    (corpus / "neg.map").write_text(
        "map x = 1 0 0 ; 0 1 0 ; 0 1 2\nmap y = 1 0 0 ; 0 1 0 ; 0 0 -2\n", encoding="utf-8"
    )
    (corpus / "neg.order").write_text("order { stage baff neg.map }\n", encoding="utf-8")
    (corpus / "grow.rules").write_text(
        "rule grow sharp: y^a_b -> y^a_c y^c_d y^d_b\n", encoding="utf-8"
    )
    (corpus / "half.map").write_text("map x = 1/2\nmap y = -3\n", encoding="utf-8")
    (corpus / "twice.map").write_text("map x = 1\nmap y = 2\nmap x = 3\n", encoding="utf-8")
    (corpus / "stage.order").write_text("order { stage }\n", encoding="utf-8")
    write_flat_order(corpus)
    # assoc oriented against its order
    (corpus / "rev.rules").write_text(
        "rule rev sharp: m^a_ce m^c_bd -> m^a_bc m^c_de\n", encoding="utf-8"
    )
    return in_corpus(corpus, argv)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", USAGE_ARGV)
    def test_usage_error_returns_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", BAD_INPUT_ARGV, ids=BAD_INPUT_IDS)
    def test_bad_input_one_error_line(self, corpus, capsys, argv):
        code, out, err = run(capsys, *bad_input(corpus, argv))
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_incompatible_rule_same_line(self, corpus, capsys):
        # normalize, confluence and complete name the first rule that the
        # order does not decrease in the same words
        for command, term in (("normalize", ["m^a_bc"]), ("confluence", []), ("complete", [])):
            argv = [command, "--sig", "{assoc.sig}", "--rules", "{rev.rules}", "--order", "{assoc.order}"]
            got = run(capsys, *bad_input(corpus, argv + term))
            assert got == (2, "", "error: rule 'rev' is not compatible with the order\n")

    @pytest.mark.parametrize("argv", NO_BOUND_ARGV)
    def test_no_step_bound(self, corpus, capsys, argv):
        # zigzag's confluence never normalizes, yet it needs a bound too
        argv = in_corpus(corpus, argv)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {argv[0]} needs --order or --max-steps\n"

    def test_help_exits_0(self, capsys):
        code, out, err = run(capsys, "normalize", "--help")
        assert (code, err) == (0, "") and "--max-steps" in out


# 32 wires: joined side by side with themselves they need 64 edge names
WIRES_32 = "[{0}|1|{0}]".format(" ".join("abcdefghijklmnopqrstuvwxyzABCDEF"))

# (extra files, argv, the one error line) of input paths ending in exit 2
INPUT_PATH_ERRORS = {
    "outside-zero-type": (
        {},
        ["normalize", "--sig", "{hopf.sig}", "--rules", "{hopf.rules}", "--max-steps", "5", "--type", "zero", "S^a_b"],
        "combination outside ambient type",
    ),
    "order-without-stage": (
        {"empty.order": "order { }\n"},
        ["order-check", "--sig", "{assoc.sig}", "--order", "{empty.order}"],
        "an order needs at least one stage",
    ),
    "connectivity-stage-argument": (
        {"cx.order": "order { stage connectivity x }\n"},
        ["order-check", "--sig", "{assoc.sig}", "--order", "{cx.order}"],
        "stage connectivity takes no arguments",
    ),
    "baff-stage-without-file": (
        {"baff.order": "order { stage baff }\n"},
        ["order-check", "--sig", "{assoc.sig}", "--order", "{baff.order}"],
        "stage baff needs an assignment file",
    ),
    "map-line-without-map": (
        {"mop.map": "mop m = 1\n"},
        ["eval", "--sig", "{assoc.sig}", "--target", "nat-matrix", "--map", "{mop.map}", "m^a_bc"],
        "line 1: expected 'map <symbol> = <rows>'",
    ),
    "map-unknown-symbol": (
        {"unknown.map": "map q = 1\n"},
        ["eval", "--sig", "{assoc.sig}", "--target", "nat-matrix", "--map", "{unknown.map}", "m^a_bc"],
        "line 1: unknown symbol 'q'",
    ),
    "connectivity-with-map": (
        {},
        ["eval", "--sig", "{assoc.sig}", "--target", "connectivity", "--map", "{assoc.map}", "m^a_bc"],
        "connectivity target needs no assignment file",
    ),
    "map-missing-symbol": (
        {"half.map": "map x = 1\n"},
        ["eval", "--sig", "{circle.sig}", "--target", "nat-matrix", "--map", "{half.map}", "x^a_b"],
        "no assignment for symbols: y",
    ),
    "rule-without-id": (
        {"noid.rules": "rule : m^a_bc -> m^a_bc\n"},
        ["ambiguities", "--sig", "{assoc.sig}", "--rules", "{noid.rules}"],
        "Syntax: line 1: missing rule id",
    ),
    "bad-where-clause": (
        {"where.rules": "rule w: m^a_bc -> m^a_bc where a b\n"},
        ["ambiguities", "--sig", "{assoc.sig}", "--rules", "{where.rules}"],
        "Syntax: line 1: bad where clause",
    ),
    "print-cap": (
        {},
        ["join", "--sig", "{assoc.sig}", "--r", "0", "--q", "0", WIRES_32, WIRES_32],
        "Syntax: cannot print a monomial with 64 edges",
    ),
}


class TestInputPaths:
    """Input paths of the command line that no other test takes: each ends
    in its exit code, and an error in one ``error:`` line."""

    @pytest.mark.parametrize("name", INPUT_PATH_ERRORS)
    def test_error(self, corpus, capsys, name):
        files, argv, message = INPUT_PATH_ERRORS[name]
        for file, text in files.items():
            (corpus / file).write_text(text, encoding="utf-8")
        assert run(capsys, *in_corpus(corpus, argv)) == (2, "", f"error: {message}\n")

    def test_zero_type_normal_form(self, corpus, capsys):
        argv = ["normalize", "--sig", "{hopf.sig}", "--rules", "{hopf.rules}", "--max-steps", "5"]
        got = run(capsys, *in_corpus(corpus, argv), "--type", "zero", "eps_a eta^a")
        assert got == (0, "[|1|]\n", "")

    def test_ambiguities_of_every_pair(self, corpus, capsys):
        code, out, err = run(
            capsys, *in_corpus(corpus, ["ambiguities", "--sig", "{circle.sig}", "--rules", "{circle.rules}"])
        )
        assert (code, err) == (0, "")
        assert out == (
            "circ / circ [terse, trivial] at [a|y^c_b y^a_c|b]\n"
            "circ / circ [terse] at [a|y^c_b y^d_c y^a_d|b]\n"
        )

    @pytest.mark.parametrize("order", ["order { stage baff assoc.map }\n", "order { ; stage baff assoc.map ;; }\n"])
    def test_order_check_without_rules(self, corpus, capsys, order):
        # empty chunks between semicolons are passed over
        (corpus / "semi.order").write_text(order, encoding="utf-8")
        argv = ["order-check", "--sig", "{assoc.sig}", "--order", "{semi.order}"]
        assert run(capsys, *in_corpus(corpus, argv)) == (0, "stage 1 (baff): ok\norder admissible\n", "")

    def test_complete_cannot_orient(self, corpus, capsys):
        # x and y have one image, so the difference y x - x y of the two
        # reducts of x x x is in neither orientation a descent
        (corpus / "same.map").write_text(
            "map x = 1 0 0 ; 0 1 0 ; 0 1 2\nmap y = 1 0 0 ; 0 1 0 ; 0 1 2\n", encoding="utf-8"
        )
        (corpus / "same.order").write_text("order { stage baff same.map }\n", encoding="utf-8")
        (corpus / "sq.rules").write_text("rule sq sharp: x^a_b x^b_c -> y^a_c\n", encoding="utf-8")
        argv = ["complete", "--sig", "{circle.sig}", "--rules", "{sq.rules}", "--order", "{same.order}"]
        got = run(capsys, *in_corpus(corpus, argv))
        assert got == (1, "", "completion failed: cannot orient an unresolved difference\n")

    def test_complete_adds_too_many_rules(self, corpus, capsys):
        # completing x x x -> y x under the circle order adds more than 32 rules
        (corpus / "cube.rules").write_text("rule c sharp: x^a_b x^b_c x^c_d -> y^a_p x^p_d\n", encoding="utf-8")
        argv = ["complete", "--sig", "{circle.sig}", "--rules", "{cube.rules}", "--order", "{circle.order}"]
        got = run(capsys, *in_corpus(corpus, argv))
        assert got == (1, "", "completion failed: too many generated rules\n")


# Concrete instances of README's synopsis lines, each alternative and
# optional part taken once.
SYNOPSIS_ARGV = [
    ["validate", "--sig", "S.sig", "m^a_bc"],
    ["iso", "--sig", "S.sig", "m^a_bc", "m^x_yz"],
    ["tr", "--sig", "S.sig", "m^a_bc"],
    ["eval", "--sig", "S.sig", "--target", "nat-matrix", "--map", "gens.map", "m^a_bc"],
    ["eval", "--sig", "S.sig", "--target", "connectivity", "m^a_bc"],
    ["join", "--sig", "S.sig", "--r", "1", "--q", "0", "m^a_bc", "m^a_bc"],
    ["normalize", "--sig", "S.sig", "--rules", "R.rules", "--order", "O.order", "m^a_bc"],
    ["normalize", "--sig", "S.sig", "--rules", "R.rules", "--max-steps", "5", "--type", "zero", "m^a_bc"],
    ["ambiguities", "--sig", "S.sig", "--rules", "R.rules"],
    ["ambiguities", "--sig", "S.sig", "--rules", "R.rules", "--pair", "s1", "s2"],
    ["confluence", "--sig", "S.sig", "--rules", "R.rules", "--order", "O.order"],
    ["confluence", "--sig", "S.sig", "--rules", "R.rules", "--max-steps", "25"],
    ["complete", "--sig", "S.sig", "--rules", "R.rules", "--order", "O.order"],
    ["order-check", "--sig", "S.sig", "--order", "O.order"],
    ["order-check", "--sig", "S.sig", "--order", "O.order", "--rules", "R.rules"],
    ["--json", "confluence", "--sig", "S.sig", "--rules", "R.rules", "--order", "O.order"],
]
# The grammar at its edges: --name=value, options after and between the
# positionals, values that start with "-", "--", repeated options, help,
# and malformed lines.
GRAMMAR_ARGV = [
    ["validate", "--sig=S.sig", "m^a_bc"],
    ["validate", "--sig=", "m^a_bc"],
    ["normalize", "--sig=S.sig", "--rules=R.rules", "--max-steps=3", "--type=zero", "m^a_bc"],
    ["normalize", "--sig", "S.sig", "--rules", "R.rules", "--max-steps=-1", "m^a_bc"],
    ["normalize", "--sig", "S.sig", "--rules", "R.rules", "--max-steps", "x", "m^a_bc"],
    ["normalize", "--sig", "S.sig", "--rules", "R.rules", "--max-steps", " 7", "m^a_bc"],
    ["normalize", "--sig", "S.sig", "--rules", "R.rules", "--max-steps", "1.5", "m^a_bc"],
    ["normalize", "--sig", "S.sig", "--rules", "R.rules", "--type", "both", "m^a_bc"],
    ["normalize", "m^a_bc", "--sig", "S.sig", "--rules", "R.rules", "--max-steps", "3"],
    ["validate", "m^a_bc", "--sig", "S.sig"],
    ["iso", "m^a_bc", "--sig", "S.sig", "m^x_yz"],
    ["validate", "--sig", "S.sig", "--", "-m^a_bc"],
    ["validate", "--sig", "S.sig", "-m^a_bc"],
    ["validate", "--sig", "S.sig", "- - m^a_bc"],
    ["validate", "--sig", "S.sig", "-"],
    ["validate", "--sig", "S.sig", ""],
    ["validate", "--sig", "S.sig", "-1"],
    ["validate", "--sig", "S.sig", "-1.5"],
    ["validate", "--sig", "S.sig", "-.5"],
    ["validate", "--sig", "S.sig", "-1."],
    ["validate", "--sig", "S.sig", "m^a_bc", "--"],
    ["validate", "--sig", "S.sig", "--", "m^a_bc", "--"],
    ["validate", "--sig", "S.sig", "--", "--", "m^a_bc"],
    ["validate", "--", "--sig", "S.sig", "m^a_bc"],
    ["validate", "--sig", "--", "m^a_bc"],
    ["validate", "--sig", "-x", "m^a_bc"],
    ["validate", "--sig"],
    ["validate", "--sig", "S.sig", "--sig", "T.sig", "m^a_bc"],
    ["validate", "--sig", "S.sig", "m^a_bc", "m^x_yz"],
    ["validate", "-x", "--sig", "S.sig", "m^a_bc"],
    ["validate", "--sig", "S.sig", "--json", "m^a_bc"],
    ["validate", "--sig", "S.sig", "--help=x", "m^a_bc"],
    ["join", "--sig", "S.sig", "--r", "-1", "--q", "0", "m^a_bc", "m^a_bc"],
    ["join", "--sig", "S.sig", "--r", "1", "--q", "0", "-1", "m^a_bc"],
    ["join", "--sig", "S.sig", "--r", "1", "m^a_bc", "m^a_bc"],
    ["ambiguities", "--sig", "S.sig", "--rules", "R.rules", "--pair", "S1", "-1"],
    ["ambiguities", "--sig", "S.sig", "--rules", "R.rules", "--pair", "S1"],
    ["ambiguities", "--sig", "S.sig", "--rules", "R.rules", "--pair", "S1", "--sig", "S.sig"],
    ["ambiguities", "--sig", "S.sig", "--rules", "R.rules", "--pair=S1", "S2"],
    ["ambiguities", "--sig", "S.sig", "--rules", "R.rules", "--pair", "--", "S1", "S2"],
    ["--json", "--json", "iso", "--sig", "S.sig", "m^a_bc", "m^x_yz"],
    ["--json=1", "validate", "--sig", "S.sig", "m^a_bc"],
    ["--json", "--", "validate", "--sig", "S.sig", "m^a_bc"],
    ["validate", "--sig", "S.sig", "m^a_bc", "m^x_yz", "--help"],
    ["normalize", "--max-steps", "x", "--help"],
    ["normalize", "--sig", "S.sig", "--help", "--max-steps", "x"],
]
TOP_LEVEL_ARGV = [
    ["--help"],
    ["-h", "normalize"],
    ["--json", "--help"],
    [],
    ["--json"],
    ["no-such-command", "--help"],
    ["--", "normalize", "--help"],
    ["--js", "validate", "--help"],
    ["normalize", "--sig", "a.sig", "--rules", "a.rules", "--type", "both", "m^a_bc"],
    ["validate", "--json", "--sig", "a.sig", "m^a_bc"],
]
# Lines that argparse accepts and the table-driven parser refuses: argparse
# takes a unique prefix of an option for the option, and reports an unknown
# option only after the rest of the line, so a later -h gives the help.
DECLARED_ARGV = [
    ["--js", "validate", "--sig", "S.sig", "m^a_bc"],
    ["--js", "validate", "--help"],
    ["normalize", "--sig", "S.sig", "--rules", "R.rules", "--max", "3", "m^a_bc"],
    ["validate", "--s", "S.sig", "m^a_bc"],
    ["validate", "--foo", "--help"],
    ["--foo", "validate", "--help"],
]


def parse_outcome(parse, argv, capsys):
    """The fields parse gives for argv, 0 when it printed help (which it
    must), or 2 when it raised UsageError."""
    try:
        fields = parse(argv)
    except UsageError:
        return USAGE_ERROR
    except SystemExit as exc:  # argparse's help
        fields = exc.code
    printed = capsys.readouterr().out
    if fields in (None, OK):
        assert printed.startswith("usage: netrw")
        return OK
    return vars(fields)


def reference_parse(argv):
    return reference_parser().parse_args(argv)


def assert_as_argparse(capsys, argv):
    ours = parse_outcome(cli._parse_args, argv, capsys)
    theirs = parse_outcome(reference_parse, argv, capsys)
    if argv in DECLARED_ARGV:
        assert ours == USAGE_ERROR and theirs != USAGE_ERROR
    else:
        assert ours == theirs


class TestLazyParser:
    """``main`` builds no parser: it reads argv against the ``_COMMANDS``
    table.  What that gives must be what the argparse parser with all ten
    subcommands (``conftest.reference_parser``) gives: the same fields, help
    printed by both, or UsageError from both; on DECLARED_ARGV the table
    refuses what argparse accepts."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_subcommand_help(self, capsys, command):
        assert_as_argparse(capsys, [command, "--help"])
        assert_as_argparse(capsys, ["--json", command, "-h"])

    @pytest.mark.parametrize("argv", TOP_LEVEL_ARGV)
    def test_top_level(self, capsys, argv):
        assert_as_argparse(capsys, argv)

    @pytest.mark.parametrize("argv", USAGE_ARGV)
    def test_usage_errors(self, capsys, argv):
        assert_as_argparse(capsys, argv)

    @pytest.mark.parametrize("argv", BAD_INPUT_ARGV, ids=BAD_INPUT_IDS)
    def test_bad_input(self, capsys, argv):
        assert_as_argparse(capsys, argv)

    def test_incompatible_rule_same_line(self, corpus, capsys):
        # normalize, confluence and complete name the first rule that the
        # order does not decrease in the same words
        for command, term in (("normalize", ["m^a_bc"]), ("confluence", []), ("complete", [])):
            argv = [command, "--sig", "{assoc.sig}", "--rules", "{rev.rules}", "--order", "{assoc.order}"]
            got = run(capsys, *bad_input(corpus, argv + term))
            assert got == (2, "", "error: rule 'rev' is not compatible with the order\n")

    @pytest.mark.parametrize("argv", NO_BOUND_ARGV)
    def test_no_step_bound(self, capsys, argv):
        assert_as_argparse(capsys, argv)

    @pytest.mark.parametrize("argv", SYNOPSIS_ARGV)
    def test_synopsis(self, capsys, argv):
        assert_as_argparse(capsys, argv)

    @pytest.mark.parametrize("argv", GRAMMAR_ARGV)
    def test_grammar(self, capsys, argv):
        assert_as_argparse(capsys, argv)

    @pytest.mark.parametrize("argv", DECLARED_ARGV)
    def test_declared_differences(self, capsys, argv):
        assert_as_argparse(capsys, argv)

    def test_same_commands(self):
        assert list(cli._COMMANDS) == list(REFERENCE_COMMANDS)

    def test_reads_sys_argv(self, corpus, capsys, monkeypatch):
        sig = str(corpus / "assoc.sig")
        monkeypatch.setattr("sys.argv", ["netrw", "validate", "--sig", sig, "m^a_bc"])
        assert main() == 0 and "coarity 1" in capsys.readouterr().out


# modules a command line must not cost a fresh process: argparse, and the
# gettext and locale lookups its messages made on every run
UNWANTED = {"argparse", "gettext", "locale"}


class TestFreshProcess:
    """``python -m netrw.cli`` in a new interpreter, which ``-X importtime``
    makes list every module it imports on stderr.  The tests above share
    one warm interpreter, so they would not see a start-up cost come back."""

    @pytest.mark.parametrize(
        "argv, code, out",
        [
            (["validate", "--sig", "{assoc.sig}", "m^a_bc"], 0, "valid: coarity 1, arity 2\n"),
            (["iso", "--sig", "{assoc.sig}", "m^a_bc m^c_de", "m^a_ce m^c_bd"], 1, "distinct\n"),
            (["normalize", "--sig", "{assoc.sig}", "--max-steps", "x", "m^a_bc"], 2, ""),
            (["--json", "normalize", "--help"], 0, None),
            (["--json", "validate", "--sig", "{assoc.sig}", "m^a_bc"], 0, '{"arity": 2, "coarity": 1, "ok": true}\n'),
        ],
    )
    def test_exit_code_output_and_imports(self, corpus, argv, code, out):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "netrw.cli", *in_corpus(corpus, argv)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        lines = proc.stderr.splitlines()
        imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
        errors = [line for line in lines if not line.startswith("import time:")]
        assert proc.returncode == code, proc.stderr
        if out is None:
            assert proc.stdout.startswith("usage: netrw [--json] normalize") and "--max-steps" in proc.stdout
        else:
            assert proc.stdout == out
        assert errors == (["error: argument --max-steps: invalid int value: 'x'"] if code == 2 else [])
        assert "netrw.ainparse" in imported and not imported & UNWANTED
        # json is loaded only by a run that prints a JSON object
        assert ("json" in imported) == proc.stdout.startswith("{")
