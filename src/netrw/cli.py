"""Batch command line front end over the text formats."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .ainparse import AinError, format_class, format_term, parse_rules, parse_term
from .ambiguity import (
    IncompatibleRuleError,
    LimitReachedError,
    OrientationFailedError,
    complete,
    confluence_report,
    enumerate_decisive,
)
from .core import BoolMat, SignatureError, parse_signature
from .freeprop import JoinUndefinedError, lc_sym_join
from .network import evaluate
from .order import check_strictness, parse_order, rule_compatible
from .props import connectivity_assignment, get_target, parse_assignment
from .rewrite import BudgetExceededError, RuleError, normalize

USAGE_ERROR = 2
NEGATIVE = 1
OK = 0


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_sig(args):
    return parse_signature(_read(args.sig))


def _load_rules(args, sig):
    return parse_rules(_read(args.rules), sig)


def _load_order(args, sig):
    base = Path(args.order).parent

    def resolve(name: str) -> str:
        return (base / name).read_text(encoding="utf-8")

    return parse_order(_read(args.order), sig, resolve)


def _admissible_order(args, sig):
    """The order preset of a run that relies on it for termination, which
    must pass ``check_strictness``."""
    spec = _load_order(args, sig)
    report = check_strictness(spec, sig)
    if not report.ok:
        note = next(note for st in report.stages if not st.ok for note in st.notes)
        raise UsageError(f"order not admissible: {note}")
    return spec


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        print(text)


def _ambient(term, args):
    if args.type == "zero":
        return BoolMat.zeros(term.coarity, term.arity)
    return BoolMat.ones(term.coarity, term.arity)


def cmd_validate(args) -> int:
    sig = _load_sig(args)
    term = parse_term(args.term, sig)
    _emit(
        args,
        {"ok": True, "coarity": term.coarity, "arity": term.arity},
        f"valid: coarity {term.coarity}, arity {term.arity}",
    )
    return OK


def cmd_iso(args) -> int:
    sig = _load_sig(args)
    a = parse_term(args.a, sig)
    b = parse_term(args.b, sig)
    same = a == b
    _emit(args, {"isomorphic": same}, "isomorphic" if same else "distinct")
    return OK if same else NEGATIVE


def cmd_tr(args) -> int:
    sig = _load_sig(args)
    term = parse_term(args.term, sig)
    if not term.is_monomial():
        raise UsageError("tr needs a single monomial")
    mat = term.monomials()[0].tr
    _emit(args, {"rows": mat.rows, "cols": mat.cols, "matrix": mat.to_rows()}, str(mat))
    return OK


def cmd_eval(args) -> int:
    sig = _load_sig(args)
    target = get_target(args.target)
    term = parse_term(args.term, sig)
    if args.map:
        assign = parse_assignment(_read(args.map), sig, target)
    elif args.target == "connectivity":
        assign = connectivity_assignment(sig)
    else:
        raise UsageError("eval needs --map for this target")
    pieces = []
    for cls, coeff in term.items():
        value = evaluate(cls.rep, target, assign)
        pieces.append(f"{coeff} * {value}")
    text = "\n".join(pieces) if pieces else "0"
    _emit(args, {"values": pieces}, text)
    return OK


def cmd_join(args) -> int:
    sig = _load_sig(args)
    a = parse_term(args.a, sig)
    b = parse_term(args.b, sig)
    try:
        result = lc_sym_join(a, args.r, args.q, b)
    except JoinUndefinedError as exc:
        _emit(args, {"defined": False, "witness": str(exc)}, f"undefined: {exc}")
        return NEGATIVE
    _emit(args, {"defined": True, "result": format_term(result)}, format_term(result))
    return OK


def cmd_normalize(args) -> int:
    sig = _load_sig(args)
    rules = _load_rules(args, sig)
    term = parse_term(args.term, sig)
    q = _ambient(term, args)
    if args.order:
        spec = _admissible_order(args, sig)
        for rule in rules:
            ok, _ = rule_compatible(rule, spec)
            if not ok:
                raise UsageError(f"rule {rule.rule_id} not compatible with the order")
    try:
        nf = normalize(
            term, q, rules, max_steps=args.max_steps, order_backed=bool(args.order)
        )
    except BudgetExceededError as exc:
        _emit(
            args,
            {"status": "budget-exceeded", "partial": format_term(exc.partial)},
            f"budget exceeded; partial: {format_term(exc.partial)}",
        )
        return NEGATIVE
    _emit(args, {"normal_form": format_term(nf)}, format_term(nf))
    return OK


def _ambiguity_row(amb) -> dict:
    """The fields that ambiguities and confluence report for every ambiguity."""
    return {
        "rules": [amb.rule1_id, amb.rule2_id],
        "site": format_class(amb.site),
        "kind": "terse" if amb.terse else "wrap",
        "trivial": amb.trivial,
    }


def cmd_ambiguities(args) -> int:
    sig = _load_sig(args)
    rules = _load_rules(args, sig)
    by_id = {r.rule_id: r for r in rules}
    if args.pair:
        try:
            pairs = [(by_id[args.pair[0]], by_id[args.pair[1]])]
        except KeyError as exc:
            raise UsageError(f"unknown rule {exc}") from None
    else:
        pairs = [
            (rules[i], rules[j])
            for i in range(len(rules))
            for j in range(i, len(rules))
        ]
    rows = [_ambiguity_row(amb) for s1, s2 in pairs for amb in enumerate_decisive(s1, s2)]
    text = "\n".join(
        f"{r['rules'][0]} / {r['rules'][1]} [{r['kind']}{', trivial' if r['trivial'] else ''}]"
        f" at {r['site']}"
        for r in rows
    )
    _emit(args, {"ambiguities": rows, "count": len(rows)}, text or "none")
    return OK


def cmd_confluence(args) -> int:
    sig = _load_sig(args)
    rules = _load_rules(args, sig)
    spec = _admissible_order(args, sig) if args.order else None
    try:
        report = confluence_report(rules, spec, max_steps=args.max_steps)
    except IncompatibleRuleError as exc:
        raise UsageError(str(exc)) from None
    rows = [
        {
            **_ambiguity_row(res.ambiguity),
            "status": res.status,
            "difference": format_term(res.difference) if res.difference else None,
        }
        for res in report.results
    ]
    counts = report.counts()
    nontrivial = sum(1 for r in report.results if not r.ambiguity.trivial)
    lines = [
        f"{len(report.results)} ambiguities ({nontrivial} nontrivial):"
        f" {counts['resolved']} resolved, {counts['unresolved']} unresolved,"
        f" {counts['unknown']} unknown"
    ]
    for row in rows:
        mark = "" if row["status"] == "resolved" else f" [{row['status'].upper()}]"
        extra = " (wrap)" if row["kind"] == "wrap" else ""
        lines.append(
            f"  {row['rules'][0]} / {row['rules'][1]}{extra} at {row['site']}{mark}"
        )
        if row["difference"]:
            lines.append(f"    difference: {row['difference']}")
    lines.append(f"verdict: {report.verdict}" + (" (advisory: non-sharp system)" if report.advisory else ""))
    _emit(
        args,
        {
            "verdict": report.verdict,
            "advisory": report.advisory,
            "ambiguities": rows,
        },
        "\n".join(lines),
    )
    return OK if report.verdict == "confluent" else NEGATIVE


def cmd_complete(args) -> int:
    sig = _load_sig(args)
    rules = _load_rules(args, sig)
    spec = _admissible_order(args, sig)
    try:
        new_rules, report = complete(rules, spec, max_steps=args.max_steps)
    except (OrientationFailedError, LimitReachedError) as exc:
        print(f"completion failed: {exc}", file=sys.stderr)
        return NEGATIVE
    added = [r for r in new_rules if r not in rules]
    lines = [f"{len(added)} rules added; verdict: {report.verdict}"]
    for rule in added:
        lines.append(
            f"  rule {rule.rule_id}: {format_class(rule.lhs)} ->"
            f" {format_term(rule.rhs)}"
        )
    _emit(
        args,
        {
            "added": [
                {
                    "id": r.rule_id,
                    "lhs": format_class(r.lhs),
                    "rhs": format_term(r.rhs),
                }
                for r in added
            ],
            "verdict": report.verdict,
        },
        "\n".join(lines),
    )
    return OK if report.verdict == "confluent" else NEGATIVE


def cmd_order_check(args) -> int:
    sig = _load_sig(args)
    spec = _load_order(args, sig)
    report = check_strictness(spec, sig)
    payload = {
        "ok": report.ok,
        "stages": [
            {"kind": st.kind, "ok": st.ok, "notes": list(st.notes)} for st in report.stages
        ],
    }
    lines = [str(report)]
    if args.rules:
        rules = _load_rules(args, sig)
        compat = []
        for rule in rules:
            ok, witnesses = rule_compatible(rule, spec)
            compat.append({"rule": rule.rule_id, "compatible": ok})
            lines.append(f"rule {rule.rule_id}: {'compatible' if ok else 'NOT compatible'}")
        payload["rules"] = compat
        all_ok = report.ok and all(c["compatible"] for c in compat)
    else:
        all_ok = report.ok
    _emit(args, payload, "\n".join(lines))
    return OK if all_ok else NEGATIVE


class UsageError(Exception):
    """A malformed command line; :func:`main` prints it and returns 2."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would print the usage and
    exit; subparsers are made of the same class."""

    def error(self, message):
        raise UsageError(message)


# name -> (help, handler), in the order ``netrw --help`` lists them
_COMMANDS = {
    "validate": ("check a term against the network axioms", cmd_validate),
    "iso": ("decide isomorphism of two terms", cmd_iso),
    "tr": ("transference matrix of a monomial", cmd_tr),
    "eval": ("evaluate a term in a built-in target", cmd_eval),
    "join": ("symmetric join of two terms", cmd_join),
    "normalize": ("reduce a term to normal form", cmd_normalize),
    "ambiguities": ("list ambiguities of a rule system", cmd_ambiguities),
    "confluence": ("resolve all ambiguities", cmd_confluence),
    "complete": ("orient unresolved differences into new rules", cmd_complete),
    "order-check": ("check strictness and rule compatibility", cmd_order_check),
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line parser, with every subcommand, or only ``command``'s.

    Which subcommands exist shows only in the top-level help and in the
    errors for a missing or unknown command, so a parser with just the
    named one parses its command lines as the full parser does."""
    parser = _Parser(
        prog="netrw", description="rewriting engine for free linear PROPs"
    )
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            _add_arguments(p, name)
            p.set_defaults(func=handler)
    return parser


def _command(argv: list[str]) -> str | None:
    """The subcommand argv names after its ``--json`` flags, if it names a
    known one there; None for anything else, whose handling (help, a
    missing or unknown command) needs the full parser."""
    for arg in argv:
        if arg != "--json":
            return arg if arg in _COMMANDS else None
    return None


def main(argv=None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = build_parser(_command(argv)).parse_args(argv)
        if getattr(args, "max_steps", None) is not None and args.max_steps < 0:
            raise UsageError("--max-steps must be a nonnegative integer")
        if args.command in ("normalize", "confluence") and not args.order and args.max_steps is None:
            raise UsageError(f"{args.command} needs --order or --max-steps")
        return args.func(args)
    except (UsageError, AinError, SignatureError, RuleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
