"""Batch command line front end over the text formats."""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

from .ainparse import AinError, format_class, format_term, parse_rules, parse_term
from .ambiguity import (
    LimitReachedError,
    OrientationFailedError,
    complete,
    confluence_report,
    enumerate_decisive,
)
from .core import BoolMat, SignatureError, parse_signature
from .freeprop import JoinUndefinedError, ShapeError, lc_sym_join
from .network import evaluate
from .order import OrderError, check_compatible, check_strictness, parse_order, rule_compatible
from .props import TargetValueError, connectivity_assignment, get_target, parse_assignment
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
        import json  # only here, so that a run without --json never loads it

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
        value = evaluate(cls.net, target, assign)
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
    except ShapeError as exc:  # --r and --q do not fit the operands
        raise UsageError(str(exc)) from None
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
        check_compatible(rules, _admissible_order(args, sig))
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
    report = confluence_report(rules, spec, max_steps=args.max_steps)
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


# The errors of bad input, which main reports in one line with exit 2.  Any
# other exception is a fault of the program and ends in a traceback.
_INPUT_ERRORS = (
    UsageError,
    AinError,
    SignatureError,
    RuleError,
    OrderError,
    TargetValueError,
    UnicodeDecodeError,
    OSError,
)


# An option is (flag, required, kind, nargs, help).  Its value is a string,
# an int when kind is int, or one of kind's strings when kind is a tuple,
# whose first string is then the default; with nargs 2 it is a list of two
# strings.  An option left out is None, unless it has that default.
_SIG = ("--sig", True, str, 1, "signature file")
_RULES = ("--rules", True, str, 1, "rules file")
_ORDER = ("--order", True, str, 1, "order preset file")
_MAYBE_ORDER = ("--order", False, str, 1, "order preset file")
_STEPS = ("--max-steps", False, int, 1, "at most this many first replacements per normalization")

# name -> (help, handler, options, positionals), in the order ``netrw --help``
# lists them
_COMMANDS = {
    "validate": ("check a term against the network axioms", cmd_validate, (_SIG,), ("term",)),
    "iso": ("decide isomorphism of two terms", cmd_iso, (_SIG,), ("a", "b")),
    "tr": ("transference matrix of a monomial", cmd_tr, (_SIG,), ("term",)),
    "eval": (
        "evaluate a term in a built-in target",
        cmd_eval,
        (
            _SIG,
            ("--target", True, str, 1, "target PROP name"),
            ("--map", False, str, 1, "generator assignment file"),
        ),
        ("term",),
    ),
    "join": (
        "symmetric join of two terms",
        cmd_join,
        (
            _SIG,
            ("--r", True, int, 1, "last outputs of a joined to first inputs of b"),
            ("--q", True, int, 1, "first outputs of b joined to last inputs of a"),
        ),
        ("a", "b"),
    ),
    "normalize": (
        "reduce a term to normal form",
        cmd_normalize,
        (_SIG, _RULES, _MAYBE_ORDER, _STEPS, ("--type", False, ("ones", "zero"), 1, "ambient type")),
        ("term",),
    ),
    "ambiguities": (
        "list ambiguities of a rule system",
        cmd_ambiguities,
        (_SIG, _RULES, ("--pair", False, str, 2, "only this pair of rules")),
        (),
    ),
    "confluence": ("resolve all ambiguities", cmd_confluence, (_SIG, _RULES, _MAYBE_ORDER, _STEPS), ()),
    "complete": (
        "orient unresolved differences into new rules",
        cmd_complete,
        (_SIG, _RULES, _ORDER, _STEPS),
        (),
    ),
    "order-check": (
        "check strictness and rule compatibility",
        cmd_order_check,
        (_SIG, _ORDER, ("--rules", False, str, 1, "rules file")),
        (),
    ),
}
_HELP = ("-h", "--help")


def _is_value(token: str) -> bool:
    """Whether a token is a value rather than an option: it does not start
    with "-", or it is "-" alone, a negative number or has a space in it."""
    if not token.startswith("-") or token == "-" or " " in token:
        return True
    whole, dot, frac = token[1:].partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and frac.isdecimal()
    return whole.isdecimal()


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _metavar(flag: str, kind, nargs: int) -> str:
    if isinstance(kind, tuple):
        return "{" + ",".join(kind) + "}"
    return " ".join([_dest(flag).upper()] * nargs)


def _listing(title: str, rows: list[tuple[str, str]]) -> str:
    width = max(len(name) for name, _ in rows) + 2
    return f"{title}:\n" + "\n".join(f"  {name:{width}}{text}" for name, text in rows)


def _help(command: str | None) -> str:
    """The usage and help of ``command``, or of netrw itself."""
    options = [("-h, --help", "show this help and exit")]
    if command is None:
        options.append(("--json", "structured output; comes before the command"))
        commands = [(name, entry[0]) for name, entry in _COMMANDS.items()]
        return (
            "usage: netrw [-h] [--json] COMMAND ...\n\nrewriting engine for free linear PROPs\n\n"
            + _listing("commands", commands)
            + "\n\n"
            + _listing("options", options)
        )
    help_text, _, table, positionals = _COMMANDS[command]
    words = ["usage: netrw [--json]", command, "[-h]"]
    for flag, required, kind, nargs, text in table:
        flag_and_value = f"{flag} {_metavar(flag, kind, nargs)}"
        words.append(flag_and_value if required else f"[{flag_and_value}]")
        options.append((flag_and_value, text))
    words += positionals
    return " ".join(words) + f"\n\n{help_text}\n\n" + _listing("options", options)


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The fields of the command line argv, or None after printing the help
    it asks for.

    ``--json`` and ``-h``/``--help`` may come before the subcommand; after it
    come its options, exactly as spelled, as ``--name value`` or
    ``--name=value``, and its positionals, in any order.  After ``--`` every
    token is a positional.  The first option that fits no rule is an error;
    missing or surplus arguments are errors once every token is read, so a
    ``-h`` among them still gives the help."""
    json_out = False
    rest = iter(argv)
    for token in rest:
        if token in _HELP:
            print(_help(None))
            return None
        if token != "--json":
            command = token
            break
        json_out = True
    else:
        raise UsageError("the following arguments are required: command")
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    _, _, options, positionals = _COMMANDS[command]
    fields = {"json": json_out, "command": command}
    for flag, _, kind, _, _ in options:
        fields[_dest(flag)] = kind[0] if isinstance(kind, tuple) else None
    by_flag = {option[0]: option for option in options}
    given, values = set(), []
    for token in rest:
        if token == "--":
            values.extend(rest)
        elif _is_value(token):
            values.append(token)
        elif token in _HELP:
            print(_help(command))
            return None
        else:
            flag, eq, value = token.partition("=")
            if flag not in by_flag:
                raise UsageError(f"unrecognized arguments: {token}")
            _, _, kind, nargs, _ = by_flag[flag]
            got = [value] if eq else list(islice(rest, nargs))
            if len(got) != nargs or not all(map(_is_value, got)):
                expected = "one argument" if nargs == 1 else f"{nargs} arguments"
                raise UsageError(f"argument {flag}: expected {expected}")
            if kind is int:
                try:
                    got = [int(v) for v in got]
                except ValueError:
                    raise UsageError(f"argument {flag}: invalid int value: {got[0]!r}") from None
            elif isinstance(kind, tuple) and got[0] not in kind:
                choices = ", ".join(map(repr, kind))
                raise UsageError(f"argument {flag}: invalid choice: {got[0]!r} (choose from {choices})")
            fields[_dest(flag)] = got[0] if nargs == 1 else got
            given.add(flag)
    missing = [flag for flag, required, *_ in options if required and flag not in given]
    missing += positionals[len(values):]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if len(values) > len(positionals):
        raise UsageError(f"unrecognized arguments: {' '.join(values[len(positionals):])}")
    fields.update(zip(positionals, values))
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _parse_args(argv)
        if args is None:
            return OK
        if getattr(args, "max_steps", None) is not None and args.max_steps < 0:
            raise UsageError("--max-steps must be a nonnegative integer")
        if args.command in ("normalize", "confluence") and not args.order and args.max_steps is None:
            raise UsageError(f"{args.command} needs --order or --max-steps")
        return _COMMANDS[args.command][1](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
