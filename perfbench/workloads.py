"""Seeded job lists for the four workloads, and the checks on their outputs.

A job is one ``netrw`` command line.  Every input is built here as term
text from a ``random.Random``; nothing in this module imports ``netrw``.
The checks compare each output against a reference that the engine did
not produce: hand-written corpus verdicts, the left comb that every right
comb must reach, the circle's value in a rational model, and the value of
Hopf networks in the group algebra of the symmetric group S3.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

CORPUS = "src/netrw/corpus"
ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

# Step budget of the Hopf normalize jobs: far above the longest chain any
# generated input needs, so a budget stop is a failure, not a workload
# property.
HOPF_MAX_STEPS = "400"

# random-hopf runs a fixed pool of networks, so that reference.json records
# the seed commit's output for every one of them, and so that the seed,
# which only relabels and reorders them, does not change the job mix.
POOL_SEED = 1204_2421
POOL_PER_SIZE = 72
# Inner vertex counts of the random networks.  Printed terms are limited to
# 62 edges (one label character each); with 9 or 10 inner vertices a few
# normal forms pass that limit, so the counts stop at 8.
INNER_SIZES = range(3, 9)


@dataclass(frozen=True)
class Job:
    key: str  # names the input up to relabelling; keys reference.json
    argv: tuple[str, ...]
    check: tuple  # (kind, expectation...) read by check_output


def _files(system: str, order: bool) -> list[str]:
    args = ["--sig", f"{CORPUS}/{system}.sig", "--rules", f"{CORPUS}/{system}.rules"]
    if order:
        args += ["--order", f"{CORPUS}/{system}.order"]
    return args


def workload_files(workload: str) -> list[str]:
    """The corpus files the workload's jobs read."""
    systems = {
        "circle-powers": [("circle", True)],
        "large-terms": [("assoc", True), ("hopf", False)],
        "corpus-confluence": [(s, s in ORDERED) for s in CORPUS_VERDICTS],
        "random-hopf": [("hopf", False)],
    }[workload]
    out = []
    for system, order in systems:
        out += [a for a in _files(system, order) if not a.startswith("--")]
        if order:
            out.append(f"{CORPUS}/{system}.map")
    return out


# -- term text -----------------------------------------------------------------


def _naked(factors) -> str:
    parts = []
    for name, sups, subs in factors:
        piece = name
        if sups:
            piece += "^" + "".join(sups)
        if subs:
            piece += "_" + "".join(subs)
        parts.append(piece)
    return " ".join(parts)


def _closed(outs, factors, ins) -> str:
    return f"[{' '.join(outs)}|{_naked(factors) or '1'}|{' '.join(ins)}]"


def circle_power(n: int, rng: random.Random) -> str:
    """y^n as a naked path y^{l0}_{l1} y^{l1}_{l2} ..."""
    labels = rng.sample(ALPHABET, n + 1)
    return _naked([("y", [labels[i]], [labels[i + 1]]) for i in range(n)])


def right_comb(n: int, rng: random.Random, head=None) -> str:
    """m(x1, m(x2, ... m(xn, x_{n+1}))) as a closed term with its legs in
    that order and its factors shuffled.  With a ``head`` factor (name,
    outputs) the comb feeds the head's one input.  The legs stay in order
    because the engine's strategy, and so its step count, depends on them."""
    labels = iter(rng.sample(ALPHABET, 1 + 2 * n + (head[1] if head else 0)))
    factors = []
    cur = next(labels)
    outs = [cur]
    if head is not None:
        name, co = head
        outs = [next(labels) for _ in range(co)]
        factors.append((name, outs, [cur]))
    ins = []
    for i in range(n):
        x, nxt = next(labels), next(labels)
        factors.append(("m", [cur], [x, nxt]))
        ins.append(x)
        cur = nxt
    ins.append(cur)
    rng.shuffle(factors)
    return _closed(outs, factors, ins)


def left_comb_text(leaves: list[str]) -> str:
    """The tree text of the left comb m(m(m(l1,l2),l3),...) on the leaves."""
    text = leaves[0]
    for leaf in leaves[1:]:
        text = f"m({text},{leaf})"
    return text


def random_hopf_network(rng: random.Random, inner: int):
    """A random acyclic network over the Hopf signature as (outs, factors,
    ins): vertices are placed in topological order and consume dangling
    wires or fresh input legs; some networks fall apart into several
    components, and some carry a stray input-to-output wire."""
    arity = {"m": (1, 2), "D": (2, 1), "S": (1, 1), "eta": (1, 0), "eps": (0, 1)}
    names = ["m"] * 3 + ["D"] * 3 + ["S"] * 2 + ["eta", "eps"]
    labels = iter(rng.sample(ALPHABET, len(ALPHABET)))
    ins: list[str] = []
    dangling: list[str] = []
    factors = []
    for _ in range(inner):
        name = rng.choice(names)
        co, ar = arity[name]
        subs = []
        for _ in range(ar):
            if dangling and rng.random() < 0.7:
                subs.append(dangling.pop(rng.randrange(len(dangling))))
            else:
                leg = next(labels)
                ins.append(leg)
                subs.append(leg)
        sups = [next(labels) for _ in range(co)]
        dangling += sups
        factors.append((name, sups, subs))
    outs = list(dangling)
    if rng.random() < 0.25:
        stray = next(labels)
        ins.append(stray)
        outs.append(stray)
    rng.shuffle(outs)
    rng.shuffle(ins)
    return outs, factors, ins


def hopf_pool() -> list[tuple]:
    """The fixed random-hopf networks, POOL_PER_SIZE of each size."""
    rng = random.Random(POOL_SEED)
    return [
        random_hopf_network(rng, INNER_SIZES[i % len(INNER_SIZES)])
        for i in range(POOL_PER_SIZE * len(INNER_SIZES))
    ]


def _relabel(net, rng: random.Random):
    """The same network with fresh labels and shuffled factor order."""
    outs, factors, ins = net
    used = sorted({l for _, sups, subs in factors for l in sups + subs} | set(outs) | set(ins))
    new = dict(zip(used, rng.sample(ALPHABET, len(used))))
    factors = [(n, [new[l] for l in sups], [new[l] for l in subs]) for n, sups, subs in factors]
    rng.shuffle(factors)
    return [new[l] for l in outs], factors, [new[l] for l in ins]


# -- job rounds ------------------------------------------------------------------

# y^n sizes of a circle-powers round.  The median job falls among the five
# y^12 jobs and the 90th percentile in the middle of the four y^14 jobs, so
# neither sits on a boundary between two sizes.
CIRCLE_POWERS = (8, 9, 10, 10, 11, 11, 11, 12, 12, 12, 12, 12, 13, 13, 13, 13, 14, 14, 14, 14)

# Hand-written corpus verdicts: (exit code, verdict, ambiguity count).
# assoc, zigzag and hopf are confluent; circle, bridge and frobenius are not.
CORPUS_VERDICTS = {
    "assoc": (0, "confluent", 2),
    "circle": (1, "not-confluent", 2),
    "bridge": (1, "not-confluent", 4),
    "zigzag": (0, "confluent", 7),
    "frobenius": (1, "not-confluent", 7),
    "hopf": (0, "confluent", 46),
}
ORDERED = ("assoc", "circle")  # the README runs these with their order files
COMPLETIONS = {"circle": 1, "assoc": 0}  # rules `complete` adds


def _normalize(system: str, order: bool, term: str) -> tuple[str, ...]:
    budget = [] if order else ["--max-steps", HOPF_MAX_STEPS]
    return ("normalize", *_files(system, order), *budget, term)


def round_jobs(workload: str, seed: int) -> list[Job]:
    """One round of the workload.  The networks of a round are fixed per
    workload, so that every seed and every run sees the same mix; the seed
    picks label letters, factor order and job order."""
    rng = random.Random(f"{workload}/{seed}")
    jobs: list[Job] = []
    if workload == "circle-powers":
        for n in CIRCLE_POWERS:
            jobs.append(Job(f"circle y^{n}", _normalize("circle", True, circle_power(n, rng)), ("circle", n)))
    elif workload == "large-terms":
        for n in range(15, 31):
            term = right_comb(n, rng)
            jobs.append(Job(f"assoc comb {n}", _normalize("assoc", True, term), ("comb", term)))
        for head, sizes in (("D", range(4, 12)), ("S", range(4, 15))):
            for n in sizes:
                term = right_comb(n, rng, (head, 2 if head == "D" else 1))
                jobs.append(Job(f"hopf {head}(m^{n})", _normalize("hopf", False, term), ("hopf", term)))
    elif workload == "corpus-confluence":
        for system, (code, verdict, count) in CORPUS_VERDICTS.items():
            order = system in ORDERED
            budget = [] if order else ["--max-steps", "25"]
            argv = ("confluence", *_files(system, order), *budget)
            job = Job(f"confluence {system}", argv, ("confluence", system, code, verdict, count))
            # Hopf, the slowest job, runs twice, so that the 90th percentile
            # falls in the middle of its times rather than at their edge.
            jobs += [job] * (2 if system == "hopf" else 1)
        for system, added in COMPLETIONS.items():
            argv = ("complete", *_files(system, True))
            jobs.append(Job(f"complete {system}", argv, ("complete", added)))
    elif workload == "random-hopf":
        for i, net in enumerate(hopf_pool()):
            term = _closed(*_relabel(net, rng))
            jobs.append(Job(f"random-hopf #{i}", _normalize("hopf", False, term), ("hopf", term)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


WORKLOADS = ("circle-powers", "large-terms", "corpus-confluence", "random-hopf")


def all_jobs() -> list[Job]:
    """One job per key: every input any seed can produce, up to labels."""
    by_key: dict[str, Job] = {}
    for workload in WORKLOADS:
        for job in round_jobs(workload, 0):
            by_key.setdefault(job.key, job)
    return list(by_key.values())


# -- reading printed terms -------------------------------------------------------

_TERM = re.compile(r"(-\s*)?(\d+(?:/\d+)?\s*)?\[([^\]|]*)\|([^\]|]*)\|([^\]|]*)\]")
_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9]*)(?:\^([A-Za-z0-9]+))?(?:_([A-Za-z0-9]+))?$")


def _parse_factors(body: str):
    body = body.strip()
    if body == "1":
        return []
    factors = []
    for word in body.split():
        m = _FACTOR.match(word)
        if m is None:
            raise ValueError(f"unreadable factor {word!r}")
        factors.append((m.group(1), list(m.group(2) or ""), list(m.group(3) or "")))
    return factors


def parse_printed(text: str) -> list[tuple[Fraction, tuple]]:
    """The monomials of a printed closed-form combination, with coefficients."""
    text = text.strip()
    if text == "0":
        return []
    terms = []
    pos = 0
    for m in _TERM.finditer(text):
        gap = text[pos : m.start()].strip()
        if gap not in ("", "+"):
            raise ValueError(f"unreadable combination near {gap!r}")
        coeff = Fraction(m.group(2).strip()) if m.group(2) else Fraction(1)
        if m.group(1):
            coeff = -coeff
        net = (m.group(3).split(), _parse_factors(m.group(4)), m.group(5).split())
        terms.append((coeff, net))
        pos = m.end()
    if not terms or text[pos:].strip():
        raise ValueError("unreadable combination")
    return terms


# -- models ----------------------------------------------------------------------

_S3 = list(permutations(range(3)))


def _mul(g, h):
    return tuple(g[h[i]] for i in range(3))


def _inv(g):
    out = [0, 0, 0]
    for i, x in enumerate(g):
        out[x] = i
    return tuple(out)


_UNIT = (0, 1, 2)


def group_value(net, inputs):
    """Evaluate a Hopf network at a tuple of S3 elements in the group algebra:
    m multiplies, D copies, S inverts, eta is the unit, eps is 1, and the
    delta passes its wire on."""
    outs, factors, ins = net
    val = dict(zip(ins, inputs))
    pending = list(factors)
    while pending:
        rest = []
        for name, sups, subs in pending:
            if not all(l in val for l in subs):
                rest.append((name, sups, subs))
                continue
            args = [val[l] for l in subs]
            if name == "m":
                res = [_mul(args[0], args[1])]
            elif name == "D":
                res = [args[0], args[0]]
            elif name == "S":
                res = [_inv(args[0])]
            elif name == "eta":
                res = [_UNIT]
            elif name == "eps":
                res = []
            elif name in ("d", "delta"):
                res = [args[0]]
            else:
                raise ValueError(f"no model for {name!r}")
            val.update(zip(sups, res))
        if len(rest) == len(pending):
            raise ValueError("network has a cycle or a dangling wire")
        pending = rest
    return tuple(val[l] for l in outs)


def combination_value(terms, inputs) -> dict:
    value: dict = {}
    for coeff, net in terms:
        out = group_value(net, inputs)
        value[out] = value.get(out, 0) + coeff
    return {k: c for k, c in value.items() if c != 0}


def comb_tree(net) -> tuple[str, list[str]]:
    """The tree text of a one-output network of m vertices, with its leaves
    from left to right; leaf i is the network's i-th input leg."""
    outs, factors, ins = net
    producer = {sups[0]: subs for name, sups, subs in factors if name == "m" and len(sups) == 1}
    if len(producer) != len(factors) or len(outs) != 1:
        raise ValueError("not a tree of m")
    leaf = {l: f"x{i}" for i, l in enumerate(ins, 1)}
    leaves: list[str] = []

    def tree(label):
        if label in leaf:
            leaves.append(leaf[label])
            return leaf[label]
        left, right = producer[label]
        return f"m({tree(left)},{tree(right)})"

    return tree(outs[0]), leaves


# -- checks ----------------------------------------------------------------------

_COUNT = re.compile(r"^(\d+) ambiguities ")
_ADDED = re.compile(r"^(\d+) rules added; verdict: (\S+)$")


def check_output(job: Job, code, out: str, seed: int) -> str | None:
    """None when the job's exit code and output are right, else the reason."""
    kind = job.check[0]
    if kind == "confluence":
        _, system, want_code, verdict, count = job.check
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        lines = out.strip().splitlines()
        m = _COUNT.match(lines[0]) if lines else None
        if m is None or int(m.group(1)) != count:
            return f"expected {count} ambiguities"
        if lines[-1].split(" (")[0] != f"verdict: {verdict}":
            return f"expected verdict {verdict}"
        if system == "frobenius" and "(wrap)" not in out:
            return "frobenius lost its wrap ambiguity"
        return None
    if code != 0:
        return f"exit code {code}"
    if kind == "complete":
        m = _ADDED.match(out.strip().splitlines()[0])
        if m is None or int(m.group(1)) != job.check[1] or m.group(2) != "confluent":
            return f"expected {job.check[1]} added rules and a confluent verdict"
        return None
    terms = parse_printed(out)
    if kind == "circle":
        # x = 3/5, y = 4/5 satisfies x.x + y.y = 1, so y^n must keep its value.
        n = job.check[1]
        value = sum(
            c * Fraction(3, 5) ** sum(f[0] == "x" for f in net[1]) * Fraction(4, 5) ** sum(f[0] == "y" for f in net[1])
            for c, net in terms
        )
        if value != Fraction(4, 5) ** n:
            return f"value {value} is not (4/5)^{n}"
        # The value holds after any number of steps; a normal form also has
        # no y^a_b y^b_c left, the rule's left-hand side.
        for _, (_, factors, _) in terms:
            ys = [f for f in factors if f[0] == "y"]
            if {f[2][0] for f in ys} & {f[1][0] for f in ys}:
                return "a monomial still holds y.y"
        return None
    if kind == "comb":
        # Associativity keeps the order of the leaves, so the right comb's
        # leaves, refolded to the left, give the only correct output.
        _, leaves = comb_tree(parse_printed(job.check[1])[0][1])
        if len(terms) != 1 or terms[0][0] != 1 or comb_tree(terms[0][1])[0] != left_comb_text(leaves):
            return "not the left comb"
        return None
    if kind == "hopf":
        term = job.check[1]
        net = parse_printed(term)[0][1]
        rng = random.Random(f"{job.key}/{seed}")
        for _ in range(3):
            inputs = [rng.choice(_S3) for _ in net[2]]
            want = {group_value(net, inputs): Fraction(1)}
            if combination_value(terms, inputs) != want:
                return "value in the S3 group algebra changed"
        return None
    raise ValueError(f"unknown check {kind!r}")
