"""Local confluence checked without gluings.

Every peak x <- w -> y of single steps in a network w must join when the
system's confluence report, built from its decisive ambiguities, says it
is confluent, and a site the report leaves unresolved must itself give a
peak that does not join.  The networks are all those of small sizes that
``conftest.all_wirings`` lists, and a peak is tested with ``joinable``
alone, so this shares no code with the gluing search.

- assoc: every shape (m, n), 1 <= m < n <= 4, with n - m vertices ``m``;
- circle: every word of at most 3 ``x`` and 4 ``y``, 5 letters at most;
- hopf: every multiset of at most 3 vertices out of 2 ``m``, 1 ``eta``,
  2 ``D``, 1 ``eps`` and 1 ``S``, at every shape up to (2, 2).

Every peak is read at the all-ones type.  assoc and circle normalize
under their orders, and hopf within 25 steps.
"""

import itertools
from pathlib import Path

import pytest

from netrw.ainparse import parse_rules
from netrw.ambiguity import confluence_report
from netrw.core import BoolMat, parse_signature
from netrw.freeprop import LinComb
from netrw.order import parse_order
from netrw.rewrite import all_single_steps, joinable

from conftest import all_wirings

CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"
HOPF_ARITY = {"m": (1, 2), "eta": (1, 0), "D": (2, 1), "eps": (0, 1), "S": (1, 1)}


def load(system: str):
    def read(name):
        return (CORPUS / name).read_text(encoding="utf-8")

    sig = parse_signature(read(f"{system}.sig"))
    rules = parse_rules(read(f"{system}.rules"), sig)
    order = CORPUS / f"{system}.order"
    spec = parse_order(read(order.name), sig, read) if order.exists() else None
    return sig, rules, spec


def networks(system: str, sig) -> list:
    """The (class, m, n) of every network of the module docstring."""
    if system == "assoc":
        cases = [([sig["m"]] * (n - m), m, n) for n in range(1, 5) for m in range(1, n)]
    elif system == "circle":
        cases = [
            ([sig["x"]] * a + [sig["y"]] * b, 1, 1)
            for a in range(4)
            for b in range(5)
            if a + b <= 5
        ]
    else:
        cases = []
        for numbers in itertools.product(range(3), range(2), range(3), range(2), range(2)):
            if not 0 < sum(numbers) <= 3:
                continue
            names = [x for x, k in zip(HOPF_ARITY, numbers) for _ in range(k)]
            outs = sum(HOPF_ARITY[x][0] for x in names)
            ins = sum(HOPF_ARITY[x][1] for x in names)
            cases += [
                ([sig[x] for x in names], m, n)
                for m, n in itertools.product(range(3), repeat=2)
                if n + outs == m + ins
            ]
    return [(cls, m, n) for symbols, m, n in cases for cls in all_wirings(symbols, m, n)]


def peaks(system: str):
    """The verdict of the system's confluence report, its unresolved
    sites, the networks, the number of peaks, and the network of each peak
    that does not join."""
    sig, rules, spec = load(system)
    max_steps = None if spec else 25
    report = confluence_report(rules, spec, max_steps)
    unresolved = {r.ambiguity.site for r in report.results if r.status == "unresolved"}
    nets = networks(system, sig)
    count = 0
    stuck = []
    for cls, m, n in nets:
        q = BoolMat.ones(m, n)
        reducts = all_single_steps(LinComb.monomial(cls), q, rules)
        for x, y in itertools.combinations(reducts, 2):
            count += 1
            result = joinable(x, y, q, rules, max_steps=max_steps, order_backed=spec is not None)
            if result.status != "yes":
                stuck.append(cls)
    return report.verdict, unresolved, nets, count, stuck


@pytest.mark.parametrize("system, sizes", [("assoc", (338, 24)), ("hopf", (567, 60))])
def test_confluent_systems_join_every_peak(system, sizes):
    verdict, _, nets, count, stuck = peaks(system)
    assert verdict == "confluent"
    assert (len(nets), count) == sizes
    assert not stuck


def test_unresolved_site_has_stuck_peak():
    # the one unresolved site is the word y y y
    verdict, unresolved, nets, count, stuck = peaks("circle")
    assert verdict == "not-confluent"
    assert (len(nets), count, len(stuck)) == (55, 18, 14)
    assert len(unresolved) == 1 and unresolved <= set(stuck)
