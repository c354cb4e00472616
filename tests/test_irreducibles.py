"""Irreducible networks counted against closed forms.

For a terminating system the Diamond Lemma makes the system confluent
exactly when the irreducible networks form a basis of the quotient, so
where the quotient's dimensions are known in closed form, the number of
irreducible networks of each shape and size checks canonicalization,
embedding search and context admission together, by an argument that
shares no code with them.  Networks come from ``conftest.all_wirings``.

- assoc: a network of shape (m, n) with n - m vertices ``m`` is a forest
  of m binary trees over the n inputs in some order.  The irreducible ones
  are the left combs, one per map from the n inputs onto the m outputs
  with each fibre ordered: C(n-1, m-1) * n!, the non-unital associative
  PROP.  All classes of shape (1, n) are the n! orders of the leaves of
  the Catalan(n-1) binary trees.
- circle: a network of shape (1, 1) over a letters ``x`` and b letters
  ``y`` is a word, C(a+b, a) of them, and the irreducible words are those
  with no ``yy``: C(a+1, b).
- hopf: the rules make a bialgebra (r01-r10) with an antipode ``S`` that
  reverses products and coproducts (r11-r14) and obeys no other law.  As
  in the composite PROPs of Lack (*Composing PROPs*, TAC 2004), every
  network reduces to one layered normal form, read from the inputs up:
  a right comb of ``D`` on each input j that makes k_j >= 1 copies of it,
  or ``eps`` on it when k_j = 0; then a power of ``S`` on each of the
  K = sum k_j copies; then a comb of ``m`` into each output i that
  multiplies l_i >= 1 of the copies, or ``eta`` under it when l_i = 0,
  with sum l_i = K.  r10 moves every ``D`` below every ``m``, r11-r14 move
  every ``S`` between them, and r01-r09 remove the units and counits a
  comb can absorb, so the irreducible networks are exactly these: for
  fixed k and l, a bijection from the K copies onto the K factors of the
  output combs, K! of them, and the S powers, #S of them shared among the
  K copies, C(#S+K-1, K-1) ways.  Such a normal form uses
  #D = sum max(k_j - 1, 0), #eps = #{k_j = 0}, #m = sum max(l_i - 1, 0)
  and #eta = #{l_i = 0} vertices, so the irreducible networks over a
  multiset of vertices number the sum of K!*C(#S+K-1, K-1) over the k and
  l that match it; with K = 0 there is one when #S = 0 and none else.
  Without ``S`` the bialgebra rules alone give the same count.
"""

import itertools
from collections import Counter
from math import comb, factorial
from pathlib import Path

import pytest

from netrw.ainparse import parse_rules
from netrw.core import BoolMat, parse_signature
from netrw.freeprop import LinComb
from netrw.rewrite import is_irreducible

from conftest import all_wirings

CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"


def load(system: str):
    sig = parse_signature((CORPUS / f"{system}.sig").read_text(encoding="utf-8"))
    rules = parse_rules((CORPUS / f"{system}.rules").read_text(encoding="utf-8"), sig)
    return sig, rules


def irreducible(classes, rules, m: int, n: int) -> int:
    q = BoolMat.ones(m, n)
    return sum(is_irreducible(LinComb.monomial(cls), q, rules) for cls in classes)


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


ASSOC_SHAPES = [(m, n) for n in range(1, 5) for m in range(1, n + 1)]


@pytest.mark.parametrize("m, n", ASSOC_SHAPES)
def test_assoc_counts(m, n):
    sig, rules = load("assoc")
    classes = all_wirings([sig["m"]] * (n - m), m, n)
    if m == 1:
        assert len(classes) == factorial(n) * catalan(n - 1)
    assert irreducible(classes, rules, m, n) == comb(n - 1, m - 1) * factorial(n)


CIRCLE_WORDS = [(a, b) for a in range(6) for b in range(6 - a)]


@pytest.mark.parametrize("a, b", CIRCLE_WORDS)
def test_circle_counts(a, b):
    sig, rules = load("circle")
    classes = all_wirings([sig["x"]] * a + [sig["y"]] * b, 1, 1)
    assert len(classes) == comb(a + b, a)
    assert irreducible(classes, rules, 1, 1) == comb(a + 1, b)


def hopf_irreducibles(counts: Counter, m: int, n: int) -> int:
    """The layered normal forms of the docstring over these vertex counts,
    of shape (m, n)."""
    total = 0
    s = counts["S"]
    # a copy count above 3 would need more D or m vertices than any case has
    for ks in itertools.product(range(4), repeat=n):
        if (
            sum(max(k - 1, 0) for k in ks) != counts["D"]
            or ks.count(0) != counts["eps"]
        ):
            continue
        big_k = sum(ks)
        for ls in itertools.product(range(big_k + 1), repeat=m):
            if (
                sum(ls) != big_k
                or sum(max(x - 1, 0) for x in ls) != counts["m"]
                or ls.count(0) != counts["eta"]
            ):
                continue
            if big_k == 0:
                total += s == 0
            else:
                total += factorial(big_k) * comb(s + big_k - 1, big_k - 1)
    return total


def hopf_cases() -> list[tuple[tuple[str, ...], int, int]]:
    """Every multiset of at most 2 m, 1 eta, 2 D, 1 eps and 1 S, with every
    shape (m, n), 0 <= m, n <= 2, that wires it with at most 7 edges."""
    arity = {"m": (1, 2), "eta": (1, 0), "D": (2, 1), "eps": (0, 1), "S": (1, 1)}
    cases = []
    for numbers in itertools.product(range(3), range(2), range(3), range(2), range(2)):
        names = tuple(x for x, k in zip(arity, numbers) for _ in range(k))
        outs = sum(arity[x][0] for x in names)
        ins = sum(arity[x][1] for x in names)
        for m, n in itertools.product(range(3), repeat=2):
            if n + outs == m + ins and n + outs <= 7:
                cases.append((names, m, n))
    return cases


HOPF_CASES = hopf_cases()


def test_hopf_counts():
    sig, rules = load("hopf")
    bialgebra = [r for r in rules if r.rule_id in {f"r{i:02}" for i in range(1, 11)}]
    assert len(HOPF_CASES) == 122 and len(bialgebra) == 10
    without_s = 0
    for names, m, n in HOPF_CASES:
        classes = all_wirings([sig[x] for x in names], m, n)
        want = hopf_irreducibles(Counter(names), m, n)
        assert irreducible(classes, rules, m, n) == want, (names, m, n)
        if "S" not in names:
            without_s += 1
            assert irreducible(classes, bialgebra, m, n) == want, (names, m, n)
    assert without_s == 65
