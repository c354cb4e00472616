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
"""

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
