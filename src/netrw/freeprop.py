"""Isomorphism classes of networks, the free PROP operations on them,
the symmetric join, annexation, free feedback, and formal linear
combinations with exact rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .core import BoolMat, Perm, bm_blocks, bm_stack, same
from .network import (
    Edge,
    Network,
    canonical_code,
    from_code,
    perm_network,
    generator_network,
    transference,
)


class ShapeError(ValueError):
    pass


class JoinUndefinedError(ValueError):
    """A symmetric join whose joined ports would close a directed cycle."""

    def __init__(self, witness: str):
        super().__init__(f"symmetric join undefined: {witness}")
        self.witness = witness


class NetClass:
    """A network isomorphism class, held as one of its networks.

    ``net`` is the network the class was built from.  ``tr`` (the
    transference), ``code`` (the canonical code), ``rep`` and the hash are
    deferred: each is computed on its first read and kept, so a class whose
    identity is never asked for is never canonicalized, one whose type is
    never asked for is never traversed, and one whose representative is
    never asked for is never rebuilt.  ``tr`` is read off whichever network
    ``net`` is then, since a leg-preserving isomorphism keeps it, unless
    the caller already has it and passes it in.  ``rep`` is always the
    canonical representative, rebuilt from ``code``; once it is built,
    ``net`` is ``rep``.  Equality, hashing and order go by code, and
    :func:`class_of` returns a class whose code is already computed.
    """

    __slots__ = ("net", "tr", "code", "rep", "_hash")

    def __init__(self, net: Network, tr: BoolMat | None = None):
        self.net = net
        if tr is not None:
            self.tr = tr

    def __getattr__(self, name: str):
        # reached only when a slot is unset: a deferred field's first read
        if name == "tr":
            self.tr = transference(self.net)
        elif name == "rep":
            self.rep = self.net = from_code(self.code)
        elif name in ("code", "_hash"):
            self.code = canonical_code(self.net)
            self._hash = hash(self.code)
        else:
            raise AttributeError(name)
        return object.__getattribute__(self, name)

    @property
    def coarity(self) -> int:
        return self.net.coarity

    @property
    def arity(self) -> int:
        return self.net.arity

    def __eq__(self, other) -> bool:
        return isinstance(other, NetClass) and self.code == other.code

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"NetClass({self.coarity},{self.arity};{len(self.net.deco)}v)"


def class_of(net: Network) -> NetClass:
    """The isomorphism class of a network: an element of the free PROP,
    its code computed at once and its representative on the first read."""
    cls = NetClass(net)
    cls.code  # the first read builds code and hash
    return cls


def phi(p: Perm) -> NetClass:
    """The free PROP element of a permutation: its wires crossing."""
    return class_of(perm_network(p))


def identity(n: int) -> NetClass:
    """The identity of n wires, the PROP's unit for composition."""
    return phi(same(n))


def generator(sym) -> NetClass:
    """The free PROP element of one generator: a single decorated vertex."""
    return class_of(generator_network(sym))


# ---------------------------------------------------------------------------
# PROP operations on classes
# ---------------------------------------------------------------------------


def compose(a: NetClass, b: NetClass) -> NetClass:
    """Glue: outputs of b feed the inputs of a; the symmetric join
    a join^0_n b with n = a.arity = b.coarity."""
    if a.arity != b.coarity:
        raise ShapeError(f"compose: arity {a.arity} != coarity {b.coarity}")
    return sym_join(a, 0, b.coarity, b)


def tensor(a: NetClass, b: NetClass) -> NetClass:
    """Juxtapose: b's legs are shifted after a's; the symmetric join
    a join^0_0 b."""
    return sym_join(a, 0, 0, b)


# ---------------------------------------------------------------------------
# Symmetric join
# ---------------------------------------------------------------------------


def join_condition(tr_a: BoolMat, tr_b: BoolMat, r: int, q: int) -> BoolMat:
    """The boolean product a22*b22 whose nilpotence makes the join defined.
    The shapes must admit the join: ``sym_join`` checks them first, and a
    context that annexes a rule's type has them by construction."""
    k = tr_a.rows - r
    l = tr_a.cols - q
    a22 = tr_a.submatrix(range(k, k + r), range(l, l + q))
    b22 = tr_b.submatrix(range(0, q), range(0, r))
    return a22.mul(b22)


def join_transference(tr_a: BoolMat, tr_b: BoolMat, r: int, q: int) -> BoolMat:
    """The block formula for Tr(a join^r_q b)."""
    k = tr_a.rows - r
    l = tr_a.cols - q
    m = tr_b.rows - q
    n = tr_b.cols - r
    a11, a12, a21, a22 = bm_blocks(tr_a, k, l)
    b22, b23, b32, b33 = bm_blocks(tr_b, q, r)
    ab_star = a22.mul(b22).star()
    c11 = a11.add(a12.mul(b22).mul(ab_star).mul(a21))
    if not (m or n):  # b is annexed: the other blocks are empty
        return c11
    ba_star = b22.mul(a22).star()
    c13 = a12.mul(ba_star).mul(b23)
    c31 = b32.mul(ab_star).mul(a21)
    c33 = b33.add(b32.mul(a22).mul(ba_star).mul(b23))
    return bm_stack(c11, c13, c31, c33)


def _join_network(ka: Network, hb: Network, r: int, q: int) -> Network:
    """The symmetric join network, with no neutral vertex: each edge whose
    tail is an inner vertex or a kept input of ka or hb follows its chain
    through the joined ports to its real head.  Edge e of ka becomes 2e and
    edge e of hb becomes 2e + 1, and likewise for inner vertices."""
    k = ka.coarity - r
    l = ka.arity - q
    deco = {2 * v: sym for v, sym in ka.deco.items()}
    deco.update((2 * v + 1, sym) for v, sym in hb.deco.items())

    def head(ends: Edge, in_a: bool) -> tuple[int, int]:
        # a joined output of one operand is a joined input of the other;
        # nilpotence of the join condition bounds the chain
        while ends.head == 0:
            if in_a:
                if ends.hindex <= k:
                    return 0, ends.hindex
                ends = hb.edges[hb.out_edge(1, ends.hindex - k)]
            else:
                if ends.hindex > q:
                    return 0, k + ends.hindex - q
                ends = ka.edges[ka.out_edge(1, l + ends.hindex)]
            in_a = not in_a
        return 2 * ends.head + (0 if in_a else 1), ends.hindex

    edges: dict[int, Edge] = {}
    for e, ends in ka.edges.items():
        if ends.tail != 1:
            edges[2 * e] = Edge(*head(ends, True), 2 * ends.tail, ends.tindex)
        elif ends.tindex <= l:
            edges[2 * e] = Edge(*head(ends, True), 1, ends.tindex)
    for e, ends in hb.edges.items():
        if ends.tail != 1:
            edges[2 * e + 1] = Edge(*head(ends, False), 2 * ends.tail + 1, ends.tindex)
        elif ends.tindex > r:
            edges[2 * e + 1] = Edge(*head(ends, False), 1, l + ends.tindex - r)
    return Network(edges, deco)


def _require_join_shape(a: NetClass | LinComb, r: int, q: int, b: NetClass | LinComb) -> None:
    if r < 0 or q < 0:
        raise ShapeError("join: r and q must be nonnegative")
    if a.coarity < r or a.arity < q or b.coarity < q or b.arity < r:
        raise ShapeError("join: operands too small for the given r, q")


def sym_join(a: NetClass, r: int, q: int, b: NetClass) -> NetClass:
    """The symmetric join a join^r_q b on classes.

    The last r outputs of a are connected to the first r inputs of b and
    the first q outputs of b to the last q inputs of a.
    """
    _require_join_shape(a, r, q, b)
    if r and q:  # a cycle through the joined ports needs ports joined both ways
        cond = join_condition(a.tr, b.tr, r, q)
        if not cond.is_nilpotent():
            plus = cond.plus()
            bad = [i + 1 for i in range(plus.rows) if plus.get(i, i)]
            raise JoinUndefinedError(f"cycle through joined ports {bad}")
    return class_of(_join_network(a.net, b.net, r, q))


def annex(a: NetClass, b: NetClass) -> NetClass:
    """Right annexation: b is fully engulfed by a."""
    return sym_join(a, b.arity, b.coarity, b)


def free_feedback(a: NetClass, n: int) -> NetClass:
    """Connect the last n outputs back to the last n inputs."""
    return sym_join(a, n, n, phi(same(n)))


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class LinComb:
    """A finite formal sum of NetClass with exact rational coefficients."""

    __slots__ = ("coarity", "arity", "terms")

    def __init__(self, coarity: int, arity: int, terms: Mapping[NetClass, Fraction] | None = None):
        self.coarity = coarity
        self.arity = arity
        clean: dict[NetClass, Fraction] = {}
        for t, c in (terms or {}).items():
            if (t.coarity, t.arity) != (coarity, arity):
                raise ShapeError("term shape differs from combination shape")
            c = _as_fraction(c)
            if c != 0:
                clean[t] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def monomial(t: NetClass, coeff=1) -> "LinComb":
        return LinComb(t.coarity, t.arity, {t: _as_fraction(coeff)})

    @staticmethod
    def zero(coarity: int, arity: int) -> "LinComb":
        return LinComb(coarity, arity, {})

    @staticmethod
    def _unchecked(coarity: int, arity: int, terms: dict[NetClass, Fraction]) -> "LinComb":
        """A combination that takes ``terms`` as its own, unchecked: the
        caller vouches for their shapes and nonzero Fraction coefficients."""
        x = LinComb.__new__(LinComb)
        x.coarity, x.arity, x.terms = coarity, arity, terms
        return x

    @staticmethod
    def sum_of(
        coarity: int, arity: int, summands: Iterable[tuple[NetClass, Fraction]]
    ) -> "LinComb":
        """The sum of ``(class, coefficient)`` summands, merged in one pass;
        terms that cancel are dropped.  The caller vouches for their shapes
        and Fraction coefficients."""
        terms: dict[NetClass, Fraction] = {}
        for t, c in summands:
            if t in terms:
                terms[t] += c
            else:
                terms[t] = c
        if not all(terms.values()):
            terms = {t: c for t, c in terms.items() if c}
        return LinComb._unchecked(coarity, arity, terms)

    # -- structure -----------------------------------------------------------

    def items(self) -> list[tuple[NetClass, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].code)

    def monomials(self) -> list[NetClass]:
        return [t for t, _ in self.items()]

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinComb)
            and (self.coarity, self.arity) == (other.coarity, other.arity)
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.coarity, self.arity, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"LinComb(0; {self.coarity},{self.arity})"
        return "LinComb(" + " + ".join(f"{c}*{t!r}" for t, c in self.items()) + ")"

    # -- module operations ----------------------------------------------------

    def _require_shape(self, other: "LinComb") -> None:
        if (self.coarity, self.arity) != (other.coarity, other.arity):
            raise ShapeError("shape mismatch in linear combination arithmetic")

    def __add__(self, other: "LinComb") -> "LinComb":
        self._require_shape(other)
        terms = dict(self.terms)
        for t, c in other.terms.items():
            terms[t] = terms.get(t, Fraction(0)) + c
        return LinComb(self.coarity, self.arity, terms)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return LinComb(self.coarity, self.arity, {t: -c for t, c in self.terms.items()})

    def scale(self, r) -> "LinComb":
        r = _as_fraction(r)
        return LinComb(self.coarity, self.arity, {t: r * c for t, c in self.terms.items()})


def _summands(x: NetClass | LinComb) -> list[tuple[NetClass, Fraction]]:
    """x's terms by code; a lone class is its own term, with no dict to
    hash it, so a deferred one stays uncanonicalized."""
    return [(x, Fraction(1))] if isinstance(x, NetClass) else x.items()


def lc_sym_join(a: NetClass | LinComb, r: int, q: int, b: NetClass | LinComb) -> LinComb:
    """Bilinear symmetric join; undefined when any monomial pair fails the
    nilpotence condition, with ``sym_join``'s error, which names the ports
    that close the cycle."""
    # checked once for the operands, so a zero combination is checked too
    _require_join_shape(a, r, q, b)
    terms: dict[NetClass, Fraction] = {}
    for s, cs in _summands(a):
        for t, ct in _summands(b):
            st = sym_join(s, r, q, t)
            terms[st] = terms.get(st, 0) + cs * ct
    return LinComb(a.coarity - r + b.coarity - q, a.arity - q + b.arity - r, terms)


def lc_annex(a: NetClass | LinComb, b: NetClass | LinComb) -> LinComb:
    """Annexation extended bilinearly: b fully engulfed by the context a."""
    return lc_sym_join(a, b.arity, b.coarity, b)
