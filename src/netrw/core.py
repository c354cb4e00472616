"""Signatures, permutations, and the boolean matrix calculus.

Everything in this module is a small immutable value; the boolean
matrices are the workhorse for cycle prevention (nilpotence tests,
Kleene star/plus) and for the transference types of rewrite rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class SignatureError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Symbol:
    """A generator with a name, a number of outputs and a number of inputs.

    Symbols order by (name, coarity, arity), so a canonical code can hold
    them as they are."""

    name: str
    coarity: int
    arity: int

    def __post_init__(self) -> None:
        if not self.name:
            raise SignatureError("symbol name must be nonempty")
        if self.coarity < 0 or self.arity < 0:
            raise SignatureError(f"negative arity for symbol {self.name!r}")

    def __repr__(self) -> str:
        return f"Symbol({self.name!r}, {self.coarity}, {self.arity})"


class Signature:
    """A finite set of symbols, addressable by name."""

    def __init__(self, symbols: Iterable[Symbol] = ()):
        self._by_name: dict[str, Symbol] = {}
        for sym in symbols:
            self.declare(sym)

    def declare(self, sym: Symbol) -> Symbol:
        """Add a symbol whose name a term can write: a letter, then letters
        and digits, as the term scanner reads names."""
        if not (sym.name[:1].isalpha() and sym.name.isalnum()):
            raise SignatureError(f"symbol name {sym.name!r} is not a letter then letters and digits")
        if sym.name in self._by_name:
            raise SignatureError(f"duplicate symbol {sym.name!r}")
        self._by_name[sym.name] = sym
        return sym

    def __getitem__(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise SignatureError(f"unknown symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)


def parse_signature(text: str) -> Signature:
    """Parse the signature text format: one ``gen <name> <coarity> <arity>``
    declaration per line, ``#`` comments, blank lines ignored."""
    sig = Signature()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "gen" or len(parts) != 4:
            raise SignatureError(f"line {lineno}: expected 'gen <name> <coarity> <arity>'")
        name = parts[1]
        try:
            coarity, arity = int(parts[2]), int(parts[3])
        except ValueError:
            raise SignatureError(f"line {lineno}: arities must be integers") from None
        try:
            sig.declare(Symbol(name, coarity, arity))
        except SignatureError as exc:
            raise SignatureError(f"line {lineno}: {exc}") from None
    return sig


# ---------------------------------------------------------------------------
# Equivalence classes
# ---------------------------------------------------------------------------


class UnionFind:
    """Disjoint sets over a fixed universe, kept as parent links only."""

    __slots__ = ("parent",)

    def __init__(self, items: Iterable = ()):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        """Merge the classes of a and b; return the root of the result."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
        return rb

    def classes(self) -> list[list]:
        """The classes, in universe order of their first member, each
        listing its members in universe order."""
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n}, stored by its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Perm") -> "Perm":
        """Function composition: (self o other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch in permutation composition")
        return Perm(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def star(self, other: "Perm") -> "Perm":
        """Juxtaposition product on blocks of sizes self.n and other.n."""
        m = self.n
        return Perm(self.images + tuple(v + m for v in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, v in enumerate(self.images, 1):
            inv[v - 1] = i
        return Perm(tuple(inv))

    def __repr__(self) -> str:
        return f"Perm{self.images}"


def same(n: int) -> Perm:
    """The identity permutation of n things."""
    return Perm(tuple(range(1, n + 1)))


def cross(k: int, m: int) -> Perm:
    """Exchange a left block of k things with a right block of m things."""
    return Perm(tuple(i + m if i <= k else i - k for i in range(1, k + m + 1)))


# ---------------------------------------------------------------------------
# Boolean matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoolMat:
    """A dense boolean matrix; each row is stored as a bitmask."""

    rows: int
    cols: int
    bits: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.bits) != self.rows:
            raise ValueError("row count does not match bits")
        mask = (1 << self.cols) - 1
        for r in self.bits:
            if r & ~mask:
                raise ValueError("bits outside matrix columns")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _unchecked(rows: int, cols: int, bits: tuple[int, ...]) -> "BoolMat":
        """A matrix from arguments that are valid by construction, without
        the checks of ``__post_init__``; for results of the operations."""
        mat = object.__new__(BoolMat)
        object.__setattr__(mat, "rows", rows)
        object.__setattr__(mat, "cols", cols)
        object.__setattr__(mat, "bits", bits)
        return mat

    @staticmethod
    def zeros(rows: int, cols: int) -> "BoolMat":
        return BoolMat(rows, cols, (0,) * rows)

    @staticmethod
    def ones(rows: int, cols: int) -> "BoolMat":
        return BoolMat(rows, cols, ((1 << cols) - 1,) * rows)

    @staticmethod
    def eye(n: int) -> "BoolMat":
        return BoolMat(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]], cols: int | None = None) -> "BoolMat":
        """The matrix with these rows, any nonzero entry read as 1; cols
        gives the width of a matrix with no rows."""
        data = [tuple(1 if x else 0 for x in row) for row in rows]
        nrows = len(data)
        ncols = len(data[0]) if data else (cols or 0)
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        bits = tuple(sum(b << j for j, b in enumerate(row)) for row in data)
        return BoolMat(nrows, ncols, bits)

    @staticmethod
    def from_perm(p: Perm) -> "BoolMat":
        """Permutation matrix: entry (i,j) = 1 iff i = p(j)."""
        bits = [0] * p.n
        for j in range(1, p.n + 1):
            bits[p(j) - 1] |= 1 << (j - 1)
        return BoolMat(p.n, p.n, tuple(bits))

    # -- access ------------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        """Entry at 0-based position (i, j)."""
        return (self.bits[i] >> j) & 1

    def set(self, i: int, j: int, value: int) -> "BoolMat":
        row = self.bits[i] | (1 << j) if value else self.bits[i] & ~(1 << j)
        return BoolMat(self.rows, self.cols, self.bits[:i] + (row,) + self.bits[i + 1 :])

    def to_rows(self) -> list[list[int]]:
        return [[self.get(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def __str__(self) -> str:
        if not self.rows or not self.cols:
            return f"[]({self.rows}x{self.cols})"
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.to_rows()) + "]"

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "BoolMat") -> "BoolMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in boolean matrix addition")
        bits = tuple(a | b for a, b in zip(self.bits, other.bits))
        return BoolMat._unchecked(self.rows, self.cols, bits)

    def mul(self, other: "BoolMat") -> "BoolMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in boolean matrix product")
        out = []
        for r in self.bits:
            acc = 0
            rr = r
            while rr:
                k = (rr & -rr).bit_length() - 1
                acc |= other.bits[k]
                rr &= rr - 1
            out.append(acc)
        return BoolMat._unchecked(self.rows, other.cols, tuple(out))

    def tensor(self, other: "BoolMat") -> "BoolMat":
        """Direct sum (diagonal blocks)."""
        top = tuple(r for r in self.bits)
        bot = tuple(r << self.cols for r in other.bits)
        return BoolMat._unchecked(self.rows + other.rows, self.cols + other.cols, top + bot)

    def submatrix(self, rows: range, cols: range) -> "BoolMat":
        """The entries in the given rows and in the contiguous columns cols."""
        if cols.step != 1:
            raise ValueError("submatrix columns must be contiguous")
        mask = (1 << len(cols)) - 1
        bits = tuple((self.bits[i] >> cols.start) & mask for i in rows)
        return BoolMat._unchecked(len(rows), len(cols), bits)

    def leq(self, other: "BoolMat") -> bool:
        """Entrywise comparison; shapes must agree."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in boolean matrix comparison")
        return all(a | b == b for a, b in zip(self.bits, other.bits))

    def is_zero(self) -> bool:
        return not any(self.bits)

    def is_ones(self) -> bool:
        full = (1 << self.cols) - 1
        return all(r == full for r in self.bits)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- closures ------------------------------------------------------------

    def star(self) -> "BoolMat":
        """Reflexive-transitive closure, by repeated squaring of I + A."""
        if not self.is_square():
            raise ValueError("Kleene star of a non-square matrix")
        cur = self.add(BoolMat.eye(self.rows))
        while True:
            nxt = cur.mul(cur)
            if nxt == cur:
                return cur
            cur = nxt

    def plus(self) -> "BoolMat":
        """Transitive closure: A+ = A * Astar."""
        if not self.is_square():
            raise ValueError("Kleene plus of a non-square matrix")
        return self.mul(self.star())

    def is_nilpotent(self) -> bool:
        """True iff some power is zero, that is, iff the graph with an arc
        i -> j at each entry (i, j) has no cycle: rows with no entry among
        the rows left are peeled off until none are left (Kahn's
        algorithm) or none can be."""
        if not self.is_square():
            raise ValueError("nilpotence of a non-square matrix")
        left = (1 << self.rows) - 1
        while left:
            peeled = 0
            for i, row in enumerate(self.bits):
                if (left >> i) & 1 and not row & left:
                    peeled |= 1 << i
            if not peeled:
                return False
            left ^= peeled
        return True


def bm_blocks(mat: BoolMat, row_split: int, col_split: int) -> tuple[BoolMat, BoolMat, BoolMat, BoolMat]:
    """Split into [[a11, a12], [a21, a22]] at the given 0-based offsets."""
    r0, r1 = range(0, row_split), range(row_split, mat.rows)
    c0, c1 = range(0, col_split), range(col_split, mat.cols)
    return (
        mat.submatrix(r0, c0),
        mat.submatrix(r0, c1),
        mat.submatrix(r1, c0),
        mat.submatrix(r1, c1),
    )


def bm_stack(a11: BoolMat, a12: BoolMat, a21: BoolMat, a22: BoolMat) -> BoolMat:
    """Assemble a block matrix [[a11, a12], [a21, a22]]."""
    if a11.rows != a12.rows or a21.rows != a22.rows:
        raise ValueError("row mismatch in block assembly")
    if a11.cols != a21.cols or a12.cols != a22.cols:
        raise ValueError("column mismatch in block assembly")
    top = tuple(a | (b << a11.cols) for a, b in zip(a11.bits, a12.bits))
    bot = tuple(a | (b << a21.cols) for a, b in zip(a21.bits, a22.bits))
    return BoolMat._unchecked(a11.rows + a21.rows, a11.cols + a12.cols, top + bot)
