"""Built-in target PROPs: matrices over N, Q, and the boolean semiring,
the biaffine PROP over N, and the connectivity PROP, together with the
matrix formal feedback."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .core import BoolMat, Perm, UnionFind


class TargetValueError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Plain matrices over a semiring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mat:
    rows: int
    cols: int
    entries: tuple[tuple, ...]

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "Mat":
        data = tuple(tuple(row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if data else (cols or 0)
        if any(len(r) != ncols for r in data):
            raise TargetValueError("ragged matrix rows")
        return Mat(nrows, ncols, data)

    def get(self, i: int, j: int):
        return self.entries[i][j]

    def __str__(self) -> str:
        if not self.rows or not self.cols:
            return f"[]({self.rows}x{self.cols})"
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def _mat_blocks(a: Mat, row_split: int, col_split: int) -> tuple[Mat, Mat, Mat, Mat]:
    def sub(rs, cs):
        return Mat(
            len(rs), len(cs), tuple(tuple(a.entries[i][j] for j in cs) for i in rs)
        )

    r0, r1 = range(0, row_split), range(row_split, a.rows)
    c0, c1 = range(0, col_split), range(col_split, a.cols)
    return sub(r0, c0), sub(r0, c1), sub(r1, c0), sub(r1, c1)


class MatrixTarget:
    """Matrices of any sides over N or Q, as ``naturals`` says: the two
    compute alike, and differ only in the entries an assignment may give.

    The tensor is the direct sum (block diagonal), so that an element with
    m outputs and n inputs stays an m x n matrix.  It is not bilinear:
    values of single monomials are meaningful, but the value of a linear
    combination is not preserved by a reduction step whose context has a
    wire beside the redex, so these targets are no model of a rule
    system's combinations."""

    def __init__(self, name: str, naturals: bool):
        self.name = name
        self.naturals = naturals

    def dims(self, a: Mat) -> tuple[int, int]:
        return (a.rows, a.cols)

    def compose(self, a: Mat, b: Mat) -> Mat:
        if a.cols != b.rows:
            raise TargetValueError("matrix product shape mismatch")
        columns = [[row[j] for row in b.entries] for j in range(b.cols)]
        return Mat.from_rows(
            [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a.entries],
            cols=b.cols,
        )

    def tensor(self, a: Mat, b: Mat) -> Mat:
        out = []
        for i in range(a.rows):
            out.append(list(a.entries[i]) + [0] * b.cols)
        for i in range(b.rows):
            out.append([0] * a.cols + list(b.entries[i]))
        return Mat.from_rows(out, cols=a.cols + b.cols)

    def phi(self, p: Perm) -> Mat:
        out = [[0] * p.n for _ in range(p.n)]
        for j in range(1, p.n + 1):
            out[p(j) - 1][j - 1] = 1
        return Mat.from_rows(out)

    def identity(self, n: int) -> Mat:
        return self.phi(Perm(tuple(range(1, n + 1))))

    def from_rows(self, rows, cols: int) -> Mat:
        return Mat.from_rows(rows, cols)


NAT_MATRIX = MatrixTarget("nat-matrix", naturals=True)
RAT_MATRIX = MatrixTarget("rat-matrix", naturals=False)


class BoolMatrixTarget:
    """The boolean matrix PROP; elements are :class:`core.BoolMat`."""

    name = "bool-matrix"
    naturals = False

    def dims(self, a: BoolMat) -> tuple[int, int]:
        return (a.rows, a.cols)

    def compose(self, a: BoolMat, b: BoolMat) -> BoolMat:
        return a.mul(b)

    def tensor(self, a: BoolMat, b: BoolMat) -> BoolMat:
        return a.tensor(b)

    def phi(self, p: Perm) -> BoolMat:
        return BoolMat.from_perm(p)

    def from_rows(self, rows, cols: int) -> BoolMat:
        return BoolMat.from_rows(rows, cols)


BOOL_MATRIX = BoolMatrixTarget()


# ---------------------------------------------------------------------------
# Biaffine PROP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaffElem:
    """An element of the biaffine PROP over N, stored as its full padded
    matrix.  The matrix part, vector part, covector part, and scalar part
    are views into that matrix."""

    full: Mat

    def __post_init__(self) -> None:
        f = self.full
        if f.rows < 2 or f.cols < 2:
            raise TargetValueError("biaffine matrix must be at least 2x2")
        if not all(isinstance(x, int) and x >= 0 for row in f.entries for x in row):
            raise TargetValueError("biaffine entries must be non-negative ints")
        if f.get(0, 0) != 1 or f.get(1, 1) != 1:
            raise TargetValueError("biaffine pattern: corner entries must be 1")
        for i in range(1, f.rows):
            if f.get(i, 0) != 0:
                raise TargetValueError("biaffine pattern: column 1 not zero below row 1")
        for j in range(f.cols):
            if j != 1 and f.get(1, j) != 0:
                raise TargetValueError("biaffine pattern: row 2 not zero off column 2")

    @property
    def coarity(self) -> int:
        return self.full.rows - 2

    @property
    def arity(self) -> int:
        return self.full.cols - 2

    @property
    def matrix_part(self) -> Mat:
        return Mat.from_rows([row[2:] for row in self.full.entries[2:]])

    @property
    def vector_part(self) -> tuple:
        return tuple(row[1] for row in self.full.entries[2:])

    @property
    def covector_part(self) -> tuple:
        return tuple(self.full.entries[0][2:])

    @property
    def scalar_part(self):
        return self.full.get(0, 1)

    def __str__(self) -> str:
        return str(self.full)


class BaffTarget:
    """The biaffine PROP over N: compose is plain matrix product of the
    padded matrices, tensor adds the scalar parts and block-sums the rest."""

    name = "baff-nat"
    naturals = True

    def dims(self, a: BaffElem) -> tuple[int, int]:
        return (a.coarity, a.arity)

    def compose(self, a: BaffElem, b: BaffElem) -> BaffElem:
        return BaffElem(NAT_MATRIX.compose(a.full, b.full))

    def tensor(self, a: BaffElem, b: BaffElem) -> BaffElem:
        m1, n1 = a.coarity, a.arity
        m2, n2 = b.coarity, b.arity
        rows = []
        top = [1, a.scalar_part + b.scalar_part]
        top += list(a.covector_part) + list(b.covector_part)
        rows.append(top)
        rows.append([0, 1] + [0] * (n1 + n2))
        av, bm = a.vector_part, a.matrix_part
        for i in range(m1):
            rows.append([0, av[i]] + list(bm.entries[i]) + [0] * n2)
        bv, bmat = b.vector_part, b.matrix_part
        for i in range(m2):
            rows.append([0, bv[i]] + [0] * n1 + list(bmat.entries[i]))
        return BaffElem(Mat.from_rows(rows))

    def phi(self, p: Perm) -> BaffElem:
        full = NAT_MATRIX.tensor(NAT_MATRIX.identity(2), NAT_MATRIX.phi(p))
        return BaffElem(full)

    def identity(self, n: int) -> BaffElem:
        return BaffElem(NAT_MATRIX.identity(n + 2))

    def from_rows(self, rows, cols: int) -> BaffElem:
        return BaffElem(Mat.from_rows(rows, cols))

    def leq(self, a: BaffElem, b: BaffElem) -> bool:
        """The entrywise order on the full matrices."""
        return self.dims(a) == self.dims(b) and all(
            x <= y
            for row_a, row_b in zip(a.full.entries, b.full.entries)
            for x, y in zip(row_a, row_b)
        )


BAFF_NAT = BaffTarget()


# ---------------------------------------------------------------------------
# Connectivity PROP
# ---------------------------------------------------------------------------


Label = tuple[int, int]  # (0, i) for output i, (1, j) for input j; 1-based


@dataclass(frozen=True)
class ConnElem:
    """A partition of the output/input labels plus a cycle count."""

    coarity: int
    arity: int
    blocks: frozenset[frozenset[Label]]
    cyc: int

    def __post_init__(self) -> None:
        want = {(0, i) for i in range(1, self.coarity + 1)} | {
            (1, j) for j in range(1, self.arity + 1)
        }
        seen: set[Label] = set()
        for block in self.blocks:
            if not block:
                raise TargetValueError("empty block in connectivity element")
            if block & seen:
                raise TargetValueError("overlapping blocks")
            seen |= block
        if seen != want:
            raise TargetValueError("blocks do not partition the label set")
        if self.cyc < 0:
            raise TargetValueError("negative cycle count")

    def __str__(self) -> str:
        """Shape, blocks and cycle count, as in ``1x2 {o1 i1 i2} cyc 0``:
        output k prints as ``ok`` and input k as ``ik``, outputs first,
        each block and the blocks in ascending order."""
        blocks = sorted(sorted(block) for block in self.blocks)
        words = ["{" + " ".join(f"{'oi'[side]}{k}" for side, k in block) + "}" for block in blocks]
        return " ".join([f"{self.coarity}x{self.arity}", *words, f"cyc {self.cyc}"])


class ConnectivityTarget:
    """Pairs (partition of legs, cyclomatic count)."""

    name = "connectivity"

    def dims(self, a: ConnElem) -> tuple[int, int]:
        return (a.coarity, a.arity)

    def compose(self, a: ConnElem, b: ConnElem) -> ConnElem:
        if a.arity != b.coarity:
            raise TargetValueError("connectivity compose shape mismatch")
        l, m, n = a.coarity, a.arity, b.arity
        # working labels: (0,i) outputs, (2,k) interface, (1,j) inputs
        uf = UnionFind(
            [(0, i) for i in range(1, l + 1)]
            + [(2, k) for k in range(1, m + 1)]
            + [(1, j) for j in range(1, n + 1)]
        )
        for block in a.blocks:
            items = [((0, i) if s == 0 else (2, i)) for s, i in block]
            for x in items[1:]:
                uf.union(items[0], x)
        for block in b.blocks:
            items = [((2, i) if s == 0 else (1, i)) for s, i in block]
            for x in items[1:]:
                uf.union(items[0], x)
        merged = uf.classes()
        cyc = a.cyc + m + len(merged) - len(a.blocks) - len(b.blocks) + b.cyc
        outer = []
        for block in merged:
            keep = frozenset(x for x in block if x[0] != 2)
            if keep:
                outer.append(keep)
        return ConnElem(l, n, frozenset(outer), cyc)

    def tensor(self, a: ConnElem, b: ConnElem) -> ConnElem:
        shifted = frozenset(
            frozenset((s, i + (a.coarity if s == 0 else a.arity)) for s, i in block)
            for block in b.blocks
        )
        return ConnElem(
            a.coarity + b.coarity, a.arity + b.arity, a.blocks | shifted, a.cyc + b.cyc
        )

    def phi(self, p: Perm) -> ConnElem:
        blocks = frozenset(
            frozenset({(0, p(j)), (1, j)}) for j in range(1, p.n + 1)
        )
        return ConnElem(p.n, p.n, blocks, 0)

    def identity(self, n: int) -> ConnElem:
        return self.phi(Perm(tuple(range(1, n + 1))))

    def leq(self, a: ConnElem, b: ConnElem) -> bool:
        """(B1,c1) <= (B2,c2): c1 <= c2 and B1 refines B2."""
        if (a.coarity, a.arity) != (b.coarity, b.arity):
            return False
        if a.cyc > b.cyc:
            return False
        for block in a.blocks:
            if not any(block <= other for other in b.blocks):
                return False
        return True


CONNECTIVITY = ConnectivityTarget()


# ---------------------------------------------------------------------------
# Matrix formal feedback
# ---------------------------------------------------------------------------


class PatternNotNilpotentError(ValueError):
    pass


class PatternViolatedError(ValueError):
    pass


def _mat_pattern(a: Mat) -> BoolMat:
    return BoolMat.from_rows([[1 if x else 0 for x in row] for row in a.entries])


def _mat_sum(a: Mat, b: Mat) -> Mat:
    return Mat(
        a.rows,
        a.cols,
        tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)),
    )


def matrix_feedback(a, n: int, pattern: BoolMat | None = None):
    """Formal feedback: connect the last n outputs back to the last n
    inputs of a matrix (or biaffine) element.

    The bottom-right n x n block must have a nilpotent zero/nonzero
    pattern bounded by ``pattern`` (which defaults to the block's own
    pattern); its Kleene star is then the finite Neumann sum.
    """
    if isinstance(a, BaffElem):
        return BaffElem(matrix_feedback(a.full, n, pattern))
    if n == 0:
        return a
    if a.rows < n or a.cols < n:
        raise TargetValueError("feedback size exceeds element shape")
    a11, a12, a21, a22 = _mat_blocks(a, a.rows - n, a.cols - n)
    pat22 = _mat_pattern(a22)
    if pattern is None:
        pattern = pat22
    if not pattern.is_square() or pattern.rows != n:
        raise TargetValueError("pattern shape mismatch")
    if not pattern.is_nilpotent():
        raise PatternNotNilpotentError("feedback pattern is not nilpotent")
    if not pat22.leq(pattern):
        raise PatternViolatedError("block exceeds the declared pattern")
    # finite Neumann sum: I + A22 + A22^2 + ... (terminates by nilpotence)
    t = NAT_MATRIX
    star = power = t.identity(n)
    for _ in range(n):
        power = t.compose(power, a22)
        star = _mat_sum(star, power)
    return _mat_sum(a11, t.compose(t.compose(a12, star), a21))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


TARGETS = {
    "nat-matrix": NAT_MATRIX,
    "rat-matrix": RAT_MATRIX,
    "bool-matrix": BOOL_MATRIX,
    "baff-nat": BAFF_NAT,
    "connectivity": CONNECTIVITY,
}


def get_target(name: str):
    try:
        return TARGETS[name]
    except KeyError:
        raise TargetValueError(
            f"unknown target {name!r}; known: {', '.join(sorted(TARGETS))}"
        ) from None


def parse_assignment(text: str, sig, target):
    """Parse a generator-assignment file.

    One ``map <symbol> = <rows>`` line per generator; rows are separated
    by ``;`` and entries by whitespace.  For the biaffine target the full
    padded (m+2) x (n+2) matrix is given.  Entries are natural numbers for
    the nat and biaffine targets, may be fractions ``p/q`` for the
    rational target, and are read nonzero as 1 by the boolean one.
    An empty body gives the m x 0 or 0 x n matrix of a generator with no
    inputs or no outputs.
    """
    is_baff = isinstance(target, BaffTarget)
    is_conn = isinstance(target, ConnectivityTarget)
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("map "):
            raise TargetValueError(f"line {lineno}: expected 'map <symbol> = <rows>'")
        head, _, body = line[4:].partition("=")
        name = head.strip()
        if name not in sig:
            raise TargetValueError(f"line {lineno}: unknown symbol {name!r}")
        if name in out:
            raise TargetValueError(f"line {lineno}: duplicate map for {name!r}")
        sym = sig[name]
        if is_conn:
            raise TargetValueError("connectivity target needs no assignment file")
        rows = sym.coarity + (2 if is_baff else 0)
        cols = sym.arity + (2 if is_baff else 0)
        data = []
        for chunk in body.split(";"):
            entries = chunk.split()
            if entries:
                row = []
                for x in entries:
                    try:
                        row.append(Fraction(x) if "/" in x else int(x))
                    except ZeroDivisionError:
                        raise TargetValueError(f"line {lineno}: zero denominator") from None
                    except ValueError:
                        raise TargetValueError(f"line {lineno}: malformed entry {x!r}") from None
                if target.naturals:
                    if any(x < 0 or x.denominator != 1 for x in row):
                        raise TargetValueError(
                            f"line {lineno}: {name!r} needs natural-number entries"
                        )
                    row = [int(x) for x in row]
                data.append(row)
        if not data and not rows * cols:
            data = [[] for _ in range(rows)]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise TargetValueError(
                f"line {lineno}: {name!r} needs a {rows}x{cols} matrix"
            )
        out[name] = target.from_rows(data, cols)
    missing = [s.name for s in sig if s.name not in out and not is_conn]
    if missing:
        raise TargetValueError(f"no assignment for symbols: {', '.join(missing)}")
    return out


def connectivity_assignment(sig):
    """Each generator's legs in a single block, with no cycles: the
    assignment the connectivity order is pulled back over."""
    out = {}
    for sym in sig:
        labels = {(0, i) for i in range(1, sym.coarity + 1)} | {
            (1, j) for j in range(1, sym.arity + 1)
        }
        blocks = frozenset({frozenset(labels)}) if labels else frozenset()
        out[sym.name] = ConnElem(sym.coarity, sym.arity, blocks, 0)
    return out
