"""Exact integer linear algebra.

Everything in this module is exact: integer matrices with arbitrary-precision
entries, Hermite and Smith normal forms with their unimodular witnesses,
saturated lattices in column Hermite normal form, and rational rank and
linear solving. cone_feasible, a membership test no library code calls, reads
its answer off the cone's double description pass in fans; it stays public
because the benchmark's tracer (perfbench/tracer.py) lists it. Rational
input is scaled to integers row by row (`clear_denominators`); elimination
then runs in integer arithmetic only, by cross-multiplication with row gcds
divided out. Rationals appear only in that scaling and in the solution
vectors `solve_rational` returns. No floating point is used anywhere.

IntMatrix.from_rows and from_columns check the shape and the integrality of
outside data; the matrices derived here from checked ones are built from
their int tuples unchecked. One column Hermite elimination serves both
hermite_normal_form, which stacks the witness under the columns, and
hermite_basis and lattice_index, which need no witness. The Smith witnesses
of a saturated basis are memoized by the basis together with the rows
quotient_reps multiplies by, which also give cell multiplicities their
coordinates; no command forms an inverse, a completion or a determinant,
and int_inverse, hnf_completion and det stay only for the tracer.
IntMatrix is a named tuple: a value also equals the plain tuple of its
fields and iterates over them, which no code relies on. A lattice is the
IntMatrix of its generator columns; lattice_index takes any two.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from .errors import DimMismatchError, NotFullRankError, ZeroVectorError

Vec = tuple  # exact entries: ints, or rationals where a docstring says so


def dot(a, b):
    return sum(map(mul, a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def _int_vector(v) -> tuple:
    """The entries as a tuple of ints; a non-integral entry is an error, not
    something to truncate."""
    out = tuple(map(int, v))
    if out != tuple(v):
        raise ValueError("matrix entries must be integers")
    return out


class IntMatrix(namedtuple("IntMatrix", "nrows ncols entries")):
    """Immutable integer matrix, row-major storage with an explicit shape.

    The shape is stored separately so matrices with zero rows or zero columns
    (empty ray sets, empty equation sets) remain well formed.
    """

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows, ncols=None) -> "IntMatrix":
        rows = tuple(_int_vector(r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("row length mismatch")
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_columns(cls, cols, nrows=None) -> "IntMatrix":
        cols = [_int_vector(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("nrows required for a matrix with no columns")
            nrows = len(cols[0])
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column length mismatch")
        rows = tuple(zip(*cols)) if cols else ((),) * nrows
        return cls(nrows, len(cols), rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(nrows, ncols, tuple((0,) * ncols for _ in range(nrows)))

    def column(self, j) -> Vec:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list:
        if not self.nrows:
            return [()] * self.ncols
        return list(zip(*self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.ncols, self.nrows, tuple(self.columns()))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise DimMismatchError("matrix product shape mismatch")
        cols = other.columns()
        rows = tuple(tuple(dot(r, c) for c in cols) for r in self.entries)
        return IntMatrix(self.nrows, other.ncols, rows)

    def mul_vec(self, v: Vec) -> Vec:
        if len(v) != self.ncols:
            raise DimMismatchError("matrix-vector shape mismatch")
        return tuple(dot(r, v) for r in self.entries)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.entries)


def _from_int_columns(cols, nrows: int) -> IntMatrix:
    """The matrix with these columns, which are int tuples of length nrows
    already."""
    return IntMatrix(nrows, len(cols),
                     tuple(zip(*cols)) if cols else ((),) * nrows)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if m.nrows != m.ncols:
        raise DimMismatchError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def primitive_vector(v) -> Vec:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ZeroVectorError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _hermite_columns(cols, nrows: int) -> list:
    """Column Hermite elimination of the lists cols, pivoting on their first
    nrows entries; entries past those (a witness stacked under each column)
    undergo the same column operations. Returns the new columns."""
    nc = len(cols)
    c = 0
    for r in range(nrows):
        if c >= nc:
            break
        # gcd-chase the entries of row r across columns >= c
        while True:
            live = [j for j in range(c, nc) if cols[j][r]]
            if not live:
                break
            j0 = min(live, key=lambda j: abs(cols[j][r]))
            if j0 != c:
                cols[c], cols[j0] = cols[j0], cols[c]
            pcol = cols[c]
            p = pcol[r]
            done = True
            for j in range(c + 1, nc):
                if cols[j][r]:
                    q = cols[j][r] // p
                    col = cols[j] = [x - q * y for x, y in zip(cols[j], pcol)]
                    if col[r]:
                        done = False
            if done:
                break
        if cols[c][r]:
            if cols[c][r] < 0:
                cols[c] = [-x for x in cols[c]]
            pcol = cols[c]
            p = pcol[r]
            for j in range(c):
                q = cols[j][r] // p
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], pcol)]
            c += 1
    return cols


def hermite_normal_form(m: IntMatrix):
    """Column-style Hermite normal form.

    Returns (H, U) with H = M @ U, U unimodular, H in column echelon form:
    pivot rows strictly increase with the column index, pivots positive, and
    entries in a pivot row left of the pivot reduced into [0, pivot).
    """
    nr, nc = m.nrows, m.ncols
    # each column of M stacked on the matching column of the identity
    cols = _hermite_columns(
        [list(col) + [1 if i == j else 0 for i in range(nc)]
         for j, col in enumerate(m.columns())], nr)
    return (_from_int_columns([col[:nr] for col in cols], nr),
            _from_int_columns([col[nr:] for col in cols], nc))


def smith_normal_form(m: IntMatrix):
    """Smith normal form: returns (D, P, Q) with D = P @ M @ Q diagonal,
    P and Q unimodular, and nonnegative invariant factors d1 | d2 | ...
    """
    nr, nc = m.nrows, m.ncols
    a = [list(r) for r in m.entries]
    p = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    q = [[1 if i == j else 0 for i in range(nc)] for j in range(nc)]  # columns

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        q[i], q[j] = q[j], q[i]

    def row_op(i, j, f):  # row_i -= f * row_j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        p[i] = [x - f * y for x, y in zip(p[i], p[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        for row in a:
            row[i] -= f * row[j]
        q[i] = [x - f * y for x, y in zip(q[i], q[j])]

    def eliminate_from(t):
        while t < min(nr, nc):
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if a[i][j] != 0 and (best is None
                                         or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return
            swap_rows(t, best[0])
            swap_cols(t, best[1])
            while True:
                clean = True
                for i in range(t + 1, nr):
                    if a[i][t] != 0:
                        f = a[i][t] // a[t][t]
                        row_op(i, t, f)
                        if a[i][t] != 0:
                            swap_rows(t, i)
                            clean = False
                for j in range(t + 1, nc):
                    if a[t][j] != 0:
                        f = a[t][j] // a[t][t]
                        col_op(j, t, f)
                        if a[t][j] != 0:
                            swap_cols(t, j)
                            clean = False
                if clean and all(a[i][t] == 0 for i in range(t + 1, nr)):
                    break
            t += 1

    eliminate_from(0)
    # enforce the divisibility chain d_i | d_{i+1}
    while True:
        r = min(nr, nc)
        bad = None
        for i in range(r - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di != 0 and dj % di != 0:
                bad = i
                break
        if bad is None:
            break
        col_op(bad, bad + 1, -1)  # col_bad += col_{bad+1}
        eliminate_from(bad)
    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            p[i] = [-x for x in p[i]]
    return (IntMatrix(nr, nc, tuple(map(tuple, a))),
            IntMatrix(nr, nr, tuple(map(tuple, p))),
            _from_int_columns(q, nc))


def clear_denominators(row) -> list:
    """The row scaled by the least common multiple of its denominators.

    Entries may be ints or any exact rational (or its string form); the
    result is a list of ints, a positive multiple of the row.
    """
    if all(type(x) is int for x in row):
        return list(row)
    row = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _row_echelon(rows, reduced=False) -> list:
    """Row echelon form of integer rows, in place, in integer arithmetic.

    Eliminates by integer cross-multiplication and divides each new row by the
    gcd of its entries. Pivots are taken column by column in order, so the
    pivot columns are those of the rational echelon form. With `reduced`,
    entries above each pivot are cleared as well. Returns the pivot columns;
    the first `len(pivots)` rows are the pivot rows.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for j in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[j]
        for i in range(0 if reduced else r + 1, m):
            a = rows[i][j]
            if i == r or not a:
                continue
            new = [p * x - a * y for x, y in zip(rows[i], prow)]
            g = gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(j)
        r += 1
    return pivots


def rational_rank(rows) -> int:
    """Rank over Q of a list of vectors."""
    return len(_row_echelon([clear_denominators(r) for r in rows]))


def solve_rational(a_rows, b):
    """Solve A x = b exactly over Q.

    Returns one solution as a tuple of rationals (free variables set to 0) or
    None when the system is inconsistent.
    """
    m = len(a_rows)
    if len(b) != m:
        raise DimMismatchError("right-hand side length mismatch")
    n = len(a_rows[0]) if m else 0
    aug = [clear_denominators(list(row) + [b[i]])
           for i, row in enumerate(a_rows)]
    pivots = _row_echelon(aug, reduced=True)
    if pivots and pivots[-1] == n:  # a row 0 = b_i with b_i != 0
        return None
    x = [Fraction(0)] * n
    for row, j in zip(aug, pivots):
        x[j] = Fraction(row[n], row[j])
    return tuple(x)


def int_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix (exact, integer entries).

    The column Hermite normal form of a unimodular matrix is the identity, so
    its witness U with M U = H is the inverse.
    """
    if m.nrows != m.ncols:
        raise DimMismatchError("inverse of a non-square matrix")
    h, u = hermite_normal_form(m)
    if h.entries != IntMatrix.identity(m.nrows).entries:
        if any(all(x == 0 for x in col) for col in h.columns()):
            raise NotFullRankError("matrix is singular")
        raise NotFullRankError("matrix is not unimodular")
    return u


def _kernel_off_echelon(rows, pivots, ncols: int) -> list:
    """A basis over Q of the kernel of the first ncols columns of reduced
    echelon rows with these pivots, all among those columns: for each free
    column f, the primitive vector with x_f = L and x_p = -(row entry at f)
    L / pivot at each pivot column p, for L the lcm of the pivots."""
    scale = lcm(*(rows[r][j] for r, j in enumerate(pivots)))
    out = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        x = [0] * ncols
        x[f] = scale
        for r, j in enumerate(pivots):
            x[j] = -rows[r][f] * (scale // rows[r][j])
        out.append(primitive_vector(x))
    return out


def _echelon_kernel(m: IntMatrix) -> list:
    """A basis over Q, not of the lattice, of the kernel of m, read off one
    reduced integer echelon form (_kernel_off_echelon)."""
    rows = [list(r) for r in m.entries]
    return _kernel_off_echelon(rows, _row_echelon(rows, reduced=True), m.ncols)


def _kernel_columns(m: IntMatrix) -> list:
    """A basis, not canonical, of the integer kernel of m."""
    h, u = hermite_normal_form(m)
    return [uc for hc, uc in zip(h.columns(), u.columns()) if not any(hc)]


def integer_kernel_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis (columns) of the saturated lattice {x in Z^n : Mx = 0}."""
    if m.nrows == 0:
        return IntMatrix.identity(m.ncols)
    ker = _kernel_columns(m)
    if not ker:
        return _from_int_columns([], m.ncols)
    return hermite_basis(_from_int_columns(ker, m.ncols))


def hermite_basis(m: IntMatrix) -> IntMatrix:
    """Canonical HNF basis (nonzero columns) of the lattice spanned by the
    columns of m."""
    cols = _hermite_columns([list(c) for c in m.columns()], m.nrows)
    return _from_int_columns([tuple(c) for c in cols if any(c)], m.nrows)


@lru_cache(maxsize=1024)
def saturate_lattice(m: IntMatrix) -> IntMatrix:
    """Canonical basis of span_Q(columns of m) intersected with Z^n.

    One column needs no elimination: its saturation is spanned by the
    column made primitive, and the canonical sign puts the first nonzero
    entry, the Hermite pivot, positive; a zero column spans nothing.
    Memoized by the matrix, as _unit_smith is: every Gröbner cone of a walk
    hands its pass the same lineality vectors, so they are saturated
    once."""
    if m.ncols == 0:
        return m
    if m.ncols == 1:
        col = m.column(0)
        if not any(col):
            return _from_int_columns([], m.nrows)
        col = primitive_vector(col)
        if next(x for x in col if x) < 0:
            col = vec_neg(col)
        return _from_int_columns([col], m.nrows)
    # rows orthogonal to the column span (any basis), then their integer kernel
    orth = _kernel_columns(m.transpose())
    return integer_kernel_basis(IntMatrix(len(orth), m.nrows, tuple(orth)))


def lattice_index(b1: IntMatrix, b2: IntMatrix) -> int:
    """Index [Z^n : L1 + L2] of the lattices spanned by the columns of b1
    and b2, any generators, defined when they jointly span Q^n: the product
    of the pivots of the Hermite basis of the joint columns."""
    if b1.nrows != b2.nrows:
        raise DimMismatchError("lattices live in different ambient spaces")
    n = b1.nrows
    joint = hermite_basis(_from_int_columns(b1.columns() + b2.columns(), n))
    if joint.ncols < n:
        raise NotFullRankError("lattices do not jointly span the ambient space")
    return prod(joint.entries[i][i] for i in range(n))


@lru_cache(maxsize=1024)
def _unit_smith(basis: IntMatrix):
    """Witnesses of the Smith form P B Q of a saturated basis B with d
    columns: P, its first d rows, and the rows of B Q.

    Memoized by the basis: the cones of one fan share their lineality, and
    quotient_reps reduces modulo the same few lattices many times; a cell's
    multiplicity reads the witness its inequalities took."""
    dmat, p, q = smith_normal_form(basis)
    if any(dmat.entries[i][i] != 1 for i in range(basis.ncols)):
        raise NotFullRankError("basis does not generate a saturated lattice")
    return p, p.entries[:basis.ncols], (basis @ q).entries


def quotient_reps(vectors, basis: IntMatrix) -> list:
    """Canonical primitive representatives of vectors modulo the saturated
    lattice of the basis columns B: v - B Q (P v)[:d] for the Smith form
    P B Q, as V^-1 = diag(Q, I) P for the completion V = [B | P^-1 ...]."""
    if basis.ncols == 0:
        return [primitive_vector(v) for v in vectors]
    _, p_top, bq = _unit_smith(basis)
    out = []
    for v in vectors:
        coords = [dot(row, v) for row in p_top]
        out.append(primitive_vector(
            [x - dot(row, coords) for x, row in zip(v, bq)]))
    return out


def hnf_completion(basis: IntMatrix) -> IntMatrix:
    """Extend a saturated lattice basis (columns) to a unimodular matrix.

    The first columns of the result are the basis columns themselves; the
    completion comes from the Smith decomposition, which requires all
    invariant factors to be 1 (true exactly for saturated lattices).
    """
    n, d = basis.nrows, basis.ncols
    p = _unit_smith(basis)[0]
    pinv = int_inverse(p)
    ext = [pinv.column(j) for j in range(d, n)]
    v = _from_int_columns(basis.columns() + ext, n)
    if abs(det(v)) != 1:
        raise NotFullRankError("completion failed to be unimodular")
    return v


def cone_feasible(rays: IntMatrix, lineality: IntMatrix, target) -> bool:
    """Exact membership test: target in cone(ray columns) + span(lineality),
    read off the cone's double description (fans.cone_from_generators)."""
    from .fans import cone_from_generators  # fans imports this module

    n = rays.nrows
    if lineality.nrows != n:
        raise DimMismatchError("rays and lineality ambient dimensions differ")
    if len(target) != n:
        raise DimMismatchError("target dimension mismatch")
    return cone_from_generators(rays.columns(), lineality.columns(),
                                n).contains(target)
