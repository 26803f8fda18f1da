from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tropfan.linalg
from tropfan.corpus import PRIME_CORPUS
from tropfan.errors import DimMismatchError, NotFullRankError, ZeroVectorError
from tropfan.linalg import (
    _echelon_kernel,
    IntMatrix,
    _kernel_columns,
    _unit_smith,
    cone_feasible,
    det,
    hermite_basis,
    hermite_normal_form,
    hnf_completion,
    int_inverse,
    integer_kernel_basis,
    lattice_index,
    primitive_vector,
    quotient_reps,
    rational_rank,
    saturate_lattice,
    smith_normal_form,
    solve_rational,
)

from oracles import (
    groebner_route_variety,
    invariant_factors,
    reference_cone_feasible,
    reference_hermite_normal_form,
    reference_lattice_index,
    reference_quotient_reps,
)


def cofactor_det(m):
    """Independent determinant oracle by Laplace expansion."""
    n = m.nrows
    if n == 0:
        return 1
    if n == 1:
        return m.entries[0][0]
    total = 0
    for j in range(n):
        minor = IntMatrix.from_rows(
            [row[:j] + row[j + 1:] for row in m.entries[1:]], n - 1)
        sign = -1 if j % 2 else 1
        total += sign * m.entries[0][j] * cofactor_det(minor)
    return total


def reference_rational_rank(rows) -> int:
    """Rank over Q by Gauss-Jordan elimination on Fractions (the earlier
    implementation, kept as an independent oracle)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for j in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pval = mat[rank][j]
        for i in range(len(mat)):
            if i != rank and mat[i][j] != 0:
                f = mat[i][j] / pval
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def reference_solve_rational(a_rows, b):
    """Solve A x = b over Q by Gauss-Jordan elimination on Fractions; None
    when inconsistent (the earlier implementation)."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])]
           for i, row in enumerate(a_rows)]
    pivots = []
    r = 0
    for j in range(n):
        piv = None
        for i in range(r, m):
            if aug[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pval = aug[r][j]
        aug[r] = [x / pval for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][j] != 0:
                f = aug[i][j]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(j)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, j in enumerate(pivots):
        x[j] = aug[i][n]
    return tuple(x)


small_matrices = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-9, 9), min_size=k, max_size=k),
            min_size=n, max_size=n)))


class TestIntMatrix:
    def test_non_integral_entry_rejected(self):
        for bad in (Fraction(3, 2), 2.5, "x"):
            with pytest.raises(ValueError):
                IntMatrix.from_rows([[1, bad]])
            with pytest.raises(ValueError):
                IntMatrix.from_columns([(1, bad)])

    def test_ragged_input_rejected(self):
        # the shape is checked where a matrix is made from outside data
        for call in (lambda: IntMatrix.from_rows([[1, 2], [3]]),
                     lambda: IntMatrix.from_rows([[1, 2]], 3),
                     lambda: IntMatrix.from_rows([[]], 1),
                     lambda: IntMatrix.from_columns([(1, 2), (3,)]),
                     lambda: IntMatrix.from_columns([(1, 2)], 3)):
            with pytest.raises(ValueError, match="mismatch"):
                call()

    @settings(max_examples=40, deadline=None)
    @given(small_matrices, small_matrices)
    def test_derived_matrices_are_well_formed(self, rows, other):
        # normal forms, witnesses, transposes and products are built from
        # their int tuples unchecked; the checked constructor agrees
        m = IntMatrix.from_rows(rows)
        o = IntMatrix.from_rows(other)
        derived = [*hermite_normal_form(m), *smith_normal_form(m),
                   m.transpose(), m.transpose() @ m, IntMatrix.identity(m.ncols),
                   hermite_basis(m), integer_kernel_basis(m)]
        if m.ncols == o.nrows:
            derived.append(m @ o)
        for d in derived:
            assert IntMatrix.from_rows(d.entries, d.ncols) == d
            assert IntMatrix.from_columns(d.columns(), d.nrows) == d

    def test_integral_rationals_become_ints(self):
        m = IntMatrix.from_rows([[Fraction(4, 2), -3]])
        assert m.entries == ((2, -3),)
        assert all(type(x) is int for x in m.entries[0])
        assert IntMatrix.from_columns([(Fraction(-6, 3), 1)]).entries == \
            ((-2,), (1,))

    @settings(max_examples=40, deadline=None)
    @given(small_matrices)
    def test_columns_and_transpose(self, rows):
        m = IntMatrix.from_rows(rows)
        cols = m.columns()
        assert cols == [tuple(r[j] for r in rows) for j in range(m.ncols)]
        assert IntMatrix.from_columns(cols, m.nrows) == m
        assert m.transpose() == IntMatrix.from_rows(cols, m.nrows)
        assert m.transpose().transpose() == m

    def test_empty_shapes(self):
        no_cols = IntMatrix.from_columns([], 3)
        assert (no_cols.nrows, no_cols.ncols) == (3, 0)
        assert no_cols.columns() == []
        assert no_cols.transpose() == IntMatrix.from_rows([], 3)
        no_rows = IntMatrix.from_rows([], 2)
        assert no_rows.columns() == [(), ()]
        assert no_rows.transpose() == IntMatrix.from_columns([], 2)


class TestHermite:
    def test_identity(self):
        m = IntMatrix.identity(2)
        h, u = hermite_normal_form(m)
        assert h.entries == m.entries
        assert u.entries == m.entries

    def test_upper_triangular_example(self):
        m = IntMatrix.from_rows([[2, 4], [0, 3]])
        h, u = hermite_normal_form(m)
        assert (m @ u).entries == h.entries
        assert abs(cofactor_det(u)) == 1
        assert {h.entries[0][0], h.entries[1][1]} == {2, 3}

    def test_zero_matrix(self):
        m = IntMatrix.zero(2, 2)
        h, u = hermite_normal_form(m)
        assert h.is_zero()
        assert u.entries == IntMatrix.identity(2).entries

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_mu_equals_h_and_unimodular(self, rows):
        m = IntMatrix.from_rows(rows)
        h, u = hermite_normal_form(m)
        assert (m @ u).entries == h.entries
        assert abs(cofactor_det(u)) == 1

    @settings(max_examples=40, deadline=None)
    @given(small_matrices)
    def test_canonical_for_column_lattice(self, rows):
        # shuffling or doubling generators must not change the HNF basis
        m = IntMatrix.from_rows(rows)
        doubled = IntMatrix.from_columns(
            m.columns() + m.columns(), m.nrows)
        assert hermite_basis(m).entries == hermite_basis(doubled).entries


class TestSmith:
    def test_diag_2_3(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        d, p, q = smith_normal_form(m)
        assert (p @ m @ q).entries == d.entries
        # gcd/lcm oracle for the invariant factors
        assert invariant_factors(m) == (1, 6)

    def test_identity(self):
        m = IntMatrix.identity(3)
        d, _, _ = smith_normal_form(m)
        assert d.entries == m.entries

    def test_det_two(self):
        m = IntMatrix.from_rows([[1, 1], [1, -1]])
        d, p, q = smith_normal_form(m)
        assert (p @ m @ q).entries == d.entries
        assert d.entries == ((1, 0), (0, 2))
        assert abs(cofactor_det(m)) == 2

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_decomposition_and_chain(self, rows):
        m = IntMatrix.from_rows(rows)
        d, p, q = smith_normal_form(m)
        assert (p @ m @ q).entries == d.entries
        assert abs(cofactor_det(p)) == 1
        assert abs(cofactor_det(q)) == 1
        diag = [d.entries[i][i] for i in range(min(d.nrows, d.ncols))]
        for i in range(d.nrows):
            for j in range(d.ncols):
                if i != j:
                    assert d.entries[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_product_of_factors_is_det(self, rows):
        m = IntMatrix.from_rows(rows)
        dd = abs(cofactor_det(m))
        facs = invariant_factors(m)
        prod = 1
        for f in facs:
            prod *= f
        if dd != 0:
            assert prod == dd


class TestPrimitive:
    def test_examples(self):
        assert primitive_vector((-2, -2)) == (-1, -1)
        assert primitive_vector((1, 0)) == (1, 0)
        assert primitive_vector((6, -9, 3)) == (2, -3, 1)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            primitive_vector((0, 0, 0))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=4),
           st.integers(1, 5))
    def test_scaling_invariance(self, v, k):
        if all(x == 0 for x in v):
            return
        assert primitive_vector(tuple(k * x for x in v)) == \
            primitive_vector(tuple(v))

    def test_primitive_input_comes_back_as_a_tuple(self):
        assert primitive_vector([3, -2]) == (3, -2)
        assert primitive_vector((0, 1)) == (0, 1)


class TestEchelonKernel:
    """The kernel that starts a double description pass, read off one
    reduced echelon form, spans over Q what the canonical integer kernel
    spans: the same number of primitive vectors, each in the kernel, and
    together of full rank with the Hermite basis."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                 max_size=5),
        st.just(n))))
    @example(([], 3))
    @example(([[2, 4, 6]], 3))
    @example(([[0, 0, 0], [1, -1, 0]], 3))
    @example(([[1, 0], [0, 1]], 2))
    @example(([[3, 5, 0, 7], [0, 2, 4, 0]], 4))
    def test_spans_the_integer_kernel(self, case):
        rows, n = case
        m = IntMatrix.from_rows(rows, n)
        got = _echelon_kernel(m)
        want = integer_kernel_basis(m).columns()
        assert len(got) == len(want)
        for v in got:
            assert m.mul_vec(v) == (0,) * m.nrows
            assert primitive_vector(v) == v
        assert rational_rank(got) == len(got)
        assert rational_rank(got + want) == len(want)


def columns(n, cols):
    return IntMatrix.from_columns(cols, n)


class TestLatticeIndex:
    def test_unit_axes(self):
        assert lattice_index(columns(2, [(1, 0)]), columns(2, [(0, 1)])) == 1

    def test_det_two(self):
        assert lattice_index(columns(2, [(1, 1)]), columns(2, [(1, -1)])) == 2

    def test_full_lattice(self):
        l1 = columns(2, [(1, 0), (0, 1)])
        assert lattice_index(l1, columns(2, [(5, 7)])) == 1

    def test_symmetry(self):
        l1 = columns(3, [(1, 2, 0), (0, 3, 1)])
        l2 = columns(3, [(2, 0, 5)])
        assert lattice_index(l1, l2) == lattice_index(l2, l1)

    def test_not_full_rank(self):
        with pytest.raises(NotFullRankError):
            lattice_index(columns(2, [(1, 1)]), columns(2, [(2, 2)]))

    def test_ambient_mismatch(self):
        with pytest.raises(DimMismatchError):
            lattice_index(columns(2, [(1, 0)]), columns(3, [(0, 1, 0)]))


class TestSolveRational:
    def test_identity(self):
        x = solve_rational([[1, 0], [0, 1]], (Fraction(3, 2), Fraction(-1)))
        assert x == (Fraction(3, 2), Fraction(-1))

    def test_underdetermined(self):
        x = solve_rational([[1, 1]], (5,))
        assert x is not None
        assert sum(x) == 5

    def test_inconsistent(self):
        assert solve_rational([[1], [1]], (0, 1)) is None


def brute_force_2d_membership(rays, lineality, target):
    """Independent oracle for 2-D cone membership: solve every generator
    pair exactly for nonnegative ray coefficients."""
    gens = []
    for r in rays:
        gens.append((r, False))
    for l in lineality:
        gens.append((l, True))
        gens.append((tuple(-x for x in l), True))
    if all(x == 0 for x in target):
        return True
    for i, (g1, free1) in enumerate(gens):
        # single generator
        sol = solve_rational([[g1[0]], [g1[1]]], target)
        if sol is not None and (free1 or sol[0] >= 0):
            return True
        for g2, free2 in gens[i + 1:]:
            a = [[g1[0], g2[0]], [g1[1], g2[1]]]
            sol = solve_rational(a, target)
            if sol is None:
                continue
            if (free1 or sol[0] >= 0) and (free2 or sol[1] >= 0):
                return True
    return False


class TestConeFeasible:
    def test_quadrant(self):
        rays = IntMatrix.from_columns([(1, 0), (0, 1)], 2)
        lin = IntMatrix.from_columns([], 2)
        assert cone_feasible(rays, lin, (2, 3))
        assert not cone_feasible(rays, lin, (-1, 0))

    def test_with_lineality(self):
        rays = IntMatrix.from_columns([(1, 1)], 2)
        lin = IntMatrix.from_columns([(1, -1)], 2)
        # (0,2) = 1*(1,1) + (-1)*(1,-1)
        assert cone_feasible(rays, lin, (0, 2))

    def test_dim_mismatch(self):
        rays = IntMatrix.from_columns([(1, 0)], 2)
        lin = IntMatrix.from_columns([], 2)
        with pytest.raises(DimMismatchError):
            cone_feasible(rays, lin, (1, 0, 0))

    # rays in Q^2 and a lineality with no columns in Q^3, or the reverse:
    # the shapes disagree even where one side is empty, which was once
    # accepted as the cone of the rays
    SHAPE_MISMATCHES = [
        (IntMatrix.from_columns([(1, 0)], 2), IntMatrix.from_columns([], 3),
         (1, 0)),
        (IntMatrix.from_columns([], 3), IntMatrix.from_columns([(1, 0)], 2),
         (1, 0)),
    ]

    def test_shape_mismatch_with_an_empty_side(self):
        for rays, lin, target in self.SHAPE_MISMATCHES:
            with pytest.raises(DimMismatchError):
                cone_feasible(rays, lin, target)

    def test_reference_shape_mismatch_with_an_empty_side(self):
        for rays, lin, target in self.SHAPE_MISMATCHES:
            with pytest.raises(DimMismatchError):
                reference_cone_feasible(rays, lin, target)

    def test_grid_agreement_with_brute_force(self):
        cones = [
            ([(1, 0), (0, 1)], []),
            ([(1, 2), (2, -1)], []),
            ([(-1, -1)], []),
            ([(1, 1)], [(1, -1)]),
            ([], [(2, 3)]),
            ([(3, 1), (1, 3)], []),
        ]
        half = Fraction(1, 2)
        grid = [Fraction(n, 2) for n in range(-10, 11)]
        assert grid[0] == -5 and grid[-1] == 5 and grid[1] - grid[0] == half
        for ray_list, lin_list in cones:
            rays = IntMatrix.from_columns(ray_list, 2)
            lin = IntMatrix.from_columns(lin_list, 2)
            for x in grid:
                for y in grid:
                    got = cone_feasible(rays, lin, (x, y))
                    want = brute_force_2d_membership(ray_list, lin_list, (x, y))
                    assert got == want, (ray_list, lin_list, x, y)


class TestLatticeHelpers:
    def test_integer_kernel(self):
        k = integer_kernel_basis(IntMatrix.from_rows([[1, 1, 1]]))
        assert k.ncols == 2
        for col in k.columns():
            assert sum(col) == 0

    def test_saturation(self):
        s = saturate_lattice(IntMatrix.from_columns([(2, 2, 0), (0, 0, 3)], 3))
        assert s.columns() == [(1, 1, 0), (0, 0, 1)]

    def test_completion_unimodular(self):
        b = IntMatrix.from_columns([(1, 1, 1)], 3)
        v = hnf_completion(b)
        assert abs(cofactor_det(v)) == 1
        assert v.column(0) == (1, 1, 1)

    def test_int_inverse(self):
        m = IntMatrix.from_rows([[1, 2], [0, 1]])
        inv = int_inverse(m)
        assert (m @ inv).entries == IntMatrix.identity(2).entries

    def test_rank(self):
        assert rational_rank([[1, 2], [2, 4]]) == 1
        assert rational_rank([[1, 0], [0, 1]]) == 2

    def test_nonneg_infeasible(self):
        # -1 is no nonnegative combination of 1 and 1, but is one of 1, -1
        lin = IntMatrix.from_columns([], 1)
        assert not cone_feasible(IntMatrix.from_rows([[1, 1]]), lin, (-1,))
        assert cone_feasible(IntMatrix.from_rows([[1, -1]]), lin, (-1,))

    def test_det_oracle_agreement(self):
        m = IntMatrix.from_rows([[3, 1, 2], [0, -2, 5], [7, 1, 1]])
        assert det(m) == cofactor_det(m)


small_rationals = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))


def rational_systems(entries):
    """(A, b) with 1-4 rows and 1-4 columns drawn from `entries`."""
    return st.integers(1, 4).flatmap(
        lambda m: st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m),
                st.lists(entries, min_size=m, max_size=m))))


class TestAgainstFractionReferences:
    """The integer-only routines against the earlier Fraction versions, and
    cone membership on points of the cone by construction."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(rational_systems(st.integers(-3, 3)),
                     rational_systems(small_rationals)))
    def test_rank(self, system):
        a, _ = system
        assert rational_rank(a) == reference_rational_rank(a)

    def test_rank_of_no_rows(self):
        assert rational_rank([]) == reference_rational_rank([]) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(rational_systems(st.integers(-3, 3)),
                     rational_systems(small_rationals)))
    def test_solve_consistency(self, system):
        a, b = system
        x = solve_rational(a, b)
        want = reference_solve_rational(a, b)
        assert (x is None) == (want is None)
        if x is not None:
            assert all(isinstance(v, Fraction) for v in x)
            assert all(sum(Fraction(c) * v for c, v in zip(row, x)) == bi
                       for row, bi in zip(a, b))

    @settings(max_examples=100, deadline=None)
    @given(rational_systems(st.integers(-3, 3)),
           st.lists(st.integers(0, 3), min_size=4, max_size=4))
    def test_nonneg_feasible_by_construction(self, system, x):
        # b = A x with x >= 0 lies in the cone of the columns of A
        a, _ = system
        b = [sum(c * v for c, v in zip(row, x)) for row in a]
        lin = IntMatrix.from_columns([], len(a))
        assert cone_feasible(IntMatrix.from_rows(a), lin, b)
        assert reference_cone_feasible(IntMatrix.from_rows(a), lin, b)


def elementary(n, i, j, k):
    """Identity plus k at (i, j) when i != j; for i == j, the swap of rows
    i and i + 1 (mod n)."""
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    if i == j:
        t = (i + 1) % n
        rows[i], rows[t] = rows[t], rows[i]
    else:
        rows[i][j] = k
    return IntMatrix.from_rows(rows, n)


unimodular_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(-3, 3)),
        max_size=8).map(
        lambda ops: (n, ops)))


class TestIntInverse:
    @settings(max_examples=80, deadline=None)
    @given(unimodular_matrices)
    def test_two_sided_inverse(self, spec):
        n, ops = spec
        m = IntMatrix.identity(n)
        for i, j, k in ops:
            m = m @ elementary(n, i, j, k)
        inv = int_inverse(m)
        eye = IntMatrix.identity(n).entries
        assert (m @ inv).entries == eye
        assert (inv @ m).entries == eye

    def test_singular(self):
        with pytest.raises(NotFullRankError, match="singular"):
            int_inverse(IntMatrix.from_rows([[1, 2], [2, 4]]))

    def test_not_unimodular(self):
        with pytest.raises(NotFullRankError, match="not unimodular"):
            int_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]],
                                      [[1, 0], [0, 1], [0, 0]]])
    def test_non_square(self, rows):
        with pytest.raises(DimMismatchError):
            int_inverse(IntMatrix.from_rows(rows))

    def test_empty(self):
        assert int_inverse(IntMatrix.identity(0)).entries == ()


def completion_quotient_reps(vectors, basis):
    """Quotient representatives through the unimodular completion
    V = hnf_completion(basis) and its inverse: zero the basis coordinates of
    V^-1 v and map back (the earlier implementation, kept as an oracle)."""
    if basis.ncols == 0:
        return [primitive_vector(v) for v in vectors]
    v = hnf_completion(basis)
    vinv = int_inverse(v)
    reps = []
    for vec in vectors:
        coords = list(vinv.mul_vec(vec))
        for i in range(basis.ncols):
            coords[i] = 0
        reps.append(primitive_vector(v.mul_vec(tuple(coords))))
    return reps


def rep_or_zero(route, vec, basis):
    try:
        return route([vec], basis)[0]
    except ZeroVectorError:
        return "zero"


# saturated lattices of every rank 0..n in Z^3 to Z^5, as bases from
# saturate_lattice of random columns, with vectors to reduce modulo them
saturated_cases = st.integers(3, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                 max_size=n),
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                 min_size=1, max_size=4),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.just(n)))


def old_saturate_lattice(m):
    """Saturation with the orthogonal lattice made canonical as well."""
    if m.ncols == 0:
        return m
    orth = integer_kernel_basis(m.transpose())
    return integer_kernel_basis(orth.transpose())


class TestQuotientReps:
    @settings(max_examples=120, deadline=None)
    @given(saturated_cases)
    @example(([(1, 2, 3, 4)], [(0, 0, 0, 1)], [1, 1, 1, 1], 4))
    @example(([(2, 3, 0), (1, 1, 1)], [(1, 0, 0)], [0, 0, 0], 3))
    @example(([], [(2, 4, -6)], [0, 0, 0], 3))
    def test_matches_completion_and_inverse(self, case):
        cols, vectors, coeffs, n = case
        basis = saturate_lattice(IntMatrix.from_columns(
            [tuple(c) for c in cols], n))
        # a lattice vector added must not change the representative, and a
        # lattice vector alone has none
        shift = basis.mul_vec(tuple(coeffs[:basis.ncols]))
        for vec in vectors + [shift]:
            moved = tuple(x + y for x, y in zip(vec, shift))
            want = rep_or_zero(completion_quotient_reps, tuple(vec), basis)
            assert rep_or_zero(quotient_reps, tuple(vec), basis) == want
            assert rep_or_zero(quotient_reps, moved, basis) == want
        if all(c == 0 for c in coeffs[:basis.ncols]):
            return
        with pytest.raises(ZeroVectorError):
            quotient_reps([shift], basis)

    def test_empty_basis(self):
        empty = IntMatrix.from_columns([], 3)
        assert quotient_reps([(2, 4, -6), (0, 1, 0)], empty) == \
            [(1, 2, -3), (0, 1, 0)]
        assert quotient_reps([], empty) == []
        assert hnf_completion(empty).entries == IntMatrix.identity(3).entries

    def test_vector_in_lattice(self):
        basis = saturate_lattice(IntMatrix.from_columns([(1, 1, 1)], 3))
        with pytest.raises(ZeroVectorError):
            quotient_reps([(3, 3, 3)], basis)

    def test_representative(self):
        basis = saturate_lattice(IntMatrix.from_columns([(1, 1, 1)], 3))
        # the class of (2, 1, 0) modulo (1, 1, 1), primitive
        rep = quotient_reps([(2, 1, 0)], basis)[0]
        assert rational_rank([rep, (2, 1, 0), (1, 1, 1)]) == 2
        assert rep == completion_quotient_reps([(2, 1, 0)], basis)[0]

    @pytest.mark.parametrize("route", [
        lambda b: quotient_reps([(1, 1)], b), hnf_completion])
    def test_not_saturated(self, route):
        with pytest.raises(NotFullRankError, match="saturated"):
            route(IntMatrix.from_columns([(2, 0)], 2))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=1, max_size=5)))
    # one column: zero, with a negative first nonzero entry, not primitive
    @example([[0, 0, 0]])
    @example([[0, -2, 4]])
    @example([[3]])
    def test_saturation_matches_doubly_canonical_route(self, cols):
        m = IntMatrix.from_columns([tuple(c) for c in cols])
        assert saturate_lattice(m) == old_saturate_lattice(m)


class TestKernelIsSaturated:
    """An integer kernel is a saturated lattice, so its canonical basis is
    what saturating any basis of it gives. Cones take their equations (from
    halfspaces) and their lineality (from generators) as integer kernels on
    this ground, with no saturation."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                 max_size=5),
        st.just(n))))
    @example(([[2, 4, 6]], 3))
    @example(([], 2))
    @example(([[1, 0], [0, 1]], 2))
    def test_kernel_basis_is_its_saturation(self, case):
        rows, n = case
        m = IntMatrix.from_rows(rows, n)
        assert integer_kernel_basis(m) == saturate_lattice(
            IntMatrix.from_columns(_kernel_columns(m), n))


class TestSmithWitnessesOncePerLattice:
    """quotient_reps, hnf_completion and the cell multiplicities share one
    memoized Smith form per basis."""

    @pytest.fixture
    def smith_calls(self, monkeypatch):
        calls = [0]
        original = tropfan.linalg.smith_normal_form

        def counted(m):
            calls[0] += 1
            return original(m)

        monkeypatch.setattr(tropfan.linalg, "smith_normal_form", counted)
        _unit_smith.cache_clear()
        yield calls
        _unit_smith.cache_clear()

    def test_one_smith_form_per_basis(self, smith_calls):
        basis = saturate_lattice(IntMatrix.from_columns([(1, 1, 1)], 3))
        first = quotient_reps([(2, 1, 0)], basis)
        assert quotient_reps([(2, 1, 0)], basis) == first
        hnf_completion(basis)
        assert smith_calls[0] == 1

    def test_failures_are_not_remembered(self, smith_calls):
        for _ in range(2):
            with pytest.raises(NotFullRankError, match="saturated"):
                quotient_reps([(1, 1)], IntMatrix.from_columns([(2, 0)], 2))
        assert smith_calls[0] == 2

    def test_corpus_smith_forms(self, smith_calls):
        # 206 Smith forms, one per call, before they were memoized, 70
        # while every face of the Gröbner fans was built, and 61 while the
        # sliced cells reduced their inequalities, which no caller reads,
        # modulo their equations, and 46 while each multiplicity completed
        # the cell's span lattice, whose Smith form the equation lattice's
        # witness now replaces
        for entry in PRIME_CORPUS:
            groebner_route_variety(entry.ideal())
        assert smith_calls[0] == 30


def int_vectors(n, bound):
    return st.tuples(*[st.integers(-bound, bound)] * n)


# (rays, lineality, target, n): zero rays included, and an integer or a
# rational target
cone_cases = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(int_vectors(n, 2), max_size=8),
    st.lists(int_vectors(n, 2), max_size=2),
    st.one_of(int_vectors(n, 4), st.tuples(*[small_rationals] * n)),
    st.just(n)))


class TestKernelsMatchReferences:
    """The lattice kernels return exactly what the earlier implementations
    in oracles.py return: the same integers, the same verdicts and the same
    errors."""

    @settings(max_examples=120, deadline=None)
    @given(small_matrices)
    @example([[0, 0], [0, 0]])
    @example([[2, 4, 6], [3, 6, 9]])
    def test_hermite_normal_form(self, rows):
        m = IntMatrix.from_rows(rows)
        assert hermite_normal_form(m) == reference_hermite_normal_form(m)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                 max_size=5),
        st.just(n))))
    @example(([], 3))
    @example(([[2, 4, 6], [1, 2, 3]], 3))
    def test_hermite_basis_is_the_nonzero_columns(self, case):
        cols, n = case
        m = IntMatrix.from_columns([tuple(c) for c in cols], n)
        h, _ = hermite_normal_form(m)
        assert hermite_basis(m) == IntMatrix.from_columns(
            [c for c in h.columns() if any(c)], n)

    @settings(max_examples=120, deadline=None)
    @given(saturated_cases)
    @example(([(1, 2, 3, 4)], [(0, 0, 0, 1)], [1, 1, 1, 1], 4))
    @example(([(2, 3, 0), (1, 1, 1)], [(1, 0, 0)], [0, 0, 0], 3))
    def test_quotient_reps(self, case):
        cols, vectors, coeffs, n = case
        basis = saturate_lattice(IntMatrix.from_columns(
            [tuple(c) for c in cols], n))
        shift = basis.mul_vec(tuple(coeffs[:basis.ncols]))
        for vec in vectors + [shift]:
            assert rep_or_zero(quotient_reps, tuple(vec), basis) == \
                rep_or_zero(reference_quotient_reps, tuple(vec), basis)

    @settings(max_examples=200, deadline=None)
    @given(cone_cases)
    # a target in the lineality only, and one whose negation is outside
    @example(([], [(1, -1)], (-1, 1), 2))
    @example(([(1, 0)], [], (1, 0), 2))
    @example(([(2, 1), (0, 0)], [], (1, Fraction(1, 2)), 2))
    @example(([], [], (0, 0, 0), 3))
    def test_cone_feasible(self, case):
        # the double description against the phase-1 simplex, with up to 8
        # rays in Q^6, so that simplex runs take several pivots
        ray_list, lin_list, target, n = case
        rays = IntMatrix.from_columns(ray_list, n)
        lin = IntMatrix.from_columns(lin_list, n)
        assert cone_feasible(rays, lin, target) == \
            reference_cone_feasible(rays, lin, target)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                 max_size=n),
        st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                 max_size=n),
        st.just(n))))
    @example(([(1, 1)], [(1, -1)], 2))
    @example(([(2, 0, 0)], [(0, 3, 0), (0, 0, 5)], 3))
    @example(([(1, 1)], [(2, 2)], 2))
    # redundant generators, not a Hermite basis
    @example(([(2, 2), (4, 4), (0, 0)], [(0, 3), (0, 6)], 2))
    def test_lattice_index(self, case):
        cols1, cols2, n = case
        l1 = columns(n, [tuple(c) for c in cols1])
        l2 = columns(n, [tuple(c) for c in cols2])

        def index(route):
            try:
                return route(l1, l2)
            except NotFullRankError:
                return "not full rank"

        assert index(lattice_index) == index(reference_lattice_index)
