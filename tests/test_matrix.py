import pytest
from hypothesis import given, settings, strategies as st

from splinemod.matrix import IntMatrix, det, hnf, snf


def small_matrices(max_dim=4, max_entry=30):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    ).map(IntMatrix)


def diag_of(M: IntMatrix):
    return tuple(
        M.entries[i][i] if i < M.ncols else 0 for i in range(min(M.nrows, M.ncols))
    )


def is_lower_echelon(H: IntMatrix) -> bool:
    """Pivot rows strictly increase with the column index; zero cols trail."""
    last = -1
    seen_zero = False
    for j in range(H.ncols):
        col = H.column(j)
        nz = [i for i, x in enumerate(col) if x]
        if not nz:
            seen_zero = True
            continue
        if seen_zero:
            return False
        if nz[0] <= last:
            return False
        last = nz[0]
    return True


def in_column_span(H: IntMatrix, a) -> bool:
    """Back-substitution through the echelon columns of H: is the vector a
    an integer combination of them?"""
    residual = list(a)
    for j in range(H.ncols):
        col = H.column(j)
        nz = [i for i, x in enumerate(col) if x]
        if not nz:
            break
        p = nz[0]
        if any(residual[:p]):
            return False
        q, r = divmod(residual[p], col[p])
        if r:
            return False
        residual = [x - q * y for x, y in zip(residual, col)]
    return not any(residual)


def spans_same_lattice(A: IntMatrix, H: IntMatrix) -> bool:
    """Every column of A lies in the span of H, and for square nonsingular A
    the two have the same |det|, so the spans are equal."""
    if not all(in_column_span(H, col) for col in A.columns()):
        return False
    if A.nrows == A.ncols and det(A) != 0:
        return abs(det(H)) == abs(det(A))
    return True


class TestIntMatrix:
    def test_immutability(self):
        A = IntMatrix([[1, 2], [3, 4]])
        with pytest.raises(AttributeError):
            A.entries = ()

    def test_matmul_identity(self):
        A = IntMatrix([[1, 2], [3, 4]])
        assert A @ IntMatrix.identity(2) == A

    def test_from_columns_roundtrip(self):
        A = IntMatrix([[1, 2], [3, 4], [5, 6]])
        assert IntMatrix.from_columns(A.columns()) == A

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])


class TestHnf:
    def test_identity(self):
        assert hnf(IntMatrix.identity(2)) == IntMatrix.identity(2)

    def test_2x2_determinant_preserved(self):
        # columns (2,4) and (3,5): |det| = 2 survives into the triangular form
        A = IntMatrix.from_columns([(2, 4), (3, 5)])
        H = hnf(A)
        assert abs(det(H)) == abs(det(A)) == 2
        assert is_lower_echelon(H)
        assert spans_same_lattice(A, H)

    def test_two_vertex_lattice(self):
        # generators (1,1) and (2,0) of {f : 2 | f1 - f2}
        A = IntMatrix.from_columns([(1, 1), (2, 0)])
        assert hnf(A).columns() == [(1, 1), (0, 2)]

    def test_pivot_reduction(self):
        H = hnf(IntMatrix([[4, 7], [0, 3]]))
        # pivot row 0 first: entries left of later pivots reduced into [0, pivot)
        assert is_lower_echelon(H)
        for i in range(2):
            p = H.entries[i][i]
            assert p > 0
            for j in range(i):
                assert 0 <= H.entries[i][j] < p

    @settings(max_examples=150)
    @given(small_matrices())
    def test_factorization_and_shape(self, A):
        H = hnf(A)
        assert H.nrows == A.nrows and H.ncols == A.ncols
        assert is_lower_echelon(H)

    @settings(max_examples=100)
    @given(small_matrices())
    def test_column_span_preserved(self, A):
        assert spans_same_lattice(A, hnf(A))

    def test_span_check_detects_a_sublattice(self):
        A = IntMatrix.from_columns([(1, 0), (0, 1)])
        assert not spans_same_lattice(A, IntMatrix.from_columns([(2, 0), (0, 1)]))
        assert not in_column_span(IntMatrix.from_columns([(1, 1), (0, 2)]), (0, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hnf(IntMatrix([]))


class TestSnf:
    def test_diag_6_4(self):
        # d1 = gcd of the entries, d1*d2 = |det| = 24
        res = snf(IntMatrix([[6, 0], [0, 4]]))
        assert res.d == (2, 12)

    def test_zero_matrix(self):
        res = snf(IntMatrix([[0, 0], [0, 0]]))
        assert res.d == (0, 0)

    def test_already_smith(self):
        res = snf(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 36]]))
        assert res.d == (1, 1, 36)

    def test_rectangular(self):
        res = snf(IntMatrix([[2, 4, 6]]))
        assert res.d == (2,)
        assert res.U @ IntMatrix([[2, 4, 6]]) @ res.V == IntMatrix([[2, 0, 0]])

    @settings(max_examples=150)
    @given(small_matrices())
    def test_invariants(self, A):
        res = snf(A)
        S = res.U @ A @ res.V
        for i in range(A.nrows):
            for j in range(A.ncols):
                expect = res.d[i] if i == j and i < len(res.d) else 0
                assert S.entries[i][j] == expect
        assert abs(det(res.U)) == 1
        assert abs(det(res.V)) == 1
        nonzero = [x for x in res.d if x]
        assert all(x > 0 for x in nonzero)
        assert res.d[: len(nonzero)] == tuple(nonzero)  # zeros trail
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

    @settings(max_examples=50)
    @given(small_matrices())
    def test_deterministic(self, A):
        assert snf(A) == snf(A)


class TestDet:
    def test_golden(self):
        assert det(IntMatrix([[2, 3], [4, 5]])) == -2
        assert det(IntMatrix.identity(3)) == 1
        assert det(IntMatrix([[2, 0], [0, 0]])) == 0

    @settings(max_examples=100)
    @given(small_matrices(max_dim=3, max_entry=10))
    def test_multiplicative(self, A):
        if A.nrows != A.ncols:
            return
        B = IntMatrix.identity(A.nrows)
        assert det(A @ B) == det(A)
