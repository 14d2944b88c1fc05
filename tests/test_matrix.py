import random

import pytest
from hypothesis import given, settings, strategies as st

from splinemod import engine
from splinemod.decompose import decompose
from splinemod.graph import EdgeLabeledGraph
from splinemod.matrix import IntMatrix, snf
from support import (
    det,
    matmul,
    random_connected_graph,
    reference_lattice_hnf,
    reference_snf,
    with_scaled_identity,
)


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


moduli = st.sampled_from([1, 2, 3, 4, 6, 12, 30, 36, 64, 210])


@st.composite
def sparse_lower_triangular(draw, max_dim=12, max_entry=500):
    """Nonzero diagonal and at most a fifth of the entries below it set."""
    n = draw(st.integers(1, max_dim))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.integers(-max_entry, max_entry).filter(bool))
    below = [(i, j) for i in range(n) for j in range(i)]
    if below:
        for i, j in draw(
            st.lists(st.sampled_from(below), max_size=len(below) // 5, unique=True)
        ):
            rows[i][j] = draw(st.integers(-max_entry, max_entry))
    return IntMatrix(rows)


def scalar_matrix(q: int, n: int) -> IntMatrix:
    return IntMatrix([[q if i == j else 0 for j in range(n)] for i in range(n)])


def reduced(M: IntMatrix, m: int) -> IntMatrix:
    return IntMatrix([[x % m for x in row] for row in M.entries])


def is_lower_echelon(H: IntMatrix) -> bool:
    """Pivot rows strictly increase with the column index; zero cols trail."""
    last = -1
    seen_zero = False
    for j in range(H.ncols):
        col = H.columns()[j]
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
        col = H.columns()[j]
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


def diagonal(*d: int) -> IntMatrix:
    return IntMatrix([[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)])


def wide_two_per_column(rng: random.Random, n: int, e: int, big: bool = False) -> IntMatrix:
    """n x e, two nonzeros per column, as the dual system has, with entries
    of either sign (past 2^64 when ``big``)."""
    bound = 2**70 if big else 40
    cols = []
    for _ in range(e):
        col = [0] * n
        for i in rng.sample(range(n), 2):
            col[i] = rng.choice([-1, 1]) * rng.randint(1, bound)
        cols.append(col)
    return IntMatrix(zip(*cols))


# Structured sparse inputs: (name, A, c), with c the modulus for the
# Hermite form and snf.
STRUCTURED = [
    ("identity", scalar_matrix(1, 6), 12),
    ("scalar", scalar_matrix(9, 5), 9),
    ("distinct diagonal", diagonal(4, 9, 25, 7), 60),
    ("diagonal of divisors", diagonal(6, 1, 4, 3, 12, 2), 12),
    ("wide dual-like", wide_two_per_column(random.Random(3), 7, 15), 30),
    ("wide, few columns", wide_two_per_column(random.Random(4), 9, 4), 36),
    ("wide, past 2^64", wide_two_per_column(random.Random(5), 6, 10, big=True), 2310),
    ("zero row and column", IntMatrix([[3, 0, 4, 1], [0, 0, 0, 0], [5, 0, -6, 2], [7, 0, 1, 0]]), 60),
    ("negative, past 2^64", IntMatrix([[-(2**70), 3, 0], [5, 2**65 + 1, 0], [0, -(2**64), -7]]), 210),
]


class TestStructuredSparse:
    """The kernels against the dense references, and the reference Hermite
    form's shape and span, on structured sparse input."""

    @pytest.mark.parametrize("name, A, c", STRUCTURED)
    def test_hnf(self, name, A, c):
        H = reference_lattice_hnf(A, c)
        assert is_lower_echelon(H) and H.ncols == A.nrows
        assert all(c % H.entries[i][i] == 0 for i in range(H.nrows))
        assert spans_same_lattice(with_scaled_identity(A, c), H)

    @pytest.mark.parametrize("name, A, c", STRUCTURED)
    def test_snf(self, name, A, c):
        d, V = snf(A, c)
        ref_d, _, ref_V = reference_snf(A)
        assert d == ref_d
        assert V == reduced(ref_V, c)

    @pytest.mark.parametrize("name, A, c", STRUCTURED)
    def test_scaled_inverse_of_the_hermite_basis(self, name, A, c):
        B = reference_lattice_hnf(A, c)  # lower triangular, contains c*Z^n
        X = engine._scaled_inverse(B, c)
        assert matmul(B, X) == scalar_matrix(c, B.nrows)

    @pytest.mark.parametrize(
        "rows, m",
        [
            ([[1, 0], [2**70, 1]], 5),
            ([[-3, 0], [5, 1]], 3),
            ([[2, 0, 0], [0, 3, 0], [-(2**66), 0, 6]], 6),
        ],
    )
    def test_scaled_inverse_negative_and_big(self, rows, m):
        B = IntMatrix(rows)
        assert matmul(B, engine._scaled_inverse(B, m)) == scalar_matrix(m, B.nrows)


class TestIntMatrix:
    def test_immutability(self):
        A = IntMatrix([[1, 2], [3, 4]])
        with pytest.raises(AttributeError):
            A.entries = ()
        with pytest.raises(AttributeError):
            A.nrows = 3

    def test_dense_views(self):
        rows = ((1, 0, -2), (0, 0, 0), (2**70, 5, 0))
        A = IntMatrix(rows)
        assert A.entries == rows
        cols = [(1, 0, 2**70), (0, 0, 5), (-2, 0, 0)]
        assert IntMatrix(zip(*cols)).columns() == cols
        assert A.columns() == cols
        assert A.nonzeros == ({0: 1, 2: 2**70}, {2: 5}, {0: -2})

    def test_equal_however_built(self):
        dense = IntMatrix([[1, 0], [0, 1]])
        built = (
            engine.integer_lattice(EdgeLabeledGraph(0, ("a", "b"), ())),  # by the engine
            IntMatrix(zip(*[(1, 0), (0, 1)])),  # from columns
            IntMatrix.sparse(2, [{0: 1}, {1: 1}]),
        )
        for other in built:
            assert other == dense
            assert hash(other) == hash(dense)
            assert repr(other) == repr(dense) == "IntMatrix([[1, 0], [0, 1]])"
        assert IntMatrix([[1, 0], [0, 2]]) != dense
        assert IntMatrix([[1, 0, 0], [0, 1, 0]]) != dense

    def test_n_by_0_keeps_its_rows(self):
        A = IntMatrix.sparse(3, [])
        assert (A.nrows, A.ncols) == (3, 0)
        assert A == IntMatrix([[], [], []])
        assert hash(A) == hash(IntMatrix([[], [], []]))
        assert A != IntMatrix.sparse(2, [])
        assert A.entries == ((), (), ())
        assert A.columns() == []
        assert repr(A) == "IntMatrix([[], [], []])"
        assert reference_lattice_hnf(A, 4) == scalar_matrix(4, 3)

    def test_matmul_identity(self):
        A = IntMatrix([[1, 2], [3, 4]])
        assert matmul(A, scalar_matrix(1, 2)) == A

    def test_from_columns_roundtrip(self):
        A = IntMatrix([[1, 2], [3, 4], [5, 6]])
        assert IntMatrix(zip(*A.columns())) == A

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])


class TestHnf:
    """The reference Hermite form of [A | c*I], which ``reference_flow_up``
    and the scaled-inverse tests build on."""

    def test_identity(self):
        assert reference_lattice_hnf(scalar_matrix(1, 2), 5) == scalar_matrix(1, 2)

    def test_2x2_determinant_preserved(self):
        # columns (2,4) and (3,5): |det| = 2, so the lattice contains 2*Z^2
        # and |det| survives into the triangular form
        A = IntMatrix(zip(*[(2, 4), (3, 5)]))
        H = reference_lattice_hnf(A, 2)
        assert abs(det(H)) == abs(det(A)) == 2
        assert is_lower_echelon(H)
        assert spans_same_lattice(A, H)

    def test_two_vertex_lattice(self):
        # generators (1,1) and (2,0) of {f : 2 | f1 - f2}
        A = IntMatrix(zip(*[(1, 1), (2, 0)]))
        assert reference_lattice_hnf(A, 2).columns() == [(1, 1), (0, 2)]

    def test_pivot_reduction(self):
        H = reference_lattice_hnf(IntMatrix([[4, 7], [0, 3]]), 12)
        # pivot row 0 first: entries left of later pivots reduced into [0, pivot)
        assert is_lower_echelon(H)
        for i in range(2):
            p = H.entries[i][i]
            assert p > 0
            for j in range(i):
                assert 0 <= H.entries[i][j] < p

    def test_no_columns_gives_c_identity(self):
        assert reference_lattice_hnf(IntMatrix([[], []]), 6).columns() == [(6, 0), (0, 6)]

    @settings(max_examples=150)
    @given(small_matrices(), moduli)
    def test_factorization_and_shape(self, A, c):
        H = reference_lattice_hnf(A, c)
        assert H.nrows == H.ncols == A.nrows
        assert is_lower_echelon(H)
        assert all(H.entries[i][i] > 0 and c % H.entries[i][i] == 0 for i in range(H.nrows))

    @settings(max_examples=100)
    @given(small_matrices(), moduli)
    def test_column_span_preserved(self, A, c):
        assert spans_same_lattice(with_scaled_identity(A, c), reference_lattice_hnf(A, c))

    def test_span_check_detects_a_sublattice(self):
        A = IntMatrix(zip(*[(1, 0), (0, 1)]))
        assert not spans_same_lattice(A, IntMatrix(zip(*[(2, 0), (0, 1)])))
        assert not in_column_span(IntMatrix(zip(*[(1, 1), (0, 2)])), (0, 1))


class TestSnf:
    def test_diag_6_4(self):
        # d1 = gcd of the entries, d1*d2 = |det| = 24
        d, _ = snf(IntMatrix([[6, 0], [0, 4]]), 24)
        assert d == (2, 12)

    def test_zero_matrix(self):
        d, V = snf(IntMatrix([[0, 0], [0, 0]]), 5)
        assert d == (0, 0)
        assert V == scalar_matrix(1, 2)

    def test_already_smith(self):
        d, _ = snf(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 36]]), 36)
        assert d == (1, 1, 36)

    def test_rectangular(self):
        A = IntMatrix([[2, 4, 6]])
        d, V = snf(A, 7)
        assert d == (2,)
        ref_d, U, ref_V = reference_snf(A)
        assert ref_d == d and V == reduced(ref_V, 7)
        assert matmul(matmul(U, A), ref_V) == IntMatrix([[2, 0, 0]])

    @settings(max_examples=150)
    @given(small_matrices())
    def test_invariants(self, A):
        d, U, V = reference_snf(A)
        S = matmul(matmul(U, A), V)
        for i in range(A.nrows):
            for j in range(A.ncols):
                expect = d[i] if i == j and i < len(d) else 0
                assert S.entries[i][j] == expect
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        nonzero = [x for x in d if x]
        assert all(x > 0 for x in nonzero)
        assert d[: len(nonzero)] == tuple(nonzero)  # zeros trail
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

    @settings(max_examples=200)
    @given(small_matrices(max_dim=5, max_entry=500), moduli)
    def test_matches_reference(self, A, m):
        d, V = snf(A, m)
        ref_d, _, ref_V = reference_snf(A)
        assert d == ref_d
        assert V == reduced(ref_V, m)

    @settings(max_examples=150)
    @given(sparse_lower_triangular(), moduli)
    def test_matches_reference_on_sparse_triangular(self, A, m):
        d, V = snf(A, m)
        ref_d, _, ref_V = reference_snf(A)
        assert d == ref_d
        assert V == reduced(ref_V, m)

    @pytest.mark.parametrize("q, n", [(1, 7), (2, 60), (9, 41), (30, 60), (64, 23)])
    def test_scalar_matrix(self, q, n):
        # m*B^{-1} for an edgeless graph mod q: q*I, diagonal and V untouched,
        # the Smith form the engine's free path writes down in closed form
        A = scalar_matrix(q, n)
        d, V = snf(A, q)
        assert d == (q,) * n
        assert V == reduced(scalar_matrix(1, n), q)
        ref_d, _, ref_V = reference_snf(A)
        assert d == ref_d and V == reduced(ref_V, q)

    def test_matches_reference_on_scaled_inverses(self, monkeypatch):
        # Every Smith form the engine takes, recorded on random graphs
        # solved directly and through their prime-power components.
        calls = []

        def recording(A, m):
            d, V = snf(A, m)
            calls.append((A, m, d, V))
            return d, V

        monkeypatch.setattr(engine, "snf", recording)
        rng = random.Random(47)
        for i in range(60):
            m = rng.choice([8, 9, 25, 12, 30, 36, 60, 210, 2310])
            labels = list(range(m)) if i % 2 else None
            G = random_connected_graph(
                rng, rng.randrange(2, 11), m, rng.randrange(6), labels
            )
            if i % 3:
                decompose(G)
            else:
                engine.invariant_factors(G)
        # prime powers and composites; a prime component normalizes to an
        # edgeless graph, whose module is taken in closed form, not here
        assert {8, 9, 25, 12, 30} <= {m for _, m, _, _ in calls}
        for A, m, d, V in calls:
            ref_d, _, ref_V = reference_snf(A)
            assert d == ref_d
            assert V == reduced(ref_V, m)

    @settings(max_examples=50)
    @given(small_matrices(), moduli)
    def test_deterministic(self, A, m):
        assert snf(A, m) == snf(A, m)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            snf(IntMatrix([]), 5)
        with pytest.raises(ValueError):
            snf(scalar_matrix(1, 2), 0)


class TestDet:
    def test_golden(self):
        assert det(IntMatrix([[2, 3], [4, 5]])) == -2
        assert det(scalar_matrix(1, 3)) == 1
        assert det(IntMatrix([[2, 0], [0, 0]])) == 0

    @settings(max_examples=100)
    @given(small_matrices(max_dim=3, max_entry=10))
    def test_multiplicative(self, A):
        if A.nrows != A.ncols:
            return
        B = scalar_matrix(1, A.nrows)
        assert det(matmul(A, B)) == det(A)
