from math import lcm

import pytest
from hypothesis import given, strategies as st

from splinemod.arith import (
    crt_combine,
    factorize,
    is_prime,
    solve_congruences,
    xgcd,
)
from splinemod.errors import NonCoprimeModuli


class TestXgcd:
    @given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
    def test_bezout(self, a, b):
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0

    def test_zero(self):
        assert xgcd(0, 0) == (0, 1, 0)


class TestPrimality:
    def test_small(self):
        sieve = [True] * 1000
        sieve[0] = sieve[1] = False
        for p in range(2, 32):
            if sieve[p]:
                for q in range(p * p, 1000, p):
                    sieve[q] = False
        for n in range(-2, 1000):
            assert is_prime(n) == (n >= 0 and n < 1000 and sieve[n])

    def test_known_values(self):
        assert is_prime(10**9 + 7)
        assert is_prime(2**61 - 1)
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
        assert not is_prime((2**31 - 1) * (2**19 - 1))

    @given(st.integers(2, 10**6))
    def test_matches_trial_division(self, n):
        naive = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == naive


class TestFactorize:
    def test_golden(self):
        assert factorize(36).pairs == ((2, 2), (3, 2))
        assert factorize(21).pairs == ((3, 1), (7, 1))
        assert factorize(1).pairs == ()

    def test_prime_powers(self):
        assert factorize(360).prime_powers() == (8, 9, 5)

    def test_roundtrip_dense(self):
        for m in range(1, 100001):
            fac = factorize(m)
            assert fac.value == m
        # stepped scan over the rest of the [1, 10**6] range
        for m in range(100001, 1000001, 97):
            assert factorize(m).value == m

    def test_structure_of_pairs(self):
        for m in range(1, 5000):
            fac = factorize(m)
            primes = [p for p, _ in fac.pairs]
            assert primes == sorted(primes) and len(set(primes)) == len(primes)
            assert all(is_prime(p) for p in primes)
            assert all(k >= 1 for _, k in fac.pairs)

    @given(st.integers(1, 10**6))
    def test_roundtrip_sampled(self, m):
        assert factorize(m).value == m

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_large_semiprime(self):
        # both primes lie far above the trial-division table; rho splits them
        p, q = 10**9 + 7, 10**9 + 9
        assert factorize(p * q).pairs == ((p, 1), (q, 1))
        assert factorize(p * p * q * 12).pairs == ((2, 2), (3, 1), (p, 2), (q, 1))

    def test_products_of_large_primes(self):
        primes = (1009, 1013, 10007, 1000003)
        for i, p in enumerate(primes):
            for q in primes[i:]:
                for k in (1, 2):
                    pairs = ((p, k + 1),) if p == q else ((p, k), (q, 1))
                    assert factorize(p**k * q).pairs == pairs


class TestCrtCombine:
    def test_golden(self):
        assert crt_combine([(2, 4), (0, 9)]) == 18
        assert crt_combine([(0, 4), (3, 9)]) == 12
        assert crt_combine([(0, 30)]) == 0
        assert crt_combine([(1, 3), (1, 7)]) == 1

    def test_non_coprime(self):
        with pytest.raises(NonCoprimeModuli):
            crt_combine([(1, 4), (1, 6)])

    @pytest.mark.parametrize("moduli", [(4, 9), (3, 7), (5, 8, 9)])
    def test_roundtrip(self, moduli):
        total = 1
        for q in moduli:
            total *= q
        for x in range(total):
            assert crt_combine([(x % q, q) for q in moduli]) == x


class TestSolveCongruences:
    def test_compatible_non_coprime(self):
        x = solve_congruences([(2, 6), (5, 9)])
        assert x is not None and x % 6 == 2 and x % 9 == 5

    def test_incompatible(self):
        assert solve_congruences([(1, 4), (0, 2)]) is None

    def test_exact_pin(self):
        assert solve_congruences([(7, 0), (1, 3)]) == 7
        assert solve_congruences([(7, 0), (0, 2)]) is None
        assert solve_congruences([(7, 0), (7, 0)]) == 7
        assert solve_congruences([(7, 0), (8, 0)]) is None

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(1, 30)),
            min_size=1,
            max_size=4,
        )
    )
    def test_solution_satisfies_all(self, pairs):
        x = solve_congruences(pairs)
        naive = None
        bound = 1
        for _, n in pairs:
            bound = lcm(bound, n)
        for cand in range(bound):
            if all((cand - r) % n == 0 for r, n in pairs):
                naive = cand
                break
        if naive is None:
            assert x is None
        else:
            assert x is not None
            assert all((x - r) % n == 0 for r, n in pairs)
