from math import prod

import pytest
from hypothesis import given, strategies as st

from splinemod.arith import (
    _is_strong_lucas_probable_prime,
    crt_combine,
    factorize,
    is_prime,
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
        # psi_12: the least strong pseudoprime to every prime base 2..37
        assert not is_prime(318665857834031151167461)
        # psi_13: the least strong pseudoprime to every prime base 2..41,
        # rejected by the strong Lucas test
        assert not is_prime(3317044064679887385961981)
        assert is_prime(2**89 - 1)
        assert is_prime(10**19 + 51)

    def test_strong_lucas_pseudoprimes(self):
        # the odd composites below 26000 that pass the strong Lucas test with
        # Selfridge's parameters (OEIS A217255); every prime passes it
        passing = [n for n in range(1001, 26000, 2) if _is_strong_lucas_probable_prime(n)]
        composite = [n for n in passing if not is_prime(n)]
        assert composite == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
        assert len(passing) - len(composite) == sum(map(is_prime, range(1001, 26000)))
        # a square has no D with (D/n) = -1, and the square of a large prime
        # meets (D/n) = 0 only once |D| reaches that prime
        assert not _is_strong_lucas_probable_prime((2**61 - 1) ** 2)

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
            assert prod(fac.prime_powers()) == m
        # stepped scan over the rest of the [1, 10**6] range
        for m in range(100001, 1000001, 97):
            assert prod(factorize(m).prime_powers()) == m

    def test_structure_of_pairs(self):
        for m in range(1, 5000):
            fac = factorize(m)
            primes = [p for p, _ in fac.pairs]
            assert primes == sorted(primes) and len(set(primes)) == len(primes)
            assert all(is_prime(p) for p in primes)
            assert all(k >= 1 for _, k in fac.pairs)

    @given(st.integers(1, 10**6))
    def test_roundtrip_sampled(self, m):
        assert prod(factorize(m).prime_powers()) == m

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
