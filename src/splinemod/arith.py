"""Exact integer arithmetic kernels.

Plain Python ints everywhere: intermediate values in the normal-form
algorithms can exceed machine words even for small inputs, so arbitrary
precision is not optional.  All functions here are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt

from .errors import NonCoprimeModuli

# Miller-Rabin witness set: the prime bases 2..41 decide every n < psi_13 =
# 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 2017); without
# 41 the composite psi_12 = 318665857834031151167461 passes.  psi_13 itself is
# composite and passes them all, so from psi_13 on a strong Lucas test follows.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981

_SMALL_PRIMES = [2, 3, 5, 7]
for _c in range(11, 1000, 2):
    if all(_c % _p for _p in _SMALL_PRIMES if _p * _p <= _c):
        _SMALL_PRIMES.append(_c)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def additive_order(values: tuple[int, ...], m: int) -> int:
    """Additive order of a residue vector mod m > 0.

    k*v = 0 mod m iff m divides k*v_i for every i, iff m / gcd(m, v_1, ...)
    divides k.
    """
    return m // gcd(m, *values)


def is_prime(n: int) -> bool:
    """Primality: trial division below 10**3, then Miller-Rabin to the prime
    bases 2..41, which is deterministic below psi_13.  From psi_13 on a strong
    Lucas test follows, which makes it the Baillie-PSW test (Baillie and
    Wagstaff, Math. Comp. 1980): no composite is known to pass it."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 1000 * 1000:
        return True  # no prime factor below sqrt(n) was found
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _is_strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of an odd n > 1000 with Selfridge's parameters: D the
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.

    With n + 1 = d * 2**s, d odd, n passes when U_d = 0 mod n or V_(d*2**r)
    = 0 mod n for some 0 <= r < s; every prime not dividing Q does.
    """
    if isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1 when n is a square
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if j == 0:
        return False  # |D| < n shares a factor with n
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:  # x / 2 mod n, n odd
        x %= n
        return (x + n) // 2 if x % 2 else x // 2

    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q^1 for P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n  # index doubled
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n  # index plus one
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes strictly increasing."""

    pairs: tuple[tuple[int, int], ...]

    def prime_powers(self) -> tuple[int, ...]:
        return tuple(p**k for p, k in self.pairs)


def _brent_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 10**3.

    Pollard's rho with Brent's cycle detection and batched gcds (Brent
    1980), on x -> x^2 + c for c = 1, 2, ... until a proper factor appears.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(m: int) -> Factorization:
    """Exact prime factorization of m >= 1; m = 1 yields the empty factorization."""
    if m < 1:
        raise ValueError(f"cannot factorize {m}; expected an integer >= 1")
    pairs: list[tuple[int, int]] = []
    rest = m
    for p in _SMALL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            pairs.append((p, k))
    # What is left is 1 or has only prime factors above 10**3; split it by rho.
    counts: dict[int, int] = {}
    stack = [rest] if rest > 1 else []
    while stack:
        n = stack.pop()
        if is_prime(n):
            counts[n] = counts.get(n, 0) + 1
        else:
            d = _brent_factor(n)
            stack += [d, n // d]
    pairs.extend(counts.items())
    pairs.sort()
    return Factorization(tuple(pairs))


def coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1, ascending, such that every one of the
    positive ``values`` is a product of powers of them.  Gcds only, no
    factoring: a value that shares a factor g with a base element b replaces
    b by g and b/g, and goes on as value/g.  Each split lowers the product
    of the pending values and the base by g > 1, so refinement ends."""
    base: list[int] = []
    pending = list(values)
    while pending:
        x = pending.pop()
        if x == 1:
            continue
        for k, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[k]
                pending += (g, b // g, x // g)
                break
        else:
            base.append(x)
    return sorted(base)


def crt_combine(residues: list[tuple[int, int]]) -> int:
    """Combine (value, modulus) pairs with pairwise coprime moduli.

    Returns the unique x in [0, prod(moduli)) with x = value (mod modulus)
    for every pair.  Raises NonCoprimeModuli if two moduli share a factor.
    """
    x, n = 0, 1
    for value, modulus in residues:
        if modulus < 1:
            raise NonCoprimeModuli(f"modulus {modulus} is not positive")
        g, inv, _ = xgcd(n % modulus, modulus)
        if g != 1:
            raise NonCoprimeModuli(
                f"moduli are not pairwise coprime (shared factor {g})"
            )
        # x' = x + n*t with t chosen so x' = value (mod modulus)
        t = (value - x) * inv % modulus
        x = x + n * t
        n = n * modulus
        x %= n
    return x
