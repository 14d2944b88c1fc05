"""Exact integer arithmetic kernels.

Plain Python ints everywhere: intermediate values in the normal-form
algorithms can exceed machine words even for small inputs, so arbitrary
precision is not optional.  All functions here are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd, prod

from .errors import NonCoprimeModuli

# Deterministic Miller-Rabin witness set, valid for every n < 3.3 * 10**24
# (comfortably covers 64-bit inputs).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

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
    """Deterministic primality: trial division below 10**3, then Miller-Rabin."""
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
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes strictly increasing."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        return prod(self.prime_powers())

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


def solve_congruences(pairs: list[tuple[int, int]]) -> int | None:
    """Solve x = r (mod n) for every (r, n); moduli need not be coprime.

    Modulus 0 means exact equality (a congruence over the integers).
    Returns one solution, or None when the system is inconsistent.
    """
    x, n = 0, 1  # current solution class: x mod n (n == 0 pins x exactly)
    for r, mod in pairs:
        mod = abs(mod)
        if n == 0:
            if mod == 0:
                if x != r:
                    return None
            elif (x - r) % mod != 0:
                return None
            continue
        if mod == 0:
            if (r - x) % n != 0:
                return None
            x, n = r, 0
            continue
        g, inv, _ = xgcd(n, mod)
        if (r - x) % g != 0:
            return None
        step = mod // g
        t = (r - x) // g * inv % step
        x = x + n * t
        n = n * step
        x %= n
    return x
