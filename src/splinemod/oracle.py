"""Brute-force ground truth at desk scale.

Everything here is deliberately naive: splines are found by exhausting the
full vertex-labeling space (with early pruning of prefixes that already
violate an edge, which cannot lose solutions), spans are found by closure
under addition, and invariant factors are reconstructed from an order
census.  Nothing is shared with the lattice path, so agreement between the
two is meaningful.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from math import gcd

from .arith import additive_order, factorize, lcm
from .errors import BudgetExceeded, NotAGroup, SplineError
from .graph import EdgeLabeledGraph

DEFAULT_BUDGET = 10**7
_ENV_BUDGET = "SPLINEMOD_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(_ENV_BUDGET)
    if env is None:
        return DEFAULT_BUDGET
    try:
        return int(env)
    except ValueError:
        raise SplineError(f"{_ENV_BUDGET}={env!r} is not an integer") from None


def enumerate_splines(
    G: EdgeLabeledGraph, budget: int | None = None
) -> list[tuple[int, ...]]:
    """All splines on G in lexicographic order.

    The search space is m**n; if that exceeds the budget the enumeration is
    refused outright (BudgetExceeded reports the required budget) rather than
    silently truncated.
    """
    if G.modulus == 0:
        raise ValueError("cannot enumerate splines over the integers")
    m, n = G.modulus, G.n
    cap = resolve_budget(budget)
    required = m**n
    if required > cap:
        raise BudgetExceeded(required, cap)
    if m == 1:
        return [(0,) * n]
    # Edges grouped by their later endpoint so each partial labeling is
    # checked as soon as both ends are assigned.
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, label in G.edges:
        a, b = (u, v) if u > v else (v, u)
        g = gcd(label, m)
        constraints[a].append((b, m if g == 0 else g))

    out: list[tuple[int, ...]] = []
    values = [0] * n

    def extend(k: int):
        if k == n:
            out.append(tuple(values))
            return
        checks = constraints[k]
        for x in range(m):
            ok = True
            for other, g in checks:
                if (values[other] - x) % g:
                    ok = False
                    break
            if ok:
                values[k] = x
                extend(k + 1)

    extend(0)
    return out


@dataclass(frozen=True)
class ModuleFingerprint:
    """Order census of a finite module and the invariant factors it forces."""

    total_order: int
    order_census: tuple[tuple[int, int], ...]  # (additive order, count), sorted
    invariant_factors: tuple[int, ...]  # ascending divisibility chain


def fingerprint(
    splines: list[tuple[int, ...]], m: int, spot_checks: int = 64
) -> ModuleFingerprint:
    """Census the additive orders of a spline set and read off the module.

    The set must be closed under addition mod m; closure is spot-checked on
    random pairs (NotAGroup on failure), never assumed silently.
    """
    if not splines:
        raise NotAGroup("empty set cannot be a module")
    index = set(splines)
    n = len(splines[0])
    if (0,) * n not in index:
        raise NotAGroup("zero vector missing")
    rng = random.Random(0xC0FFEE)
    for _ in range(min(spot_checks, len(splines) ** 2)):
        a = rng.choice(splines)
        b = rng.choice(splines)
        s = tuple((x + y) % m for x, y in zip(a, b))
        if s not in index:
            raise NotAGroup(f"{a} + {b} leaves the set")

    census: dict[int, int] = {}
    for f in splines:
        d = additive_order(f, m)
        census[d] = census.get(d, 0) + 1
    factors = _factors_from_census(census, m)
    total = len(splines)
    check = 1
    for d in factors:
        check *= d
    if check != total:
        raise NotAGroup(
            f"census of {total} elements is not consistent with a module"
        )
    return ModuleFingerprint(total, tuple(sorted(census.items())), factors)


def _factors_from_census(census: dict[int, int], m: int) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from its order census.

    For each prime p, the count of elements killed by p**j determines how
    many cyclic summands have p-adic valuation >= j; stitching the per-prime
    exponent profiles together (largest with largest) gives the divisibility
    chain.
    """
    exponent = 1
    for d in census:
        exponent = lcm(exponent, d)
    if exponent == 1:
        return ()
    profiles: dict[int, list[int]] = {}
    for p, a in factorize(exponent).pairs:
        # log_p of #{x : p**j x = 0} for j = 0..a
        logs = []
        for j in range(a + 1):
            cnt = sum(c for d, c in census.items() if p**j % d == 0)
            lg = 0
            while p**lg < cnt:
                lg += 1
            if p**lg != cnt:
                raise NotAGroup(f"element count {cnt} is not a power of {p}")
            logs.append(lg)
        counts_ge = [logs[j] - logs[j - 1] for j in range(1, a + 1)]
        # counts_ge[j-1] = number of summands with valuation >= j
        profile = []
        for slot in range(counts_ge[0]):
            val = sum(1 for c in counts_ge if c > slot)
            profile.append(val)
        profiles[p] = profile  # descending valuations
    t = max(len(pr) for pr in profiles.values())
    factors_desc = []
    for slot in range(t):
        d = 1
        for p, pr in profiles.items():
            if slot < len(pr):
                d *= p ** pr[slot]
        factors_desc.append(d)
    return tuple(reversed(factors_desc))


def span(
    generators: list[tuple[int, ...]],
    m: int,
    n: int,
    budget: int | None = None,
) -> set[tuple[int, ...]]:
    """Closure of the generators under addition mod m (includes zero)."""
    cap = resolve_budget(budget)
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise BudgetExceeded(len(seen), cap)
                    nxt.append(y)
        frontier = nxt
    return seen


def span_equals(
    generators: list[tuple[int, ...]],
    splines: list[tuple[int, ...]],
    m: int,
    budget: int | None = None,
) -> bool:
    """True iff the Z-span mod m of the generators is exactly the given set."""
    if not splines:
        return not generators
    n = len(splines[0])
    closure = span(generators, m, n, budget)
    return closure == set(splines)
