"""Brute-force ground truth at desk scale.

Everything here is deliberately naive: splines are found by exhausting the
full vertex-labeling space, spans are found by closure under addition, and
invariant factors are reconstructed from an order census.  Nothing is shared
with the lattice path, so agreement between the two is meaningful.

Neither search does work twice.  The labeling search steps each vertex
through the one residue class its tightest earlier edge allows and checks
its other edges as usual; the closure adds whole cosets of the span so far.
Both stay exhaustive: every spline is listed and every element of the span
is built, each exactly once.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from collections.abc import Collection, Set as AbstractSet
from dataclasses import dataclass
from functools import partial
from math import gcd, lcm, prod
from operator import add

from .arith import additive_order, factorize
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

    Vertices are assigned in order, and each edge is checked as soon as
    both ends are.  An edge uv with g = gcd(label, m) and u already set
    admits at v exactly the x with x = f_u mod g; since g divides m, they
    are range(f_u % g, m, g).  So v steps through that class for its tightest
    earlier edge and tests the others: the search still lists every spline,
    in the same depth-first order, but never tries a value that edge rejects.

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
    # Edges grouped by their later endpoint, largest g first.  A vertex with
    # no earlier neighbor steps by 1 through all of Z/m.
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, label in G.edges:
        a, b = (u, v) if u > v else (v, u)
        constraints[a].append((b, gcd(label, m)))
    first = []
    for checks in constraints:
        checks.sort(key=lambda c: -c[1])
        first.append(checks.pop(0) if checks else (0, 1))

    out: list[tuple[int, ...]] = []
    values = [0] * n
    last = n - 1

    def extend(k: int):
        prev, step = first[k]
        checks = constraints[k]
        for x in range(values[prev] % step, m, step):
            for other, g in checks:
                if (values[other] - x) % g:
                    break
            else:
                values[k] = x
                if k == last:
                    out.append(tuple(values))
                else:
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
    splines: list[tuple[int, ...]],
    m: int,
    spot_checks: int = 64,
    members: AbstractSet[tuple[int, ...]] | None = None,
) -> ModuleFingerprint:
    """Census the additive orders of a spline set and read off the module.

    The set must be closed under addition mod m; closure is spot-checked on
    random pairs (NotAGroup on failure), never assumed silently.
    ``members`` is the set of the splines, if the caller already holds it.
    """
    if not splines:
        raise NotAGroup("empty set cannot be a module")
    index = set(splines) if members is None else members
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

    census = Counter(map(partial(additive_order, m=m), splines))
    factors = _factors_from_census(census, m)
    total = len(splines)
    if prod(factors) != total:
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
    exponent = lcm(*census)
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
        profiles[p] = [  # descending valuations
            sum(1 for c in counts_ge if c > slot) for slot in range(counts_ge[0])
        ]
    t = max(len(pr) for pr in profiles.values())
    factors_desc = [
        prod(p ** pr[slot] for p, pr in profiles.items() if slot < len(pr))
        for slot in range(t)
    ]
    return tuple(reversed(factors_desc))


def span(
    generators: list[tuple[int, ...]],
    m: int,
    n: int,
    budget: int | None = None,
) -> set[tuple[int, ...]]:
    """Closure of the generators under addition mod m (includes zero).

    Grown one generator g at a time.  If S is the closure so far and k the
    least k > 0 with k*g in S, the closure of S and g is the disjoint union
    of the cosets S, S + g, ..., S + (k-1)*g; each coset is the previous one
    shifted by g.  So every element is built exactly once, by one vector
    addition, where a breadth-first search builds it once per generator.
    It stays brute force: it uses only addition and membership, and builds
    and stores every element.  For a budget of at least 1, BudgetExceeded
    is raised exactly when the closure has more than ``budget`` elements,
    before the coset that passes it is built.
    """
    cap = resolve_budget(budget)
    mod_m = m.__rmod__  # x -> x % m
    closure = {(0,) * n}
    for g in generators:
        g = tuple(map(mod_m, g))
        if g in closure:
            continue
        coset = list(closure)
        size = len(coset)
        multiple = g
        while multiple not in closure:
            if len(closure) + size > cap:
                raise BudgetExceeded(len(closure) + size, cap)
            coset = [tuple(map(mod_m, map(add, x, g))) for x in coset]
            closure.update(coset)
            multiple = tuple(map(mod_m, map(add, multiple, g)))
    return closure


def span_equals(
    generators: list[tuple[int, ...]],
    splines: Collection[tuple[int, ...]],
    m: int,
    budget: int | None = None,
) -> bool:
    """True iff the Z-span mod m of the generators is exactly the given set.

    ``splines`` may be a list or a set; a set is compared as it stands.
    """
    if not splines:
        return not generators
    n = len(next(iter(splines)))
    members = splines if isinstance(splines, AbstractSet) else set(splines)
    return span(generators, m, n, budget) == members
