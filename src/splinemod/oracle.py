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

The per-element work runs in C iterators.  The census counts the gcd of each
spline's entries and turns each distinct gcd d into the order m / gcd(m, d)
once.  The closure holds a coset as one column per coordinate and shifts a
column by looking each entry up in a table of (a + g_i) mod m.  The span
check keeps no closure of its own: it strikes each coset off a copy of the
spline set and answers False at the first coset that holds a non-spline.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from collections.abc import Callable, Collection, Iterator, Sequence, Set as AbstractSet
from dataclasses import dataclass
from itertools import chain, starmap
from math import gcd, lcm, prod

from .arith import factorize
from .errors import BudgetExceeded, NotAGroup, SplineError
from .graph import EdgeLabeledGraph

DEFAULT_BUDGET = 10**7
_ENV_BUDGET = "SPLINEMOD_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """The enumeration budget: the argument, else the environment, else the
    default.  A negative or non-integer budget is an input error; a budget
    of 0 admits no enumeration."""
    if budget is not None:
        if budget < 0:
            raise SplineError(f"budget {budget} is negative")
        return budget
    env = os.environ.get(_ENV_BUDGET)
    if env is None:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise SplineError(f"{_ENV_BUDGET}={env!r} is not an integer") from None
    if value < 0:
        raise SplineError(f"{_ENV_BUDGET}={env!r} is negative")
    return value


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

    # A loop, not a recursion, so the depth of the search is not bounded by
    # Python's stack: m = 1 passes any budget on any number of vertices.
    # candidates[k] is vertex k's range, resumed when the search backs up.
    out: list[tuple[int, ...]] = []
    values = [0] * n
    last = n - 1
    candidates = [iter(range(m))] + [None] * last
    k = 0
    while k >= 0:
        checks = constraints[k]
        for x in candidates[k]:
            for other, g in checks:
                if (values[other] - x) % g:
                    break
            else:
                values[k] = x
                if k == last:
                    out.append(tuple(values))
                    continue
                k += 1
                prev, step = first[k]
                candidates[k] = iter(range(values[prev] % step, m, step))
                break
        else:
            k -= 1
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
    members: AbstractSet[tuple[int, ...]] | None = None,
) -> ModuleFingerprint:
    """Census the additive orders of a spline set and read off the module.

    The set must be closed under addition mod m; closure is spot-checked on
    64 random pairs (NotAGroup on failure), never assumed silently.
    ``members`` is the set of the splines, if the caller already holds it.
    """
    if not splines:
        raise NotAGroup("empty set cannot be a module")
    index = set(splines) if members is None else members
    n = len(splines[0])
    if (0,) * n not in index:
        raise NotAGroup("zero vector missing")
    rng = random.Random(0xC0FFEE)
    for _ in range(min(64, len(splines) ** 2)):
        a = rng.choice(splines)
        b = rng.choice(splines)
        s = tuple((x + y) % m for x, y in zip(a, b))
        if s not in index:
            raise NotAGroup(f"{a} + {b} leaves the set")

    # The additive order of v is m / gcd(m, v_1, ..., v_n); for n = 0 the
    # gcd of no entries is 0 and the order is 1.
    census: Counter[int] = Counter()
    for d, count in Counter(starmap(gcd, splines)).items():
        census[m // gcd(m, d)] += count
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


class _Shift(dict):
    """The table a -> (a + step) mod m, each entry made on its first lookup."""

    def __init__(self, step: int, m: int):
        self.step, self.m = step, m

    def __missing__(self, a: int) -> int:
        self[a] = b = (a + self.step) % self.m
        return b


def _cosets(
    generators: Sequence[tuple[int, ...]],
    m: int,
    n: int,
    cap: int,
    built: Callable[[tuple[int, ...]], bool],
) -> Iterator[list[list[int]]]:
    """Yield each new coset of the closure of the generators as n columns.

    ``built(x)`` says whether x is in the closure so far: zero and every
    coset yielded before.  The caller records each coset it is given.

    The closure under addition mod m is grown one generator g at a time.
    If S is the closure so far and k the least k > 0 with k*g in S, the
    closure of S and g is the disjoint union of the cosets S, S + g, ...,
    S + (k-1)*g; each coset is the previous one shifted by g.  So every
    element is built exactly once, by one vector addition, where a
    breadth-first search builds it once per generator.  It stays brute
    force: it uses only addition and membership.  BudgetExceeded is raised
    exactly when the closure would pass ``cap`` elements, before the coset
    that passes it is built.

    A coset is held as n columns.  Column i is shifted through a table
    a -> (a + g_i) mod m, one per generator and column, filled as residues
    are met, so it never outgrows its column however large m is; a column
    with g_i = 0 is kept as it is.  The rows of the columns are the elements.
    """
    parts = [[[0]] * n]  # the closure so far, as the columns of its cosets
    size = 1
    for g in generators:
        g = tuple(x % m for x in g)
        if built(g):
            continue
        coset = [list(chain.from_iterable(col)) for col in zip(*parts)]
        parts = [coset]
        shifts = [_Shift(x, m).__getitem__ if x else None for x in g]
        base, multiple = size, g
        while not built(multiple):
            if size + base > cap:
                raise BudgetExceeded(size + base, cap)
            coset = [
                list(map(shift, col)) if shift else col
                for shift, col in zip(shifts, coset)
            ]
            yield coset
            parts.append(coset)
            size += base
            multiple = tuple((a + x) % m for a, x in zip(multiple, g))


def span_equals(
    generators: Sequence[tuple[int, ...]],
    splines: Collection[tuple[int, ...]],
    m: int,
    budget: int | None = None,
) -> bool:
    """True iff the Z-span mod m of the generators is exactly the given set.

    ``splines`` may be a list or a set; a set is used as it stands and left
    unchanged.  The span is built by `_cosets`, as the disjoint cosets of
    its closure under addition, but not kept: a copy of the set loses each
    coset as it is built.  One that removes fewer elements than it has
    holds an element outside the set, and the answer is False there,
    before the rest of the span is built.  BudgetExceeded is raised if the
    span passes the budget before the answer is settled: given the whole
    span as the set and a budget of at least 1, exactly when the span has
    more than ``budget`` elements.
    """
    cap = resolve_budget(budget)
    members = splines if isinstance(splines, AbstractSet) else set(splines)
    zero = (0,) * len(next(iter(members), ()))
    if zero not in members:
        return False
    remaining = set(members)
    remaining.discard(zero)

    def built(x: tuple[int, ...]) -> bool:
        # while every element built is a member, the closure is exactly
        # members - remaining
        return x in members and x not in remaining

    for coset in _cosets(generators, m, len(zero), cap, built):
        left = len(remaining)
        remaining.difference_update(zip(*coset))
        if left - len(remaining) < len(coset[0]):
            return False
    return not remaining
