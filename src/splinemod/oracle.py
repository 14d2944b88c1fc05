"""Brute-force ground truth at desk scale.

Everything here is deliberately naive: splines are found by exhausting the
full vertex-labeling space, spans are found by closure under addition, and
invariant factors are reconstructed from an order census.  Nothing is shared
with the lattice path, so agreement between the two is meaningful.

Neither search does work twice.  The labeling search is split at the middle
vertex: the first half's splines are listed, and the second half is
searched once per key, the residues a prefix shows its crossing edges, since
prefixes with one key admit the same suffixes.  Within each half a vertex
steps through the one residue class its tightest earlier edge allows and
checks its other edges as usual.  The closure adds whole cosets of the span
so far.  Both stay exhaustive: every spline is listed and every element
of the span is built, each exactly once.

The per-element work runs in C iterators.  The census counts the gcd of each
spline's entries and turns each distinct gcd d into the order m / gcd(m, d)
once.  The closure holds a coset as one column per coordinate.  When
m <= 256 every residue fits in a byte, so a column is a bytes object and
is shifted by g_i with one bytes.translate through a 256-byte table of
(a + g_i) mod m; past 256 a column is a list, shifted by looking each
entry up in a table filled as residues are met.  The span check keeps no
closure of its own: it strikes each coset off the one hash set it builds
over the splines and answers False at the first coset that holds a
non-spline.

The census and the span check take the splines as `enumerate_splines`
returns them, a list in strict lexicographic order, and answer their few
membership probes (the zero vector, the closure spot checks, one per
generator and one per coset) by bisecting that list.  A probe says
"present" only when it finds the vector itself, so a list that is unsorted
or incomplete can only make a probe read "absent": `span_equals` then
answers False and `fingerprint` raises InternalInconsistency.  Neither
accepts a wrong answer.

The splines come from the program, not the user, so a census that is not a
group's is a defect: InternalInconsistency, which the CLI reports as a
cross-check mismatch (exit 4).
"""

from __future__ import annotations

import os
import random
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain, starmap
from math import gcd, lcm, prod
from operator import add, methodcaller

from .arith import factorize
from .errors import BudgetExceeded, InternalInconsistency, SplineError
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

    The search is split at the middle vertex s = n // 2.  The prefixes, the
    splines of vertices 0..s-1 and the edges among them, are listed first.
    The crossing edges, (o, k, g) with o < s <= k, read a prefix p only
    through p[o] mod g, so two prefixes that agree on those residues (the
    prefix's key) admit the same suffixes (THEORY.md, lemma 3).  Each key's
    suffixes are listed once, with vertices s..n-1 searched on the first
    prefix that reaches the key, and every prefix with that key is joined
    to each of them.  Every key is reached by some prefix, so the suffix
    lists together hold no more tuples than the result, and they are
    dropped on return.

    Each half is searched vertex by vertex, and each edge is checked as soon
    as both its ends are set.  An edge uv with g = gcd(label, m) and u
    already set admits at v exactly the x with x = f_u mod g; since g
    divides m, they are range(f_u % g, m, g).  So v steps through that
    class for its tightest earlier edge and tests the others: every spline
    is still listed, but no value that edge rejects is tried.

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

    s = n // 2
    # The key's entries; a unit modulus reads every prefix alike.
    crossing = {
        (o, g) for k in range(s, n) for o, g in (first[k], *constraints[k]) if o < s and g > 1
    }
    values = [0] * n
    suffixes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    out: list[tuple[int, ...]] = []
    for p in _search(constraints, first, m, 0, s, values):
        key = tuple([p[o] % g for o, g in crossing])
        tails = suffixes.get(key)
        if tails is None:
            values[:s] = p
            tails = suffixes[key] = _search(constraints, first, m, s, n, values)
        out.extend(map(p.__add__, tails))
    return out


def _search(
    constraints: list[list[tuple[int, int]]],
    first: list[tuple[int, int]],
    m: int,
    start: int,
    stop: int,
    values: list[int],
) -> list[tuple[int, ...]]:
    """The values of vertices start..stop-1, in lexicographic order, over
    every way to set them that passes their edges to each other and to the
    vertices before start, which read values[:start].

    A loop, not a recursion, so the depth of the search is not bounded by
    Python's stack: m = 1 passes any budget on any number of vertices.
    candidates[k] is vertex k's range, resumed when the search backs up.
    """
    if start == stop:
        return [()]
    out: list[tuple[int, ...]] = []
    last = stop - 1
    candidates = [None] * stop
    prev, step = first[start]
    candidates[start] = iter(range(values[prev] % step, m, step))
    k = start
    while k >= start:
        checks = constraints[k]
        for x in candidates[k]:
            for other, g in checks:
                if (values[other] - x) % g:
                    break
            else:
                values[k] = x
                if k == last:
                    out.append(tuple(values[start:stop]))
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


def fingerprint(splines: Sequence[tuple[int, ...]], m: int) -> ModuleFingerprint:
    """Census the additive orders of a spline set and read off the module.

    ``splines`` is a list of residue vectors in strict lexicographic order,
    as `enumerate_splines` returns it.  The set must be closed under
    addition mod m; closure is spot-checked on 64 random pairs, never
    assumed silently.  A set that fails a check raises
    InternalInconsistency.  The zero vector is present exactly when it
    comes first, and each sum is looked up by bisection, so a list out of
    order or with an element missing can only raise, never pass a check it
    should fail.
    """
    if not splines:
        raise InternalInconsistency("empty set cannot be a module")
    n = len(splines[0])
    if splines[0] != (0,) * n:
        raise InternalInconsistency("zero vector missing")
    rng = random.Random(0xC0FFEE)
    picks = rng.choices(splines, k=2 * min(64, len(splines) ** 2))
    for a, b in zip(picks[::2], picks[1::2]):
        s = tuple(map(m.__rmod__, map(add, a, b)))
        if not _holds(splines, s):
            raise InternalInconsistency(f"{a} + {b} leaves the set")

    # The additive order of v is m / gcd(m, v_1, ..., v_n); for n = 0 the
    # gcd of no entries is 0 and the order is 1.
    census: Counter[int] = Counter()
    for d, count in Counter(starmap(gcd, splines)).items():
        census[m // gcd(m, d)] += count
    factors = _factors_from_census(census, m)
    total = len(splines)
    if prod(factors) != total:
        raise InternalInconsistency(
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
                raise InternalInconsistency(f"element count {cnt} is not a power of {p}")
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


def _translate(step: int, m: int) -> Callable[[bytes], bytes]:
    """Shift a byte column by step mod m (m <= 256): one bytes.translate
    through the table a -> (a + step) mod m, built from three slices."""
    return methodcaller(
        "translate", bytes(range(step, m)) + bytes(range(step)) + bytes(range(m, 256))
    )


def _map_shift(step: int, m: int) -> Callable[[list[int]], list[int]]:
    """Shift a list column by step mod m, through a _Shift table."""
    shift = _Shift(step, m).__getitem__
    return lambda col: list(map(shift, col))


def _chain_list(cols: Sequence[list[int]]) -> list[int]:
    """The list columns of several cosets, joined end to end."""
    return list(chain.from_iterable(cols))


def _holds(splines: Sequence[tuple[int, ...]], x: tuple[int, ...]) -> bool:
    """Whether x is in the sorted list: True only if it is found there."""
    i = bisect_left(splines, x)
    return i < len(splines) and splines[i] == x


def span_equals(
    generators: Sequence[tuple[int, ...]],
    splines: Sequence[tuple[int, ...]],
    m: int,
    budget: int | None = None,
) -> bool:
    """True iff the Z-span mod m of the generators is exactly the splines.

    ``splines`` is a list in strict lexicographic order, as
    `enumerate_splines` returns it.  The span is built but not kept: the
    one hash set built over the splines loses each coset of it as the
    coset is built.  One that removes fewer elements than it has holds an
    element outside the list, and the answer is False there, before the
    rest of the span is built.  BudgetExceeded is raised if the span would
    pass ``budget`` elements before the answer is settled, before the coset
    that passes it is built: given the whole span as the list and a budget
    of at least 1, exactly when the span has more than ``budget`` elements.

    The closure under addition mod m is grown one generator g at a time.
    If S is the closure so far and k the least k > 0 with k*g in S, the
    closure of S and g is the disjoint union of the cosets S, S + g, ...,
    S + (k-1)*g; each coset is the previous one shifted by g.  So every
    element is built exactly once, by one vector addition, where a
    breadth-first search builds it once per generator.  It stays brute
    force: it uses only addition and membership.

    A coset is held as n columns, whose rows are the elements; a column
    with g_i = 0 is kept as it is.  The column kind is chosen once per call.
    When m <= 256 a residue fits in one byte: a column is bytes, a
    closure's cosets are joined with b"".join, and column i is shifted by
    one bytes.translate through the 256-byte table a -> (a + g_i) mod m,
    so the shift runs in C without a lookup per entry.  Past 256 a byte
    cannot hold a residue: a column is a list, shifted entry by entry
    through a table a -> (a + g_i) mod m filled as residues are met, so it
    never outgrows its column however large m is.  Either way zip over the
    columns yields the same tuples.

    Whether a generator or a multiple is already in the closure is asked
    of the set and then, for a vector it no longer holds, of the list by
    bisection: one probe per generator and per coset.  A probe finds only
    what the list holds, so an unsorted or incomplete list can only make a
    built element read as new; the coset it starts removes nothing new and
    the answer is False.  It is never True for a list the generators do
    not span.
    """
    cap = resolve_budget(budget)
    zero = (0,) * len(splines[0]) if splines else ()
    if not _holds(splines, zero):
        return False
    remaining = set(splines)
    remaining.discard(zero)

    def built(x: tuple[int, ...]) -> bool:
        # while every element built is a member, the closure is exactly
        # the members less remaining
        return x not in remaining and _holds(splines, x)

    if m <= 256:
        origin, flatten, shifter = b"\0", b"".join, _translate
    else:
        origin, flatten, shifter = [0], _chain_list, _map_shift
    parts = [[origin] * len(zero)]  # the closure so far, as the columns of its cosets
    size = 1
    for g in generators:
        g = tuple(x % m for x in g)
        if built(g):
            continue
        coset = [flatten(col) for col in zip(*parts)]
        parts = [coset]
        shifts = [shifter(x, m) if x else None for x in g]
        base, multiple = size, g
        while not built(multiple):
            if size + base > cap:
                raise BudgetExceeded(size + base, cap)
            coset = [shift(col) if shift else col for shift, col in zip(shifts, coset)]
            left = len(remaining)
            remaining.difference_update(zip(*coset))
            if left - len(remaining) < base:
                return False
            parts.append(coset)
            size += base
            multiple = tuple((a + x) % m for a, x in zip(multiple, g))
    return not remaining
