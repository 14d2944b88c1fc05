"""Seeded instance sets for the four workloads.

Every workload is a fixed list of slots.  A slot fixes the make-up of one
case (command, graph shape, modulus class, size bin) and the seed fills in
the rest (which edges, which labels, which primes), so two seeds give
different instances of the same make-up.  One pass over the slots is a
round; a run repeats whole rounds.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from functools import partial
from math import gcd
from pathlib import Path
from typing import Callable

from checks import (
    Graph,
    check_construct,
    check_cycle,
    check_extend,
    check_integer,
    check_oracle,
    check_solve,
    module_factors,
    prime_factors,
)

# Squarefree moduli take their primes from here; with six of them m stays
# below 2**18, so the entries of m * B^-1 stay under 20 bits.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17)


@dataclass(frozen=True)
class Case:
    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float  # per-case time limit; a case that reaches it fails
    build: Callable[[int, Path], list[Case]]


# ------------------------------------------------------------------ graphs


def random_graph(rng: random.Random, n: int, e: int, m: int, label=None) -> Graph:
    """Connected simple graph: a random spanning tree plus e - n + 1 edges.

    Labels are uniform residues mod m unless ``label`` draws them.
    """
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
    seen = {frozenset(p) for p in pairs}
    while len(pairs) < e:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            pairs.append((u, v))
    draw = label or (lambda: rng.randrange(m))
    return Graph(m, n, tuple((u, v, draw()) for u, v in pairs))


def cycle_graph(n: int, m: int, labels: list[int]) -> Graph:
    return Graph(m, n, tuple((i, (i + 1) % n, labels[i]) for i in range(n)))


def write(G: Graph, path: Path, names: list[str] | None = None) -> str:
    path.write_text(G.to_text(names))
    return str(path)


def divisors(m: int) -> list[int]:
    out = [1]
    for p, a in prime_factors(m):
        out = [d * p**k for d in out for k in range(a + 1)]
    return sorted(out)


# ----------------------------------------------------------------- moduli

PRIME_POWERS = sorted(p**k for p in (2, 3, 5, 7) for k in range(1, 11) if 16 <= p**k <= 1024)


def squarefree(rng: random.Random, primes: int) -> int:
    m = 1
    for p in rng.sample(SMALL_PRIMES, primes):
        m *= p
    return m


def mixed(rng: random.Random, cap=10**5) -> int:
    """Two or three primes from 2..11, at least one squared or higher, at
    most ``cap``."""
    while True:
        primes = rng.sample((2, 3, 5, 7, 11), rng.randint(2, 3))
        exps = [rng.randint(1, 3) for _ in primes]
        exps[0] = max(exps[0], 2)
        m = 1
        for p, k in zip(primes, exps):
            m *= p**k
        if m <= cap:
            return m


def log_bins(lo: float, hi: float, count: int) -> list[tuple[float, float]]:
    ratio = (hi / lo) ** (1 / count)
    return [(lo * ratio**i, lo * ratio ** (i + 1)) for i in range(count)]


# ------------------------------------------------------------ solve-default

DEFAULT_N = (8, 11, 14, 17, 20, 23, 26, 30)
INTEGER_N = (8, 10, 12, 14)
# Instances drawn per shape.  More distinct instances in a round make the
# metrics depend less on which instances a seed happened to draw.
COPIES = 2


def dense_edges(n: int) -> int:
    # 2.7n for small n; for larger n the cycle rank is capped so that the
    # direct path stays well inside the case limit (its kernel-HNF
    # coefficients grow with n times the cycle rank).
    return min(round(2.7 * n), n - 1 + 450 // n)


def edge_counts(n: int, dense: int) -> tuple[int, int, int]:
    return n - 1, (n - 1 + dense) // 2, dense


def hang_graph() -> Graph:
    """The fixed n=30, e=80, m=30030 graph on which the direct path runs far
    past the case limit (the CRT path solves it in milliseconds)."""
    rng = random.Random("solve-default/hang")
    return random_graph(rng, 30, 80, 30030)


def build_solve_default(seed: int, work: Path) -> list[Case]:
    rng = random.Random(f"solve-default/{seed}")
    cases = []

    def add(name, G, check):
        path = write(G, work / f"{len(cases):03d}.txt")
        cases.append(Case(name, ["solve", "--json", path], partial(check, G)))

    for i, n in enumerate(DEFAULT_N):
        for d, e in enumerate(edge_counts(n, dense_edges(n))):
            for copy in range(COPIES):
                kinds = (
                    ("pp", PRIME_POWERS[(6 * i + 2 * d + copy) % len(PRIME_POWERS)]),
                    ("sf", squarefree(rng, 2 + (3 * i + d + copy) % 5)),
                    ("mx", mixed(rng)),
                )
                for kind, m in kinds:
                    G = random_graph(rng, n, e, m)
                    add(f"{kind}/n{n}-e{e}-m{m}", G, check_solve)
    for n in INTEGER_N:
        for e in edge_counts(n, 2 * n):
            for copy in range(COPIES):
                G = random_graph(rng, n, e, 0, lambda: rng.randint(1, 60))
                add(f"int/n{n}-e{e}", G, check_integer)
    add("hang/n30-e80-m30030", hang_graph(), check_solve)
    return cases


# ---------------------------------------------------------------- crt-wide

# (n, e / n, m).  Each slot's modulus is fixed and the seed draws the graph
# and labels: how far normalize collapses a prime component depends on the
# prime, so drawing the primes too would make the workload's cost depend
# on the seed.  Most slots sit near n = 60 so that a run holds over a
# hundred cases.  Mixed moduli stay at n <= 80: a prime power with a high
# exponent is where a component's lattice coefficients grow.
WIDE_SLOTS = (
    (60, 1.0, 30030), (60, 2.0, 10800), (60, 3.0, 9699690), (60, 1.5, 360),
    (60, 2.5, 510510), (60, 1.0, 7560), (60, 3.0, 2310), (60, 2.0, 18900),
    (62, 1.5, 85085), (62, 3.0, 432), (64, 2.0, 9699690), (64, 1.0, 13200),
    (66, 3.0, 30030), (66, 2.5, 10800), (68, 1.0, 1155), (68, 2.0, 7560),
    (70, 3.0, 510510), (70, 1.5, 18900), (72, 2.0, 2310), (72, 3.0, 360),
    (76, 2.5, 9699690), (80, 2.0, 432), (86, 3.0, 30030), (92, 2.0, 210),
    (100, 2.5, 2310), (120, 2.0, 210), (150, 3.0, 210),
)


def build_crt_wide(seed: int, work: Path) -> list[Case]:
    rng = random.Random(f"crt-wide/{seed}")
    cases = []
    for i, (n, density, m) in enumerate(WIDE_SLOTS):
        e = round(n * density)
        G = random_graph(rng, n, e, m)
        path = write(G, work / f"{i:03d}.txt")
        cases.append(Case(f"n{n}-e{e}-m{m}", ["solve", "--crt", "--json", path], partial(check_solve, G)))
    return cases


# ---------------------------------------------------------- paper-families

CYCLE_N = (6, 12, 18, 24, 32, 40)
CYCLE_SLOTS = 24  # per family; slot j has its own narrow bin of m
# Free cycles stop at 24 vertices: at 32 and 40 the lattice fallback's
# kernel HNF ran past 2 s on about one cycle in fifteen, which would make
# the workload's cost depend on the seed.
FREE_N = (6, 9, 12, 16, 20, 24)
CYCLE_BINS = log_bins(1000, 30000, CYCLE_SLOTS)
CONSTRUCT_N = (4, 5, 6, 8)
EXTEND_SLOTS = 16


def carmichael(m: int) -> int:
    """Exponent of the unit group mod m."""
    out = 1
    for p, a in prime_factors(m):
        lam = 2 ** (a - 2) if p == 2 and a >= 3 else (p - 1) * p ** (a - 1)
        out = out * lam // gcd(out, lam)
    return out


def steady(m: int) -> bool:
    # Cycle moduli have a unit group of exponent at most 60.  The
    # power-family scan builds a power table for every non-unit below m,
    # and a table's length follows the multiplicative orders mod m, which
    # one large prime factor can stretch into the thousands; with a small
    # exponent the scan's cost is set by m itself, the same for every seed.
    return carmichael(m) <= 60


@functools.cache
def steady_moduli() -> tuple[int, ...]:
    return tuple(m for m in range(1000, 30000) if steady(m))


def cycle_modulus(lo: float, hi: float, ok) -> int:
    """The middle steady modulus in [lo, hi) that satisfies ``ok``.

    A cycle slot's modulus does not depend on the seed: the scan's cost is
    set by m alone, and it is most of a large cycle's time.
    """
    found = [m for m in steady_moduli() if lo <= m < hi and ok(m)]
    return found[len(found) // 2]


def single_label_cycle(rng, n, lo, hi) -> Graph:
    m = cycle_modulus(lo, hi, lambda m: len(divisors(m)) > 2)
    d = rng.choice(divisors(m)[1:-1])
    unit = rng.randrange(1, m)
    while gcd(unit, m) != 1:
        unit = rng.randrange(1, m)
    return cycle_graph(n, m, [d * unit % m] * n)


def power_family_cycle(rng, n, lo, hi) -> Graph:
    """Labels a**k for k up to a top power that properly divides m."""
    bases = ((2, 4), (3, 4), (6, 3), (2, 3), (3, 3), (2, 2))
    a, top = next(b for b in bases if any(m % b[0] ** b[1] == 0 and m != b[0] ** b[1] for m in steady_moduli() if lo <= m < hi))
    m = cycle_modulus(lo, hi, lambda m: m % a**top == 0 and m != a**top)
    exps = [rng.randint(1, top) for _ in range(n)]
    exps[0], exps[1] = 1, top  # at least two distinct powers
    return cycle_graph(n, m, [a**k for k in exps])


def two_label_cycle(rng, n, lo, hi) -> Graph:
    """Labels m1, m2 with lcm(m1, m2) = m."""
    m = cycle_modulus(lo, hi, lambda m: len(prime_factors(m)) >= 2)
    qs = [p**k for p, k in prime_factors(m)]
    rng.shuffle(qs)
    cut = rng.randint(1, len(qs) - 1)
    big_a = big_b = 1
    for q in qs[:cut]:
        big_a *= q
    for q in qs[cut:]:
        big_b *= q
    m1 = big_a * rng.choice(divisors(big_b)[:-1])
    m2 = big_b * rng.choice(divisors(big_a)[:-1])
    labels = [rng.choice((m1, m2)) for _ in range(n)]
    labels[0], labels[1] = m1, m2
    return cycle_graph(n, m, labels)


def free_cycle(rng, n, lo, hi) -> Graph:
    """Non-unit labels taking at least three ideals: no closed form applies,
    and every form is tried before the lattice fallback."""
    m = cycle_modulus(lo, hi, lambda m: len(divisors(m)) > 4)
    nonunits = [x for x in range(2, m) if gcd(x, m) > 1]
    while True:
        labels = [rng.choice(nonunits) for _ in range(n)]
        if len({gcd(x, m) for x in labels}) >= 3:
            return cycle_graph(n, m, labels)


CYCLE_FAMILIES = (
    ("single", single_label_cycle, CYCLE_N),
    ("power", power_family_cycle, CYCLE_N),
    ("two-label", two_label_cycle, CYCLE_N),
    ("free", free_cycle, FREE_N),
)


def build_paper_families(seed: int, work: Path) -> list[Case]:
    rng = random.Random(f"paper-families/{seed}")
    cases = []
    for family, make, sizes in CYCLE_FAMILIES:
        for j, (lo, hi) in enumerate(CYCLE_BINS):
            n = sizes[j % len(sizes)]
            G = make(rng, n, lo, hi)
            path = write(G, work / f"{len(cases):03d}.txt")
            cases.append(Case(f"cycle-{family}/n{n}-m{G.modulus}", ["cycle", "--json", path], partial(check_cycle, G)))
    for n in CONSTRUCT_N:
        m = rng.choice([m for m in steady_moduli() if len(prime_factors(m)) >= 3])
        for k in range(1, n + 1):
            argv = ["construct", "--json", str(n), str(m), str(k)]
            cases.append(Case(f"construct/{n}-{m}-{k}", argv, partial(check_construct, n=n, m=m, k=k)))
    for i in range(EXTEND_SLOTS):
        n = 6 + 10 * i // (EXTEND_SLOTS - 1)
        m = mixed(rng, cap=10**4) if i % 2 else squarefree(rng, 2 + i % 4)
        base = random_graph(rng, n, n - 1 + rng.randint(0, n), m)
        at = rng.randrange(n + 1)  # position of the new vertex in the extension
        shift = [v if v < at else v + 1 for v in range(n)]
        edges = [(shift[u], shift[v], label) for u, v, label in base.edges]
        for w in rng.sample(range(n), 1 + i % 3):
            edges.append((at, shift[w], rng.randrange(m)))
        ext = Graph(m, n + 1, tuple(edges))
        # the extension keeps the base's vertex names and adds "new"
        ext_names = base.names[:at] + ["new"] + base.names[at:]
        base_path = write(base, work / f"{len(cases):03d}-base.txt")
        ext_path = write(ext, work / f"{len(cases):03d}-ext.txt", ext_names)
        argv = ["extend", "--json", base_path, ext_path, "new"]
        cases.append(Case(f"extend/n{n}-m{m}", argv, partial(check_extend, base, ext, at)))
    return cases


# ------------------------------------------------------------- verify-desk

VERIFY_SOLVE_SLOTS = 144
VERIFY_CYCLE_SLOTS = 48
# Slots are spread evenly in log(oracle work) over this range; see
# oracle_work.  It puts module orders between about 10**2 and 3 * 10**4.
WORK_RANGE = (1e3, 1e6)
HELD_RANGE = (1.0e5, 1.4e5)
COUNT_LIMIT = 10**5  # graphs with m**n at most this are also counted here


def module_order(G: Graph) -> int:
    total = 1
    for d in module_factors(G):
        total *= d
    return total


def oracle_work(G: Graph) -> tuple[int, int]:
    """Steps the brute-force oracle takes on G, up to a constant, and the
    size of the module it holds in memory (order times n).

    Its search tries m values for every spline of each prefix subgraph
    (vertices 0..k-1 with the edges among them), then runs an order census
    and a span closure over the module's elements.  The search alone can
    cost far more than the module order suggests, so slots are binned by
    this count rather than by order.
    """
    m = G.modulus
    nodes = m  # the empty prefix has one spline
    for k in range(1, G.n):
        prefix = Graph(m, k, tuple(e for e in G.edges if max(e[0], e[1]) < k))
        nodes += m * module_order(prefix)
    factors = module_factors(G)
    order = 1
    for d in factors:
        order *= d
    return nodes + order * G.n * (len(factors) + 2), order * G.n


def desk_graphs(rng: random.Random, count: int, cycle: bool) -> list[Graph]:
    """One graph per log-spaced bin of oracle work over WORK_RANGE.

    Candidates are drawn until every bin holds one; a candidate fills the
    bin it falls in if that bin is still empty.  The module the oracle
    holds (order times n) is capped at HELD_RANGE, and the top bin must
    come close to the cap, so every seed's largest oracle run is alike.
    """
    lo, hi = WORK_RANGE
    ratio = (hi / lo) ** (1 / count)
    slots: list[Graph | None] = [None] * count
    while None in slots:
        n = rng.randint(3, 7)
        m = rng.choice([m for m in range(4, 61) if m**n <= 10**6])
        if cycle:
            G = cycle_graph(n, m, [rng.randrange(m) for _ in range(n)])
        else:
            e = rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))
            G = random_graph(rng, n, e, m)
        work, held = oracle_work(G)
        if lo <= work < hi and held < HELD_RANGE[1]:
            b = min(count - 1, int(math.log(work / lo) / math.log(ratio)))
            if slots[b] is None and (b < count - 1 or held >= HELD_RANGE[0]):
                slots[b] = G
    return slots


def _check_verified_cycle(G: Graph, rep: dict) -> list[str]:
    return check_cycle(G, rep) + check_oracle(G, rep, COUNT_LIMIT)


def _check_verified_solve(G: Graph, rep: dict) -> list[str]:
    return check_solve(G, rep) + check_oracle(G, rep, COUNT_LIMIT)


def build_verify_desk(seed: int, work: Path) -> list[Case]:
    rng = random.Random(f"verify-desk/{seed}")
    cases = []
    for cycle, count in ((False, VERIFY_SOLVE_SLOTS), (True, VERIFY_CYCLE_SLOTS)):
        command, check = ("cycle", _check_verified_cycle) if cycle else ("solve", _check_verified_solve)
        for G in desk_graphs(rng, count, cycle):
            path = write(G, work / f"{len(cases):03d}.txt")
            cases.append(Case(f"{command}-verify/n{G.n}-m{G.modulus}", [command, "--verify", "--json", path], partial(check, G)))
    return cases


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-default", 1.0, build_solve_default),
        Workload("crt-wide", 20.0, build_crt_wide),
        Workload("paper-families", 5.0, build_paper_families),
        Workload("verify-desk", 20.0, build_verify_desk),
    )
}
