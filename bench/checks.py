"""Answer checks that share no code with splinemod.

Every check here is written from the definitions, so a wrong answer from
the program cannot be confirmed by the same wrong code:

* a spline satisfies ``gcd(label, m) | f_u - f_v`` on every edge;
* the module is computed a second way, one prime power q = p**a of m at a
  time: vertices joined by a label divisible by q are merged, unit labels
  are dropped, and the kernel of the remaining edge map over Z/q is read
  off a Smith form over the chain ring Z/q;
* a generating set is confirmed by comparing the order of its span (the
  same Smith form, on the generator matrix) with the module order;
* trees and single-label graphs also have closed forms, and tiny graphs
  can be counted by brute force.

Each ``check_*`` function returns a list of problems; an empty list means
the answer passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence


@dataclass(frozen=True)
class Graph:
    """An edge-labeled graph as the benchmark generates it.

    Vertices are ``v1 .. vn`` in flow-up order; ``edges`` holds
    ``(u, v, label)`` with 0-based vertex indices.  ``modulus == 0`` is
    integer mode.
    """

    modulus: int
    n: int
    edges: tuple[tuple[int, int, int], ...]

    @property
    def names(self) -> list[str]:
        return [f"v{i}" for i in range(1, self.n + 1)]

    def to_text(self, names: list[str] | None = None) -> str:
        names = names or self.names
        lines = [f"mod {self.modulus}", "vertices " + " ".join(names)]
        lines += [f"edge {names[u]} {names[v]} {label}" for u, v, label in self.edges]
        return "\n".join(lines) + "\n"

    def reduced(self, q: int) -> "Graph":
        return Graph(q, self.n, tuple((u, v, label % q) for u, v, label in self.edges))


# ---------------------------------------------------------------- arithmetic


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b) if a and b else 0


def prime_factors(m: int) -> list[tuple[int, int]]:
    """(p, a) pairs of m >= 1 by trial division (the benchmark's moduli are small)."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def additive_order(vec: Sequence[int], m: int) -> int:
    order = 1
    for x in vec:
        order = lcm(order, m // gcd(x, m))
    return order


def chain_from_exponents(exponents: dict[int, list[int]]) -> tuple[int, ...]:
    """Invariant factors (ascending, all > 1) of the group whose p-part is
    the direct sum of Z/p**e over ``exponents[p]``."""
    desc = {p: sorted((e for e in es if e), reverse=True) for p, es in exponents.items()}
    width = max((len(es) for es in desc.values()), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, es in desc.items():
            if i < len(es):
                d *= p ** es[i]
        factors.append(d)
    return tuple(reversed(factors))


def chain_from_cyclic(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors of the direct sum of Z/o over ``orders``."""
    exponents: dict[int, list[int]] = {}
    for o in orders:
        for p, a in prime_factors(o):
            exponents.setdefault(p, []).append(a)
    return chain_from_exponents(exponents)


# ------------------------------------------- Smith form over the ring Z/p**a


def smith_exponents(rows: list[dict[int, int]], p: int, a: int) -> list[int]:
    """Exponents c of the nonzero Smith diagonal entries p**c of a sparse
    matrix over Z/p**a (rows map column -> entry, entries in [1, q)).

    Z/p**a is a chain ring, so pivoting on an entry of least valuation lets
    it clear its column with row operations; its row is then cleared by
    column operations that touch no other row, so it is simply dropped.
    """
    q = p**a
    rows = [dict(r) for r in rows if r]
    out = []
    while rows:
        best = None
        for i, r in enumerate(rows):
            for j, x in r.items():
                v = valuation(x, p)
                if best is None or v < best[0]:
                    best = (v, i, j)
                    if v == 0:
                        break
            if best is not None and best[0] == 0:
                break
        v, i, j = best
        pivot_row = rows.pop(i)
        pv = p**v
        inv = pow(pivot_row[j] // pv, -1, q)
        for r in rows:
            x = r.get(j)
            if not x:
                continue
            f = (x // pv) * inv % q
            for col, y in pivot_row.items():
                z = (r.get(col, 0) - f * y) % q
                if z:
                    r[col] = z
                else:
                    r.pop(col, None)
        rows = [r for r in rows if r]
        out.append(v)
    return out


def _merge_classes(n: int, pairs) -> list[int]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    roots = sorted({find(i) for i in range(n)})
    index = {r: k for k, r in enumerate(roots)}
    return [index[find(i)] for i in range(n)]


def local_exponents(G: Graph, p: int, a: int) -> list[int]:
    """Exponents of the cyclic summands of the spline module of G mod p**a."""
    q = p**a
    vals = [(u, v, min(a, valuation(label % q, p)) if label % q else a) for u, v, label in G.edges]
    cls = _merge_classes(G.n, [(u, v) for u, v, b in vals if b == a])
    k = max(cls) + 1
    rows = []
    for u, v, b in vals:
        cu, cv = cls[u], cls[v]
        if 0 < b < a and cu != cv:
            # f is a spline iff p**(a-b) * (f_u - f_v) == 0 mod q on this edge
            s = p ** (a - b)
            rows.append({cu: s, cv: q - s})
    diag = smith_exponents(rows, p, a)
    # kernel of the edge map on (Z/q)^k: Z/p**c per pivot, Z/q per free class
    return diag + [a] * (k - len(diag))


def module_factors(G: Graph) -> tuple[int, ...]:
    """Invariant factors of the spline module of G over Z/m (m >= 2)."""
    return chain_from_exponents(
        {p: local_exponents(G, p, a) for p, a in prime_factors(G.modulus)}
    )


def span_order(vectors: Sequence[Sequence[int]], m: int) -> int:
    """Order of the subgroup of (Z/m)^n generated by ``vectors``."""
    total = 1
    for p, a in prime_factors(m):
        q = p**a
        # rows are coordinates, columns generators: the image of Z^k
        n = len(vectors[0]) if vectors else 0
        rows = []
        for i in range(n):
            row = {j: vec[i] % q for j, vec in enumerate(vectors) if vec[i] % q}
            rows.append(row)
        for c in smith_exponents(rows, p, a):
            total *= p ** (a - c)
    return total


def tree_factors(G: Graph) -> tuple[int, ...]:
    """Closed form on a tree: Z/m + sum over edges of Z/(m / gcd(label, m))."""
    m = G.modulus
    return chain_from_cyclic([m] + [m // gcd(label, m) for _, _, label in G.edges])


def single_label_factors(G: Graph) -> tuple[int, ...]:
    """Closed form on a connected graph with one label a: Z/m + (Z/(m/a))^(n-1)."""
    m = G.modulus
    a = gcd(G.edges[0][2], m)
    return chain_from_cyclic([m] + [m // a] * (G.n - 1))


def expected_factors(G: Graph) -> tuple[int, ...]:
    """The closed form where one applies, else the local Smith computation."""
    connected = G.n == 1 or max(_merge_classes(G.n, [(u, v) for u, v, _ in G.edges])) == 0
    if connected and len(G.edges) == G.n - 1:
        return tree_factors(G)
    if connected and len({gcd(label, G.modulus) for _, _, label in G.edges}) == 1:
        return single_label_factors(G)
    return module_factors(G)


def is_spline(G: Graph, vec: Sequence[int]) -> bool:
    if len(vec) != G.n:
        return False
    m = G.modulus
    if m and any(not 0 <= x < m for x in vec):
        return False
    for u, v, label in G.edges:
        g = gcd(label, m)
        diff = vec[u] - vec[v]
        if (diff % g if g else diff) != 0:
            return False
    return True


def brute_force_count(G: Graph) -> int:
    """Number of splines, by exhausting labelings vertex by vertex."""
    m = G.modulus
    back: list[list[tuple[int, int]]] = [[] for _ in range(G.n)]
    for u, v, label in G.edges:
        back[max(u, v)].append((min(u, v), gcd(label, m)))
    values = [0] * G.n

    def count(k: int) -> int:
        if k == G.n:
            return 1
        total = 0
        for x in range(m):
            if all((values[w] - x) % g == 0 for w, g in back[k]):
                values[k] = x
                total += count(k + 1)
        return total

    return count(0)


# ---------------------------------------------------------------- the checks


def _leading(vec: Sequence[int]) -> int:
    return next((i for i, x in enumerate(vec) if x), len(vec))


def check_module(G: Graph, rep: dict, where: str, expected=None) -> list[str]:
    """Factors, minimum generating set and flow-up set of a module block."""
    m = G.modulus
    problems = []
    factors = tuple(rep["invariant_factors"])
    want = expected_factors(G) if expected is None else expected
    if factors != want:
        problems.append(f"{where}: factors {factors} != independent {want}")
    if any(d <= 1 or m % d for d in factors):
        problems.append(f"{where}: factors {factors} are not divisors of {m} above 1")
    if any(b % a for a, b in zip(factors, factors[1:])):
        problems.append(f"{where}: factors {factors} do not form a divisibility chain")
    order = 1
    for d in factors:
        order *= d
    if rep["order"] != order or rep["rank"] != len(factors):
        problems.append(f"{where}: order/rank {rep['order']}/{rep['rank']} disagree with {factors}")
    mgs = rep["minimum_generating_set"]
    if len(mgs) != len(factors):
        problems.append(f"{where}: {len(mgs)} generators for {len(factors)} factors")
    for i, (vec, d) in enumerate(zip(mgs, factors)):
        if not is_spline(G, vec):
            problems.append(f"{where}: generator {i} is not a spline")
        elif additive_order(vec, m) != d:
            problems.append(f"{where}: generator {i} has order {additive_order(vec, m)}, factor {d}")
    if not problems and mgs and span_order(mgs, m) != order:
        problems.append(f"{where}: generators span {span_order(mgs, m)} of {order} splines")
    flow = rep.get("flow_up_generators") or []
    leads = [_leading(vec) for vec in flow]
    if any(b <= a for a, b in zip(leads, leads[1:])) or any(i >= G.n for i in leads):
        problems.append(f"{where}: flow-up vectors are not triangular (leads {leads})")
    elif flow:
        lead_orders = 1
        for vec, i in zip(flow, leads):
            if not is_spline(G, vec):
                problems.append(f"{where}: flow-up vector {vec} is not a spline")
            lead_orders *= m // gcd(vec[i], m)
        # A triangular set inside the module spans at least the product of
        # its leading orders, so equality with the order proves it generates.
        if lead_orders != order:
            problems.append(f"{where}: flow-up leads give {lead_orders}, order is {order}")
    return problems


def check_solve(G: Graph, rep: dict) -> list[str]:
    """`solve --json` on a finite modulus, in any path mode."""
    expected = expected_factors(G)
    problems = check_module(G, rep, "solve", expected)
    display = sorted(map(tuple, rep.get("display_generating_set", [])))
    if display != sorted(map(tuple, rep["minimum_generating_set"])):
        problems.append("display generating set is not the minimum generating set")
    crt = rep.get("crt")
    if crt is not None:
        qs = [c["prime_power"] for c in crt["components"]]
        if sorted(qs) != sorted(p**a for p, a in prime_factors(G.modulus)):
            problems.append(f"crt components {qs} are not the prime powers of {G.modulus}")
        for comp in crt["components"]:
            q = comp["prime_power"]
            problems += check_module(G.reduced(q), comp, f"crt component {q}")
        problems += check_module(G, crt, "crt recombined", expected)
    return problems


def check_integer(G: Graph, rep: dict) -> list[str]:
    """`solve --json` in integer mode (``mod 0``, labels all nonzero)."""
    cols = rep["lattice_basis_columns"]
    problems = []
    if len(cols) != G.n:
        problems.append(f"{len(cols)} basis columns for {G.n} vertices")
    for j, col in enumerate(cols):
        if _leading(col) != j or col[j] <= 0:
            problems.append(f"column {j} is not lower-triangular with a positive pivot")
        if not is_spline(G, col):
            problems.append(f"column {j} is not a spline over Z")
    if problems:
        return problems
    # L contains M*Z^n for M the lcm of the labels, and [Z^n : L] =
    # M^n / #(splines mod M); triangular columns in L with that pivot
    # product therefore span L.
    big_m = 1
    for _, _, label in G.edges:
        big_m = lcm(big_m, label)
    count = 1
    for d in module_factors(Graph(big_m, G.n, G.edges)):
        count *= d
    pivots = 1
    for j, col in enumerate(cols):
        pivots *= col[j]
    if pivots * count != big_m**G.n:
        problems.append(f"pivot product {pivots} != lattice index {big_m**G.n // count}")
    return problems


def check_cycle(G: Graph, rep: dict) -> list[str]:
    """`cycle --json`: the module, plus the closed-form generating set."""
    m = G.modulus
    expected = expected_factors(G)
    problems = check_module(G, rep, "cycle", expected)
    gens = rep["generating_set"]
    splines = gens["splines"]
    if gens["orders"] != [additive_order(v, m) for v in splines]:
        problems.append("generating set orders are misreported")
    if any(not is_spline(G, v) for v in splines):
        problems.append("generating set holds a non-spline")
    elif span_order(splines, m) != rep["order"]:
        problems.append("generating set does not span the module")
    if gens["minimum"] and sorted(gens["orders"]) != list(expected):
        problems.append(f"minimum set orders {sorted(gens['orders'])} != factors {expected}")
    return problems


def check_construct(rep: dict, n: int, m: int, k: int) -> list[str]:
    """`construct --json N M K`: a graph on N vertices over Z/M of rank K."""
    inst = rep["instance"]
    index = {name: i for i, name in enumerate(inst["vertices"])}
    if inst["mod"] != m or len(index) != n:
        return [f"constructed instance has mod {inst['mod']} and {len(index)} vertices"]
    G = Graph(m, n, tuple((index[u], index[v], label) for u, v, label in inst["edges"]))
    rank = len(module_factors(G))
    if rank != k:
        return [f"constructed graph has rank {rank}, wanted {k}"]
    return []


def check_extend(base: Graph, ext: Graph, vertex: int, rep: dict) -> list[str]:
    """`extend --json` for a finite modulus; ``vertex`` indexes the new vertex in ext."""
    m = base.modulus
    problems = check_module(base, rep["base_module"], "base")
    problems += check_module(ext, rep["extended_module"], "extension")
    incident = 1
    for u, v, label in ext.edges:
        if vertex in (u, v):
            incident = lcm(incident, gcd(label, m))
    kernel = m // gcd(incident, m)
    if (rep["incident_lcm"], rep["kernel_order"]) != (incident, kernel):
        problems.append(f"incident lcm/kernel {rep['incident_lcm']}/{rep['kernel_order']} != {incident}/{kernel}")
    # 0 -> kernel -> ext -> base: restriction is onto iff |ext| = |base| * |kernel|
    onto = rep["extended_module"]["order"] == rep["base_module"]["order"] * kernel
    if rep["pi_surjective"] != onto:
        problems.append(f"pi_surjective {rep['pi_surjective']} but the orders say {onto}")
    return problems


def check_oracle(G: Graph, rep: dict, count_limit: int) -> list[str]:
    """The `--verify` block: the program's own oracle must agree with the
    order, and graphs with m**n <= count_limit are also counted here."""
    oracle = rep.get("oracle") or {}
    problems = []
    if oracle.get("spline_count") != rep["order"]:
        problems.append(f"oracle counted {oracle.get('spline_count')} splines, order is {rep['order']}")
    if not all(oracle.get(key, True) for key in ("factors_match", "mgs_spans", "set_spans")):
        problems.append(f"oracle block reports a mismatch: {oracle}")
    if G.modulus**G.n <= count_limit and brute_force_count(G) != rep["order"]:
        problems.append(f"brute-force count {brute_force_count(G)} != order {rep['order']}")
    return problems
