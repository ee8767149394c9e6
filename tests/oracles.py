"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from the definitions, sharing no
code path with the package: order ideals are grown without any Borel
condition, stability is checked move-by-move on whole cell sets, and the
distinct-part partition numbers come from their own recurrence.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations, product


def iter_order_ideal_levels(nvars: int, max_size: int):
    """Yield (size, list of frozensets) over ALL divisor-closed sets.

    No stability condition: this enumerates every finite order ideal in
    N^nvars, i.e. every Artinian monomial-ideal staircase.
    """
    frontier = [frozenset([(0,) * nvars])]
    yield 1, frontier
    for _size in range(2, max_size + 1):
        seen = set()
        out = []
        for cells in frontier:
            candidates = set()
            for v in cells:
                for t in range(nvars):
                    w = v[:t] + (v[t] + 1,) + v[t + 1:]
                    if w not in cells:
                        candidates.add(w)
            for c in candidates:
                ok = True
                for t in range(nvars):
                    if c[t] > 0 and c[:t] + (c[t] - 1,) + c[t + 1:] not in cells:
                        ok = False
                        break
                if ok:
                    grown = cells | {c}
                    if grown not in seen:
                        seen.add(grown)
                        out.append(grown)
        frontier = out
        yield _size, frontier


def is_borel_staircase(cells, nvars: int) -> bool:
    """Complement-side stability: every rightward unit move of a cell with
    positive exponent at a smaller index stays inside the cell set."""
    for v in cells:
        for s in range(nvars):
            if v[s] == 0:
                continue
            for t in range(s + 1, nvars):
                moved = list(v)
                moved[s] -= 1
                moved[t] += 1
                if tuple(moved) not in cells:
                    return False
    return True


def is_order_ideal(cells, nvars: int) -> bool:
    """Divisor closure: every unit step down from a cell stays a cell."""
    return all(v[:t] + (v[t] - 1,) + v[t + 1:] in cells
               for v in cells for t in range(nvars) if v[t] > 0)


def one_cell_extensions(cells, nvars: int):
    """Every Borel staircase made of the given one plus one more cell.

    A new cell of a non-empty order ideal sits one unit step above an old
    cell, so the neighbours of the cells are all the candidates.
    """
    cells = frozenset(cells)
    candidates = {v[:t] + (v[t] + 1,) + v[t + 1:] for v in cells for t in range(nvars)}
    grown = (cells | {w} for w in candidates - cells)
    return {g for g in grown if is_order_ideal(g, nvars) and is_borel_staircase(g, nvars)}


def largest_removable_cell(cells, nvars: int):
    """The largest cell, in tuple order, whose removal leaves a Borel
    staircase; None when no cell is removable."""
    cells = frozenset(cells)
    removable = [c for c in cells if is_order_ideal(cells - {c}, nvars)
                 and is_borel_staircase(cells - {c}, nvars)]
    return max(removable, default=None)


def random_borel_staircase(rng, nvars: int, size: int) -> frozenset:
    """A Borel staircase of the given size, grown one random cell at a time."""
    cells = frozenset([(0,) * nvars])
    for _ in range(size - 1):
        cells = rng.choice(sorted(one_cell_extensions(cells, nvars), key=sorted))
    return cells


def minimal_exponents_outside(cells, nvars: int) -> set:
    """Minimal elements of the complement of a finite cell set, from the
    definition: scan a box past every cell and keep each outside exponent
    that no other outside exponent divides.

    A minimal u has u_t <= 1 + max_t over the cells: otherwise u - e_t is
    also outside and divides it.
    """
    tops = [1 + max((v[t] for v in cells), default=-1) for t in range(nvars)]
    outside = sorted((u for u in product(*(range(m + 1) for m in tops)) if u not in cells),
                     key=sum)
    minimal = []
    for u in outside:
        if not any(all(a <= b for a, b in zip(g, u)) for g in minimal):
            minimal.append(u)
    return set(minimal)


def standard_exponents_in_box(gens, nvars: int) -> frozenset:
    """Exponents that no generator divides, from the definition: scan the
    box below the smallest pure power of each variable (an exponent with
    u_t >= m_t is a multiple of x_t^m_t)."""
    tops = [min(g[t] for g in gens if all(g[s] == 0 for s in range(nvars) if s != t))
            for t in range(nvars)]
    return frozenset(u for u in product(*(range(m) for m in tops))
                     if not any(all(a <= b for a, b in zip(g, u)) for g in gens))


def minimal_elements(exps) -> set:
    """The exponents of a finite set that no other exponent of it divides."""
    exps = set(exps)
    return {u for u in exps
            if not any(v != u and all(a <= b for a, b in zip(v, u)) for v in exps)}


def canonical_key(e):
    """Sort key of the generator order, from its definition: total degree
    first, then the larger exponent of the earliest variable that
    differs."""
    return (sum(e), [-c for c in e])


def ideal_text(gens, nvars: int) -> str:
    """The canonical text of a minimal generator list, from the grammar's
    definition: generators by total degree, then with the larger exponent
    of the earliest variable first; in each, the variables named x, y, z, w
    when nvars <= 4 and x1..xN otherwise, a power written as VAR^e only when
    e > 1, and the text 1 for the unit monomial."""
    names = "xyzw"[:nvars] if nvars <= 4 else ["x" + str(t) for t in range(1, nvars + 1)]
    order = sorted(gens, key=canonical_key)
    texts = []
    for g in order:
        factors = []
        for name, e in zip(names, g):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(name + "^" + str(e))
        texts.append("*".join(factors) or "1")
    return ",".join(texts)


def brute_force_strongly_stable(gens, nvars: int, pure_powers) -> bool:
    """Definition-level check: apply every Borel move to every monomial of
    the ideal inside the pure-power bounding box."""

    def member(u):
        return any(all(g[t] <= u[t] for t in range(nvars)) for g in gens)

    for u in product(*(range(m + 1) for m in pure_powers)):
        if not member(u):
            continue
        for t in range(nvars):
            if u[t] == 0:
                continue
            for s in range(t):
                moved = list(u)
                moved[t] -= 1
                moved[s] += 1
                # past the box a pure power divides the image anyway
                if moved[s] > pure_powers[s]:
                    continue
                if not member(tuple(moved)):
                    return False
    return True


@lru_cache(maxsize=None)
def _distinct_partitions_bounded(n: int, largest: int) -> int:
    """Partitions of n into distinct parts, every part <= largest."""
    if n == 0:
        return 1
    if largest <= 0 or n < 0:
        return 0
    return (_distinct_partitions_bounded(n, largest - 1)
            + _distinct_partitions_bounded(n - largest, min(largest - 1, n - largest)))


def distinct_partition_count(n: int) -> int:
    """Number of partitions of n into distinct parts."""
    return _distinct_partitions_bounded(n, n)


def iter_partitions(n: int):
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def partition_staircase(partition) -> frozenset:
    """Cells of the 2-variable staircase whose column heights are the parts."""
    return frozenset((i, j) for i, part in enumerate(partition) for j in range(part))


def graded_tangent_dims(gens, cells) -> dict:
    """Every positive graded dimension of Hom(I, R/I), {alpha: dim}, from
    the syzygy graph on all Taylor pairs, degree by degree over tuples.

    At degree alpha generator i is active when a_i + alpha is a cell.  Pair
    (i, k) constrains alpha when lcm(a_i, a_k) + alpha is a cell: two
    active ends are joined, an active end with an inactive partner is
    joined to a ground vertex.  The dimension is the number of active
    generators minus the edge count of a spanning forest.
    """
    ground = len(gens)
    active = Counter()
    for a in gens:
        active.update(tuple(x - y for x, y in zip(s, a)) for s in cells)
    edges = defaultdict(list)
    for i, k in combinations(range(len(gens)), 2):
        lcm = tuple(map(max, gens[i], gens[k]))
        for s in cells:
            alpha = tuple(x - y for x, y in zip(s, lcm))
            ends = [j for j in (i, k) if tuple(map(sum, zip(gens[j], alpha))) in cells]
            if len(ends) == 2:
                edges[alpha].append((i, k))
            elif ends:
                edges[alpha].append((ends[0], ground))

    def find(root, v):
        while root.get(v, v) != v:
            v = root[v]
        return v

    dims = {}
    for alpha, count in active.items():
        root = {}
        rank = 0
        for u, v in edges.get(alpha, ()):
            u, v = find(root, u), find(root, v)
            if u != v:
                root[u] = v
                rank += 1
        if count > rank:
            dims[alpha] = count - rank
    return dims


def mnop_character(cells) -> dict:
    """The coefficients {alpha: [t^alpha] V}, zero ones left out, of
    V = Q - Qbar/(t1 t2 t3) + Q Qbar (1 - t1)(1 - t2)(1 - t3)/(t1 t2 t3),
    where Q is the sum of t^s over the cells of a staircase in three
    variables and Qbar the sum of t^-s.

    Maulik, Nekrasov, Okounkov and Pandharipande (Compositio Math. 142,
    2006, arXiv:math/0312059) give T_alpha - T_alpha* = [t^alpha] V at every
    degree alpha, alpha* = -alpha - (1, 1, 1), from Serre duality.
    """
    v = Counter()
    for s in cells:
        v[s] += 1
        v[tuple(-x - 1 for x in s)] -= 1
    # Q Qbar, then each of the eight terms of (1 - t1)(1 - t2)(1 - t3)/(t1 t2 t3)
    diffs = Counter(tuple(x - y for x, y in zip(s, u)) for s in cells for u in cells)
    for steps in product((0, 1), repeat=3):
        sign = -1 if sum(steps) % 2 else 1
        for d, count in diffs.items():
            v[tuple(x + e - 1 for x, e in zip(d, steps))] += sign * count
    return {alpha: c for alpha, c in v.items() if c}


def fraction_rank(rows) -> int:
    """Exact rank by plain Gaussian elimination over Fractions."""
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank
