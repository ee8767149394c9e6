"""Tangent-space dimensions T(I) = dim Hom(I, R/I) at monomial ideals.

Two independent algorithms are provided by design:

* :func:`tangent_dimension` / :func:`graded_dimension` — the multigraded
  syzygy-graph method (production path).  Hom(I, R/I) splits into graded
  pieces indexed by alpha in Z^N.  A degree-alpha map sends each minimal
  generator a_i to a multiple of x^(a_i + alpha); generator i is *active*
  when a_i + alpha is a nonnegative standard exponent, otherwise its image
  is forced to 0.  The images must satisfy the relations of a generating
  set of syzygies.  A pair relation (i, j) constrains them exactly when
  lcm(a_i, a_j) + alpha is a nonnegative standard exponent: two active
  generators get identified coefficients, an active/inactive pair forces
  the active one to vanish.  These constraints are the edges of a graph on
  the generators plus one ground vertex standing for every inactive end;
  their rank is the size of a spanning forest, and the graded dimension is
  the number of active generators minus that rank.  Summed over degrees,
  the active counts give G*l, so T(I) = G*l - sum of the ranks.

  Which pairs suffice depends on the ideal.  For a strongly stable ideal
  the Eliahou-Kervaire pairs do (Eliahou and Kervaire, J. Algebra 129,
  1990).  With max(w) and min(w) the largest and smallest index of a
  variable dividing w, every monomial w of I factors uniquely as g(w) * v
  with g(w) a minimal generator and max(g(w)) <= min(v), and the relations
  of u with g(x_j * u), for each minimal generator u and each j < max(u),
  generate the syzygies.  Such a pair's lcm is x_j * u itself, and there
  are at most (N-1)*G of them.  The package's x1-dominant convention is
  theirs.  For any other monomial ideal the kernel falls back on all
  G(G-1)/2 pairs, whose Taylor relations generate the syzygies of every
  monomial ideal.  :func:`graded_dimension` asks one degree, so it takes
  the Taylor pairs too, but only those with an active end whose lcm
  shifted by alpha is a cell: building the whole pair list would cost it
  more than these few lookups.

  The sweep over all degrees works on packed integers.  With ``top`` the
  largest exponent among the generators and the standard exponents, a
  vector v is encoded as sum_t v_t * B^t in base B = 2*top + 1.  The code
  is linear, so each degree s - a_i or s - lcm(a_i, a_j) costs one integer
  subtraction and every set and dictionary is keyed by an integer.  It is
  injective on degrees: every degree the sweep generates has entries in
  [-top, top], so two of them differ by a vector with entries in
  [-2*top, 2*top], strictly inside (-B, B), and such a vector has code 0
  only if it is 0 (its lowest nonzero entry is not divisible by B).  A
  code decodes as balanced base-B digits; only the degrees reported with a
  positive dimension are decoded.

* :func:`tangent_dimension_oracle` — the trusted slow path: assemble the
  integer constraint matrix on all G*l coordinates of candidate generator
  images (one row per generator pair and standard target monomial) and
  return G*l minus its exact rank, computed by fraction-free Bareiss
  elimination over arbitrary-precision integers.

The two must agree; the CLI --verify flag and the test suite enforce this.
Disagreement is an internal-consistency failure.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations
from operator import add, mul

from .monomials import (
    DimensionMismatchError,
    Exponent,
    MonomialIdeal,
    NonArtinianIdealError,
    StandardSet,
    ideal_to_json,
    standard_set,
)


#: largest G*l (candidate coordinates) the exact matrix oracle accepts
ORACLE_SIZE_CAP = 2000


class OracleSizeError(RuntimeError):
    """The G*l constraint system is too large for the exact matrix oracle."""


class VerificationError(RuntimeError):
    """The graded method and the matrix oracle disagreed."""


@dataclass(frozen=True)
class GradedTangentReport:
    """T(I) with its multigraded decomposition.

    ``graded`` holds the (alpha, dimension) pairs with positive dimension,
    sorted lexicographically by alpha; ``zero_rank`` is the number of
    independent vanishing constraints, G*l - T(I).
    """

    ideal: MonomialIdeal
    total: int
    graded: tuple[tuple[Exponent, int], ...]
    g: int
    l: int
    zero_rank: int

    @property
    def per_alpha(self) -> dict[Exponent, int]:
        return dict(self.graded)

    def to_json(self) -> dict:
        return {
            "ideal": ideal_to_json(self.ideal),
            "l": self.l,
            "g": self.g,
            "total": self.total,
            "zero_rank": self.zero_rank,
            "graded": [{"alpha": list(a), "dim": d} for a, d in self.graded],
        }


def _cells_of(ideal: MonomialIdeal, standard: StandardSet | None) -> frozenset[Exponent]:
    if standard is None:
        return standard_set(ideal).cells
    if standard.nvars != ideal.nvars:
        raise DimensionMismatchError("standard set has wrong number of variables")
    return standard.cells


def alpha_support_box(ideal: MonomialIdeal) -> tuple[tuple[int, int], ...]:
    """Inclusive per-coordinate bounds [-maxgen_t, m_t - 1] containing every
    alpha with nonzero graded dimension.

    A nonzero degree-alpha map needs some generator a_i with a_i + alpha a
    standard exponent, which pins alpha into this box.
    """
    m = ideal.pure_powers()
    if m is None:
        raise NonArtinianIdealError("support box requires an Artinian ideal")
    maxgen = tuple(max(g[t] for g in ideal.gens) for t in range(ideal.nvars))
    return tuple((-maxgen[t], m[t] - 1) for t in range(ideal.nvars))


def _pack(gens, cells) -> tuple[int, list[int], list[int], set[int]]:
    """Packing base, per-variable weights, generator codes and cell codes."""
    base = 2 * max(map(max, chain(gens, cells))) + 1
    weights = [base ** t for t in range(len(gens[0]))]
    codes = [sum(map(mul, a, weights)) for a in gens]
    return base, weights, codes, {sum(map(mul, s, weights)) for s in cells}


def _taylor_pairs(gens, weights) -> list[tuple[int, int, int]]:
    """Every generator pair with its packed lcm: the fallback pair rule."""
    # digit t of a generator scaled by its weight: the packed lcm of two
    # generators is then the sum of the coordinatewise maxima
    scaled = [list(map(mul, a, weights)) for a in gens]
    return [(i, k, sum(map(max, scaled[i], scaled[k])))
            for i, k in combinations(range(len(gens)), 2)]


def _syzygy_pairs(gens, codes, weights, cell_codes) -> list[tuple[int, int, int]]:
    """Generator pairs (i, k, packed lcm) whose relations generate the
    syzygies: the Eliahou-Kervaire pairs of a Borel staircase, every pair
    otherwise.

    Borel is decided by the generator rule of ``is_strongly_stable`` on
    packed codes.  The EK partner of generator u and j < max(u) is
    g(x_j*u), found by stripping the last variable of x_j*u while what
    remains is not a cell, that is, lies in I; the pair's lcm is x_j*u.
    """
    nvars = len(weights)
    for a, c in zip(gens, codes):
        for t in range(1, nvars):
            if a[t]:
                down = c - weights[t]
                for s in range(t):
                    if down + weights[s] in cell_codes:
                        return _taylor_pairs(gens, weights)
    index = {c: i for i, c in enumerate(codes)}
    pairs = []
    for i, a in enumerate(gens):
        last = nvars - 1
        while last >= 0 and not a[last]:
            last -= 1
        for j in range(last):
            lcm = codes[i] + weights[j]
            w, e, t = lcm, list(a), last
            e[j] += 1
            while True:
                while not e[t]:
                    t -= 1
                if w - weights[t] in cell_codes:
                    break
                w -= weights[t]
                e[t] -= 1
            pairs.append((i, index[w], lcm))
    return pairs


def _forest_rank(edges, parent: list[int]) -> int:
    """Rank of the vanishing constraints at one degree: the edges of a
    spanning forest of the constraint graph.

    Vertices are the generators plus a ground vertex G for every inactive
    end.  An edge (i, k) between active generators identifies their
    coefficients, an edge (i, G) forces coefficient i to 0, and the rank of
    these rows is that of the graphic matroid.  ``parent`` is a flat
    union-find over all G + 1 vertices with parent[v] == v on entry, and
    again on return, so one list serves every degree of a sweep.
    """
    rank = 0
    for i, k in edges:
        while parent[i] != i:
            i = parent[i]
        while parent[k] != k:
            k = parent[k]
        if i != k:
            parent[i] = k
            rank += 1
    for i, k in edges:
        parent[i] = i
        parent[k] = k
    return rank


def _degree_ranks(pairs, act, cell_codes) -> dict[int, int]:
    """Rank of the vanishing constraints at each packed degree where some
    pair constrains an active generator.

    ``act[i]`` is the set of degrees {s - a_i} where generator i is
    active.  Pair (i, k) meets the degrees {s - lcm}; at one where both
    ends are active it is an edge (i, k), at one where only i is, an edge
    (i, G) to the ground vertex.  A degree with a single edge has rank 1.
    """
    g = len(act)
    edges: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for i, k, lcm in pairs:
        hit = {cs - lcm for cs in cell_codes}
        hit_i = hit & act[i]
        hit_k = hit & act[k]
        for al in hit_i & hit_k:
            edges[al].append((i, k))
        for al in hit_i - hit_k:
            edges[al].append((i, g))
        for al in hit_k - hit_i:
            edges[al].append((k, g))
    parent = list(range(g + 1))
    return {al: 1 if len(ev) == 1 else _forest_rank(ev, parent)
            for al, ev in edges.items()}


def _kernel(gens, cells) -> tuple[dict[int, int], list[set[int]], int]:
    """Ranks by packed degree, each generator's active degrees, and the
    packing base."""
    base, weights, codes, cell_codes = _pack(gens, cells)
    act = [{cs - c for cs in cell_codes} for c in codes]
    pairs = _syzygy_pairs(gens, codes, weights, cell_codes)
    return _degree_ranks(pairs, act, cell_codes), act, base


def graded_dimension(ideal: MonomialIdeal, alpha, standard: StandardSet | None = None) -> int:
    """Dimension of the degree-alpha piece of Hom(I, R/I)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != ideal.nvars:
        raise DimensionMismatchError(
            f"alpha has length {len(alpha)}, expected {ideal.nvars}")
    cells = _cells_of(ideal, standard)
    gens = ideal.gens
    is_active = [tuple(map(add, a, alpha)) in cells for a in gens]
    active = [i for i, act in enumerate(is_active) if act]
    if not active:
        return 0
    # the Taylor pairs generate the syzygies; only those with an active end
    # whose lcm shifted by alpha is a cell constrain this degree
    g = len(gens)
    edges = []
    for i in active:
        for k in range(g):
            if k != i and not (is_active[k] and k < i):
                lcm = map(max, gens[i], gens[k])
                if tuple(map(add, lcm, alpha)) in cells:
                    edges.append((i, k if is_active[k] else g))
    return len(active) - _forest_rank(edges, list(range(g + 1)))


def _unpack(code: int, nvars: int, base: int) -> Exponent:
    """The degree of a packed code: balanced digits in [-top, top]."""
    top = base // 2
    digits = []
    for _ in range(nvars):
        d = code % base
        if d > top:
            d -= base
        digits.append(d)
        code = (code - d) // base
    return tuple(digits)


def tangent_dimension(ideal: MonomialIdeal, standard: StandardSet | None = None) -> GradedTangentReport:
    """T(I) with its multigraded decomposition, by the syzygy-graph method.

    Pass ``standard`` when the standard set is already known to skip its
    recomputation.
    """
    cells = _cells_of(ideal, standard)
    ranks, act, base = _kernel(ideal.gens, cells)
    active = Counter(chain.from_iterable(act))
    graded = sorted((_unpack(al, ideal.nvars, base), n - ranks.get(al, 0))
                    for al, n in active.items() if n > ranks.get(al, 0))
    g = len(act)
    l = len(cells)
    zero_rank = sum(ranks.values())
    return GradedTangentReport(
        ideal=ideal,
        total=g * l - zero_rank,
        graded=tuple(graded),
        g=g,
        l=l,
        zero_rank=zero_rank,
    )


def _total(gens, cells) -> int:
    """Raw total at one divisor-closed cell set given with its corners: no
    report object, no validation, no decoding of degrees."""
    return len(gens) * len(cells) - sum(_kernel(gens, cells)[0].values())


def bareiss_rank(rows) -> int:
    """Exact rank of an integer matrix via fraction-free elimination.

    One-step Bareiss: all divisions are exact over the integers, so the
    result is immune to overflow and to the unlucky-prime undercounting a
    modular rank could suffer.
    """
    m = [list(row) for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot_row = m[rank]
        pv = pivot_row[c]
        for i in range(rank + 1, len(m)):
            row = m[i]
            f = row[c]
            # the update must hit every row, f == 0 included: exactness of
            # the division by the previous pivot rests on every entry being
            # a minor of the original matrix (Sylvester identity)
            for j in range(c + 1, ncols):
                row[j] = (pv * row[j] - f * pivot_row[j]) // prev
            row[c] = 0
        prev = pv
        rank += 1
        if rank == len(m) or rank == ncols:
            break
    return rank


def tangent_dimension_oracle(ideal: MonomialIdeal, standard: StandardSet | None = None) -> int:
    """T(I) by exact elimination on the G*l coordinates of candidate maps.

    Columns are (generator i, standard monomial s); each generator pair
    (i, j) contributes, for every standard target t, a row saying the
    coefficient of t in u_ij * image(a_i) - u_ji * image(a_j) vanishes,
    where u_ij = lcm(a_i, a_j) / a_i.  Returns G*l - rank.  Intended for
    small instances; raises OracleSizeError above ``ORACLE_SIZE_CAP``.
    """
    cells = _cells_of(ideal, standard)
    gens = ideal.gens
    g = len(gens)
    l = len(cells)
    if g * l > ORACLE_SIZE_CAP:
        raise OracleSizeError(f"G*l = {g}*{l} = {g * l} exceeds the cap {ORACLE_SIZE_CAP}")
    ordered = sorted(cells)
    col = {s: idx for idx, s in enumerate(ordered)}
    ncols = g * l
    rows = []
    for i, j in combinations(range(g), 2):
        lcm = tuple(max(x, y) for x, y in zip(gens[i], gens[j]))
        uij = tuple(x - y for x, y in zip(lcm, gens[i]))
        uji = tuple(x - y for x, y in zip(lcm, gens[j]))
        for t in ordered:
            si = tuple(x - y for x, y in zip(t, uij))
            sj = tuple(x - y for x, y in zip(t, uji))
            ci = col.get(si)
            cj = col.get(sj)
            if ci is None and cj is None:
                continue
            row = [0] * ncols
            if ci is not None:
                row[i * l + ci] += 1
            if cj is not None:
                row[j * l + cj] -= 1
            rows.append(row)
    return g * l - bareiss_rank(rows)


def constraint_rank(ideal: MonomialIdeal, standard: StandardSet | None = None) -> int:
    """Number of independent vanishing constraints (zero vectors): G*l - T(I).

    Equals the oracle matrix rank whenever the oracle runs.
    """
    return sum(_kernel(ideal.gens, _cells_of(ideal, standard))[0].values())


def verify_tangent(ideal: MonomialIdeal, standard: StandardSet | None = None) -> GradedTangentReport:
    """Run both algorithms and raise VerificationError on disagreement."""
    report = tangent_dimension(ideal, standard)
    oracle = tangent_dimension_oracle(ideal, standard)
    if oracle != report.total:
        raise VerificationError(
            f"graded total {report.total} != matrix oracle {oracle} for {ideal}")
    return report
