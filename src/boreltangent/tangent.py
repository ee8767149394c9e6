"""Tangent-space dimensions T(I) = dim Hom(I, R/I) at monomial ideals.

Two independent algorithms are provided by design:

* :func:`tangent_dimension` / :func:`graded_dimension` — the multigraded
  syzygy-graph method (production path).  Hom(I, R/I) splits into graded
  pieces indexed by alpha in Z^N.  A degree-alpha map sends each minimal
  generator a_i to a multiple of x^(a_i + alpha); generator i is *active*
  when a_i + alpha is a nonnegative standard exponent, otherwise its image
  is forced to 0.  Each generator pair (i, j) constrains the images exactly
  when lcm(a_i, a_j) + alpha is a nonnegative standard exponent: two active
  generators get identified coefficients, an active/inactive pair forces
  the active one to vanish.  The graded dimension is the number of
  connected components of the active-generator graph carrying no vanishing
  constraint.  Pairwise constraints suffice because the Taylor relations
  generate the syzygies of a monomial ideal.

  The sweep over all degrees works on packed integers.  With ``top`` the
  largest exponent among the generators and the standard exponents, a
  vector v is encoded as sum_t v_t * B^t in base B = 2*top + 1.  The code
  is linear, so each degree s - a_i or s - lcm(a_i, a_j) costs one integer
  subtraction and every dictionary is keyed by an integer.  It is
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

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from operator import mul

from .monomials import (
    DimensionMismatchError,
    Exponent,
    MonomialIdeal,
    NonArtinianIdealError,
    StandardSet,
    _gens_from_cells,
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


def _live_components(active, pairs, parent: list[int]) -> int:
    """Graded dimension at one degree: connected components of the active
    generators carrying no vanishing constraint.

    ``pairs`` lists the generator pairs whose lcm target is standard at
    this degree.  ``parent`` is a flat union-find over all generators that
    also marks activity: an entry is -1 for an inactive generator, on entry
    and again on return, so one list serves every degree of a sweep.
    """
    for i in active:
        parent[i] = i
    forced = []
    for i, j in pairs:
        if parent[i] < 0:
            if parent[j] >= 0:
                forced.append(j)
        elif parent[j] < 0:
            forced.append(i)
        else:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i != j:
                parent[i] = j
    live = 0
    for i in active:
        if parent[i] == i:
            live += 1
    if forced:
        dead = set()
        for i in forced:
            while parent[i] != i:
                i = parent[i]
            dead.add(i)
        live -= len(dead)
    for i in active:
        parent[i] = -1
    return live


def graded_dimension(ideal: MonomialIdeal, alpha, standard: StandardSet | None = None) -> int:
    """Dimension of the degree-alpha piece of Hom(I, R/I)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != ideal.nvars:
        raise DimensionMismatchError(
            f"alpha has length {len(alpha)}, expected {ideal.nvars}")
    cells = _cells_of(ideal, standard)
    gens = ideal.gens
    shifted = [tuple(x + d for x, d in zip(a, alpha)) for a in gens]
    is_active = [b in cells for b in shifted]
    active = [i for i, act in enumerate(is_active) if act]
    if not active:
        return 0
    # a pair with no active end constrains nothing, so its lcm is not looked up
    pairs = [(i, j) for i, j in combinations(range(len(gens)), 2)
             if (is_active[i] or is_active[j])
             and tuple(map(max, shifted[i], shifted[j])) in cells]
    return _live_components(active, pairs, [-1] * len(gens))


def _sweep_per_alpha(gens, cells) -> tuple[dict[int, int], int]:
    """Positive graded dimensions, keyed by packed degree, with the packing
    base.

    Degrees are generated directly as {standard - generator} and
    {standard - pairwise lcm}, so the work is proportional to the number of
    useful degrees rather than the volume of the support box.  A pair's
    degrees where no generator is active constrain nothing and are dropped
    by the intersection with the active degrees.
    """
    top = max(max(a) for a in gens)
    if cells:
        top = max(top, max(max(s) for s in cells))
    base = 2 * top + 1
    weights = [base ** t for t in range(len(gens[0]))]
    # digit t of a generator scaled by its weight: the packed lcm of two
    # generators is then the sum of the coordinatewise maxima
    scaled = [list(map(mul, a, weights)) for a in gens]
    cell_codes = [sum(map(mul, s, weights)) for s in cells]
    active: defaultdict[int, list[int]] = defaultdict(list)
    for i, w in enumerate(scaled):
        ca = sum(w)
        for al in [cs - ca for cs in cell_codes]:
            active[al].append(i)
    keys = active.keys()
    pair_events: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for pair in combinations(range(len(gens)), 2):
        cu = sum(map(max, scaled[pair[0]], scaled[pair[1]]))
        for al in keys & {cs - cu for cs in cell_codes}:
            pair_events[al].append(pair)
    per_alpha = {al: len(act) for al, act in active.items()}
    parent = [-1] * len(gens)
    for al, ev in pair_events.items():
        dim = _live_components(active[al], ev, parent)
        if dim:
            per_alpha[al] = dim
        else:
            del per_alpha[al]
    return per_alpha, base


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
    per_alpha, base = _sweep_per_alpha(ideal.gens, cells)
    total = sum(per_alpha.values())
    g = len(ideal.gens)
    l = len(cells)
    graded = sorted((_unpack(al, ideal.nvars, base), dim) for al, dim in per_alpha.items())
    return GradedTangentReport(
        ideal=ideal,
        total=total,
        graded=tuple(graded),
        g=g,
        l=l,
        zero_rank=g * l - total,
    )


def _total_from_staircase(nvars: int, cells) -> int:
    """Raw total at one divisor-closed cell set, its ideal read off the
    corners: no report object, no validation, no decoding of degrees.
    Module-level so that pool workers can unpickle it."""
    gens = tuple(_gens_from_cells(nvars, cells))
    return sum(_sweep_per_alpha(gens, cells)[0].values())


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
    report = tangent_dimension(ideal, standard)
    return report.zero_rank


def verify_tangent(ideal: MonomialIdeal, standard: StandardSet | None = None) -> GradedTangentReport:
    """Run both algorithms and raise VerificationError on disagreement."""
    report = tangent_dimension(ideal, standard)
    oracle = tangent_dimension_oracle(ideal, standard)
    if oracle != report.total:
        raise VerificationError(
            f"graded total {report.total} != matrix oracle {oracle} for {ideal}")
    return report
