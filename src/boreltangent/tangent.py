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

* :func:`tangent_dimension_oracle` — the trusted slow path: assemble the
  integer constraint matrix on all G*l coordinates of candidate generator
  images (one row per generator pair and standard target monomial) and
  return G*l minus its exact rank, computed by fraction-free Bareiss
  elimination over arbitrary-precision integers.

The two must agree; the CLI --verify flag and the test suite enforce this.
Disagreement is an internal-consistency failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .monomials import (
    DimensionMismatchError,
    Exponent,
    MonomialIdeal,
    NonArtinianIdealError,
    StandardSet,
    ideal_to_json,
    standard_set,
)


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


def _live_components(active: list[int], pairs) -> int:
    """Connected components of the active-vertex graph with no vanishing
    constraint.  ``pairs`` lists the generator pairs whose lcm target is
    standard at this degree."""
    act = set(active)
    parent = {i: i for i in active}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forced = set()
    for i, j in pairs:
        ia = i in act
        ja = j in act
        if ia and ja:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        elif ia:
            forced.add(i)
        elif ja:
            forced.add(j)
    alive: dict[int, bool] = {}
    for i in active:
        alive.setdefault(find(i), True)
    for i in forced:
        alive[find(i)] = False
    return sum(alive.values())


def graded_dimension(ideal: MonomialIdeal, alpha, standard: StandardSet | None = None) -> int:
    """Dimension of the degree-alpha piece of Hom(I, R/I)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != ideal.nvars:
        raise DimensionMismatchError(
            f"alpha has length {len(alpha)}, expected {ideal.nvars}")
    cells = _cells_of(ideal, standard)
    gens = ideal.gens
    active = [i for i, a in enumerate(gens)
              if tuple(x + y for x, y in zip(a, alpha)) in cells]
    if not active:
        return 0
    pairs = []
    for i, j in combinations(range(len(gens)), 2):
        b = tuple(max(x, y) + d for x, y, d in zip(gens[i], gens[j], alpha))
        if b in cells:
            pairs.append((i, j))
    return _live_components(active, pairs)


def _sweep_per_alpha(gens, cells) -> dict[Exponent, int]:
    """Graded dimensions at every alpha with at least one active generator.

    Degrees are generated directly as {standard - generator} and
    {standard - pairwise lcm}, so the work is proportional to the number of
    useful degrees rather than the volume of the support box.
    """
    active: dict[Exponent, list[int]] = {}
    for i, a in enumerate(gens):
        for s in cells:
            al = tuple(x - y for x, y in zip(s, a))
            active.setdefault(al, []).append(i)
    pair_events: dict[Exponent, list[tuple[int, int]]] = {}
    for i, j in combinations(range(len(gens)), 2):
        u = tuple(max(x, y) for x, y in zip(gens[i], gens[j]))
        for s in cells:
            al = tuple(x - y for x, y in zip(s, u))
            if al in active:
                pair_events.setdefault(al, []).append((i, j))
    per_alpha: dict[Exponent, int] = {}
    for al, act in active.items():
        ev = pair_events.get(al)
        if ev is None:
            dim = len(act)
        else:
            dim = _live_components(act, ev)
        if dim:
            per_alpha[al] = dim
    return per_alpha


def tangent_dimension(ideal: MonomialIdeal, standard: StandardSet | None = None) -> GradedTangentReport:
    """T(I) with its multigraded decomposition, by the syzygy-graph method.

    Pass ``standard`` when the standard set is already known to skip its
    recomputation.
    """
    cells = _cells_of(ideal, standard)
    per_alpha = _sweep_per_alpha(ideal.gens, cells)
    total = sum(per_alpha.values())
    g = len(ideal.gens)
    l = len(cells)
    return GradedTangentReport(
        ideal=ideal,
        total=total,
        graded=tuple(sorted(per_alpha.items())),
        g=g,
        l=l,
        zero_rank=g * l - total,
    )


def _total_from_staircase(item) -> int:
    """Raw total of one ``(gens, cells)`` scan item: no report object, no
    validation.  Module-level so that pool workers can unpickle it."""
    return sum(_sweep_per_alpha(*item).values())


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


def tangent_dimension_oracle(ideal: MonomialIdeal, standard: StandardSet | None = None,
                             size_cap: int = 2000) -> int:
    """T(I) by exact elimination on the G*l coordinates of candidate maps.

    Columns are (generator i, standard monomial s); each generator pair
    (i, j) contributes, for every standard target t, a row saying the
    coefficient of t in u_ij * image(a_i) - u_ji * image(a_j) vanishes,
    where u_ij = lcm(a_i, a_j) / a_i.  Returns G*l - rank.  Intended for
    small instances; raises OracleSizeError above ``size_cap``.
    """
    cells = _cells_of(ideal, standard)
    gens = ideal.gens
    g = len(gens)
    l = len(cells)
    if g * l > size_cap:
        raise OracleSizeError(f"G*l = {g}*{l} = {g * l} exceeds the cap {size_cap}")
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


def verify_tangent(ideal: MonomialIdeal, standard: StandardSet | None = None,
                   size_cap: int = 2000) -> GradedTangentReport:
    """Run both algorithms and raise VerificationError on disagreement."""
    report = tangent_dimension(ideal, standard)
    oracle = tangent_dimension_oracle(ideal, standard, size_cap=size_cap)
    if oracle != report.total:
        raise VerificationError(
            f"graded total {report.total} != matrix oracle {oracle} for {ideal}")
    return report
