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
  theirs.  One rule finds the partner: start from w = x_j * u / x_max(u),
  which lies in I by strong stability (x_j replaces x_max(u), j <
  max(u)), and strip the last variable of w while what remains lies in I.
  What is left is g(x_j * u), since it lies in I, loses I when its last
  variable goes (so by strong stability it is a minimal generator), and
  every variable stripped, x_max(u) first, is at least its largest.  For
  any other monomial ideal the kernel falls back on all G(G-1)/2 pairs,
  whose Taylor relations generate the syzygies of every monomial ideal.

  One sweep counts every degree at once, on sets of degree positions.
  With maxgen_t and maxcell_t the largest exponent of x_t among the
  generators and among the cells, lo_t = maxgen_t + 1 and radix R_t =
  maxcell_t + lo_t + 1, degree alpha sits at position
  sum_t (alpha_t + lo_t) * W_t, a mixed radix with coordinate 0 most
  significant (W_{N-1} = 1, W_t = W_{t+1} * R_{t+1}).  The radix needs no
  pass over the cells: a finite staircase has a pure power x_t^m among its
  minimal generators, no other one has an exponent of x_t as large, and
  the cells reach exactly m - 1, so R_t = 2 * maxgen_t + 1.  (The unit
  ideal has no cells, and its radix 1 is never used.)  A caller's
  standard set reaches no pure power, as its contract below makes sure.
  Every vector the sweep subtracts from a cell has digits in
  [0, lo_t]: a generator a_i, a Taylor lcm, or an Eliahou-Kervaire lcm
  x_j * u, which exceeds a generator by one in one variable.  So every
  degree s - v it forms has alpha_t + lo_t in [0, R_t - 1], a genuine
  digit: distinct degrees get distinct positions, and with the linear code
  code(v) = sum_t v_t * W_t the set {s - v} is the cell positions less
  code(v), none negative.  Position order is lex order of the degrees.
  The pair rule runs on the same linear codes: every vector it forms (a
  generator moved one step toward an earlier variable, x_j * u stripped
  from the end) is nonnegative with digits below R_t, where the code is
  injective too.

  A set of positions is a bit mask, where C >> code(v) shifts the cell
  mask C, or a frozenset; the sweep only intersects, unites and
  symmetric-differences them, tests them for emptiness and lists their
  members.  Generator i's active degrees are A_i = C - code(a_i), and pair
  (i, k) meets H = C - code(lcm).  Its link h_i & h_k, with h_i = H & A_i,
  holds the degrees where it joins two active ends; at the rest of h_i it
  joins i to the ground.  At one degree let V be the generators with an
  edge (the ``touched`` sets) and c the number of components of the links
  that contain no grounded generator.  A spanning forest has |V| + [some
  ground edge] - (c + [some ground edge]) edges, so the rank there is
  |V| - c and T(I) = G*l - sum |touched_i| + sum c.  Groundedness spreads
  along the links until no set changes; a degree whose loose (ungrounded)
  links all come from one pair has c = 1, and the links of the degrees
  where loose links of two pairs or more meet are grouped by degree and
  go through a union-find.  The degree-alpha dimension is the number of
  active generators with no edge at alpha, plus c.  Only degrees with a
  positive dimension are decoded.

  In three variables the scan sweeps half the box.  Maulik, Nekrasov,
  Okounkov and Pandharipande (Compositio Math. 142, 2006,
  arXiv:math/0312059) derive from Serre duality on a threefold that
  T_alpha - T_alpha* = [t^alpha] V at every degree, where alpha* = -alpha -
  (1, 1, 1), V = Q - Qbar/(t1 t2 t3) + Q Qbar (1 - t1)(1 - t2)(1 - t3)/(t1
  t2 t3), and Q is the sum of t^s over the cells.  Sum it over the half
  box H = {alpha : alpha_1 >= 0}, alpha_1 the degree in x1, whose duals
  make up the rest of Z^3.  Qbar/(t1 t2 t3) has no term in H, and in the
  last term membership in H ignores t2 and t3, whose factors (1 - t_u)
  then cancel in pairs.  So V sums to l over H, and T = 2 * sum_{alpha_1 >=
  0} T_alpha - l, likewise for alpha_2 and alpha_3; parity T = l (mod 2)
  follows.  x1 is coordinate 0, the code's most significant digit, so H is
  the positions at or above lo_0 * W_0.  With that dropped from the
  offset, position 0 is alpha_1 = 0, and a negative position lies outside
  H: a shifted mask drops it, and a set must.  The sweep then returns
  sum_i |A_i within H| less the rank there.  The identity is a threefold's:
  the formula failed for every axis of every Borel staircase with l <= 10
  in two variables (84 checks) and in four (420), so other numbers of
  variables sweep the whole box.
  :func:`verify_tangent` checks the three half sums on a graded report.

  The scan meets a radix at a run of staircases in a row, and a range
  scan meets most of a colength's radixes again at the next colengths, so
  :func:`_total` takes the weights, the box size and the codes from a
  table per radix tuple lo: the 64 radixes used last, each with a dict
  from exponent to code that the staircases fill as they meet them, at
  most prod_t lo_t codes, as every digit is below lo_t.  Over N=3 l =
  10..18 (94 radixes) that table missed 2 735 codes, against 7 450 with 32
  radixes and 2 328 with no bound.  The request path shares no table: its
  ideals seldom share a radix, and a bounded table there would only add
  misses.  It packs each staircase once, on its standard set (below).

  A mask spans the whole box, prod_t R_t bits, where a frozenset holds at
  most l positions: a staircase thin in several variables (x^200, y^200,
  z^200 and the three products xy, xz, yz have l = 598 in a box of 6.4e7
  positions) would make each mask megabytes long.  Past ``BOX_PER_CELL``
  box positions per cell the sweep runs on frozensets; the compact
  staircases of the scans and of random ideals stay below it
  (``BENCH_bit_kernel.json``).

  :func:`graded_dimension` is the sweep's one-degree case, on the codes and
  pairs kept on the staircase's standard set: its masks have one bit, the
  degree asked.  Outside the support box 1 - lo_t <= alpha_t <= lo_t - 2,
  that is -m_t <= alpha_t <= m_t - 1 with m_t the pure power's exponent, no
  generator is active and the dimension is 0.  Inside it, with shift =
  sum_t alpha_t * W_t, generator i is active iff code(a_i) + shift is a
  cell's code, and a pair meets the degree iff code(lcm) + shift is.  No
  code aliases there: a_i + alpha and lcm + alpha have digits in [-m_t,
  2*m_t] and a cell digits in [0, m_t - 1], so the two differ by a vector
  with entries of size at most 2*m_t, below R_t = 2*m_t + 1, and equal
  codes mean equal vectors, as in the oracle's balanced radix below.

* :func:`tangent_dimension_oracle` — the trusted independent path:
  assemble the integer constraint matrix on all G*l coordinates of
  candidate generator images (one row per generator pair and standard
  target monomial) and return G*l minus its exact rank, computed by
  one-step fraction-free Bareiss elimination over arbitrary-precision
  integers (Bareiss, Math. Comp. 22, 1968).  The oracle packs exponents
  itself, sharing no code with the sweep: a cell s has code
  sum_t s_t * B^t in the balanced base B = 2*top + 1, ``top`` again the
  largest exponent, and a row's two columns are the codes of t - u_ij and
  t - u_ji for a cell t, each one integer subtraction and one dictionary
  lookup.  A target t - u has digits in [-top, top] and a cell digits in
  [0, top], so the two differ by a vector with entries in [-2*top, 2*top],
  strictly inside (-B, B): the codes agree only when the target is that
  cell.  A base of top + 1 would let a target with a negative digit alias
  a cell.  The rows are sparse
  {column: entry} dicts, and an index from each column to the rows that
  hold it lets a pivot step update only those rows.  Dense Bareiss would
  also multiply every other row by pivot/previous pivot; a row skipped
  that way records the divisor current at its last update and is rescaled
  when next read (see :func:`_bareiss_rank`).

The two must agree; the CLI --verify flag and the test suite enforce this.
Disagreement is an internal-consistency failure.

Every entry point that takes a ``standard`` argument, here and in
:mod:`.region3d`, reads it through :func:`_cells_of`, so one contract
holds for all of them.  Without one, the ideal's own standard set is
computed.  A caller's set must have the ideal's number of variables
(DimensionMismatchError), the ideal must be Artinian
(NonArtinianIdealError), and the set must be the ideal's own staircase
(InvalidStaircaseError).  A finite divisor-closed set is the staircase of
exactly the ideal its corners generate, and every standard set keeps those
generators, so one comparison with the ideal's generators, O(G), refuses
a set that holds a generator and a set strictly inside the staircase
alike.  A set that :func:`~.monomials.standard_set` returned carries the
ideal's generators, so reading it runs no growth and no corner pass.

The kernel's input, the packing of :func:`_pack` with the syzygy pairs,
depends on the staircase alone.  :func:`_kept_packing` builds it from the
set's own generators at the first kernel call for a set, after that
check, and keeps it on the set object outside its dataclass fields, so
:func:`tangent_dimension`, :func:`constraint_rank`, :func:`verify_tangent`
and :func:`graded_dimension` on one set pack it once.  It is kept nowhere
else: a call without a set packs the set it builds, and a second set of an
equal ideal packs again.  The oracle never reads it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations
from operator import index, mul, rshift, sub
from typing import Callable

from .monomials import (
    DimensionMismatchError,
    Exponent,
    InvalidStaircaseError,
    MonomialIdeal,
    NonArtinianIdealError,
    StandardSet,
    ideal_to_json,
    standard_set,
)


#: largest G*l (candidate coordinates) the exact matrix oracle accepts
ORACLE_SIZE_CAP = 2000

#: degree-box positions per cell above which the kernel counts over sets of
#: degrees instead of bit masks spanning the box (see :func:`_kernel`)
BOX_PER_CELL = 512


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
    """The cells of ``standard``, or of the ideal's own standard set when it
    is None: the one reader of a caller's standard set, under the contract
    the module docstring states.

    The set's generators were set when it was built (see
    :class:`MonomialIdeal`), as the corners of a finite staircase, so a
    set whose generators are the ideal's belongs to an Artinian ideal;
    the pure powers are read only to name the refusal of any other set."""
    if standard is None:
        return standard_set(ideal).cells
    if standard.nvars != ideal.nvars:
        raise DimensionMismatchError("standard set has wrong number of variables")
    if standard._gens != ideal.gens:
        if ideal.pure_powers() is None:
            raise NonArtinianIdealError("a standard set needs an Artinian ideal")
        raise InvalidStaircaseError("standard set is not the staircase of the ideal")
    return standard.cells


def _degree(ideal: MonomialIdeal, alpha) -> Exponent:
    """A degree of the ideal's ring as a tuple of ints."""
    # index, not int: a float or a string must not be rounded to a degree
    alpha = tuple(map(index, alpha))
    if len(alpha) != ideal.nvars:
        raise DimensionMismatchError(
            f"alpha has length {len(alpha)}, expected {ideal.nvars}")
    return alpha


def alpha_support_box(ideal: MonomialIdeal) -> tuple[tuple[int, int], ...]:
    """Inclusive per-coordinate bounds [-m_t, m_t - 1] containing every
    alpha with nonzero graded dimension.

    A nonzero degree-alpha map needs some generator a_i with a_i + alpha a
    standard exponent, which pins alpha_t into [-maxgen_t, m_t - 1], and the
    largest exponent of x_t among the generators is m_t, the pure power's.
    """
    m = ideal.pure_powers()
    if m is None:
        raise NonArtinianIdealError("support box requires an Artinian ideal")
    return tuple((-d, d - 1) for d in m)


def _weights(lo) -> tuple[list[int], int]:
    """Per-variable weights W_t for digit offsets lo_t, and the box size
    prod_t R_t (see the module docstring)."""
    weights = [1] * len(lo)
    for t in range(len(lo) - 1, 0, -1):
        weights[t - 1] = weights[t] * (2 * lo[t] - 1)
    return weights, weights[0] * (2 * lo[0] - 1)


def _pack(gens, cells) -> tuple[list[int], list[int], list[int], set[int], int]:
    """Per-variable weights and digit offsets, generator codes, cell codes
    and the box size prod_t R_t (see the module docstring)."""
    lo = [1 + max(col) for col in zip(*gens)]
    weights, box = _weights(lo)
    codes = [sum(map(mul, a, weights)) for a in gens]
    cell_codes = {sum(map(mul, s, weights)) for s in cells}
    return weights, lo, codes, cell_codes, box


class _Codes(dict):
    """Linear codes of exponents under fixed weights, each computed at its
    first lookup and kept."""

    def __init__(self, weights: list[int]) -> None:
        super().__init__()
        self.weights = weights

    def __missing__(self, e: Exponent) -> int:
        code = self[e] = sum(map(mul, e, self.weights))
        return code


@lru_cache(maxsize=64)
def _radix(lo: tuple[int, ...]) -> tuple[list[int], int, _Codes]:
    """The weights, the box size and a table of codes of one radix, shared
    by the staircases of the scan that have it (see :func:`_total`)."""
    weights, box = _weights(lo)
    return weights, box, _Codes(weights)


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
    otherwise.  Borel is decided by the generator rule of
    ``is_strongly_stable`` on packed codes."""
    nvars = len(weights)
    for a, c in zip(gens, codes):
        for t in range(1, nvars):
            if a[t]:
                down = c - weights[t]
                for s in range(t):
                    if down + weights[s] in cell_codes:
                        return _taylor_pairs(gens, weights)
    return _ek_pairs(gens, codes, weights, cell_codes)


def _ek_pairs(gens, codes, weights, cell_codes) -> list[tuple[int, int, int]]:
    """The Eliahou-Kervaire pairs (i, k, packed lcm) of a Borel staircase,
    which is not checked.

    The EK partner of generator u and j < max(u) is g(x_j*u), found by one
    rule: start from x_j*u/x_max(u), which lies in I, and strip its last
    variable while what remains lies in I, that is, is not a cell (the
    module docstring says why this ends at g(x_j*u)).  The pair's lcm is
    x_j*u.
    """
    nvars = len(weights)
    index = {c: i for i, c in enumerate(codes)}
    pairs = []
    for i, a in enumerate(gens):
        last = nvars - 1
        while last >= 0 and not a[last]:
            last -= 1
        for j in range(last):
            lcm = codes[i] + weights[j]
            w = lcm - weights[last]
            e, t = list(a), last
            e[j] += 1
            e[t] -= 1
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
    union-find over the vertices with parent[v] == v on entry, and again on
    return, so one list serves every degree of a sweep.
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


def _positions(mask: int):
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sweep(pairs, active: list, meet, members, size) -> tuple[int, Callable[[], Counter]]:
    """The dimension summed over the positions and a callable giving the
    positive dimensions by position, every degree's constraint graph at
    once (see the module docstring).

    A set of positions is a mask or a frozenset, combined only by ``&``,
    ``|``, ``^`` and truthiness; ``members`` lists its positions and
    ``size`` counts them.  ``active[i]`` holds the degrees where generator
    i is active, and pair (i, k, lcm) meets the degrees ``meet(lcm)``,
    built one pair at a time.
    """
    g = len(active)
    none = active[0] ^ active[0]
    touched = [none] * g
    ground = [none] * g
    links = []
    for i, k, lcm in pairs:
        hit = meet(lcm)
        if not hit:  # the pair constrains no degree
            continue
        hit_i = hit & active[i]
        hit_k = hit & active[k]
        link = hit_i & hit_k
        touched[i] |= hit_i
        touched[k] |= hit_k
        ground[i] |= hit_i ^ link
        ground[k] |= hit_k ^ link
        if link:
            links.append((i, k, link))
    # the ends of a link share their component, so a degree grounded at one
    # end is grounded at the other: pass along the links until none changes
    changed = bool(links)
    while changed:
        changed = False
        for i, k, link in links:
            diff = (ground[i] ^ ground[k]) & link
            if diff:
                ground[i] |= diff
                ground[k] |= diff
                changed = True
    once = twice = none
    loose = []
    for i, k, link in links:
        link ^= link & ground[i]
        if link:
            twice |= once & link
            once |= link
            loose.append((i, k, link))
    # the degrees with one loose component, and the count at the others
    single = once ^ twice
    multi = {}
    if twice:
        edges = defaultdict(list)
        for i, k, link in loose:
            for p in members(link & twice):
                edges[p].append((i, k))
        parent = list(range(g))
        for p, ev in edges.items():
            multi[p] = len(set(chain.from_iterable(ev))) - _forest_rank(ev, parent)

    def dims() -> Counter:
        # the active generators with no edge there, plus the loose components
        found = Counter(members(single))
        found.update(multi)
        for a, t in zip(active, touched):
            found.update(members(a ^ (a & t)))
        return found

    # sum |A_i| - sum |touched_i| + sum c, the rank being |V| - c
    return (sum(map(size, active)) - sum(map(size, touched)) + size(single)
            + sum(multi.values()), dims)


def _bit_sweep(pairs, codes, cell_codes, offset: int) -> tuple[int, Callable[[], Counter]]:
    """The dimension summed over the positions, and a callable giving the
    positive dimensions by position, from masks over the degree box."""
    # a byte array up to the highest cell's bit, not a sum of one-bit
    # integers, each of which would copy the mask
    bits = bytearray((max(cell_codes, default=0) + offset >> 3) + 1)
    for c in cell_codes:
        c += offset
        bits[c >> 3] |= 1 << (c & 7)
    mask = int.from_bytes(bits, "little")
    meet = partial(rshift, mask)
    return _sweep(pairs, list(map(meet, codes)), meet, _positions, int.bit_count)


def _set_sweep(pairs, codes, cell_codes, offset: int) -> tuple[int, Callable[[], Counter]]:
    """What :func:`_bit_sweep` returns, from frozensets of the positions the
    masks would set.  Their cost follows the cells, l positions per
    generator and per pair, where the masks follow the box."""
    cells = [c + offset for c in cell_codes]

    def meet(code):
        # a negative position lies below the box, as a shifted mask drops it
        return frozenset([c - code for c in cells if c >= code])

    return _sweep(pairs, list(map(meet, codes)), meet, iter, len)


def _kernel(packed, pairs, shift: int = 0) -> tuple[int, Callable[[], Counter]]:
    """The dimension summed over the box positions from ``shift`` up, and a
    callable giving the positive dimensions by position less ``shift``, of a
    staircase that :func:`_pack` packed, over the pairs given.  A shift of
    lo_0 * W_0 keeps the half box alpha_1 >= 0.

    The masks cost the box, prod_t R_t bits each, and the sets cost the
    cells: a staircase whose box holds more than ``BOX_PER_CELL`` positions
    per cell goes through the set sweep.
    """
    weights, lo, codes, cell_codes, box = packed
    sweep = _set_sweep if box > BOX_PER_CELL * len(cell_codes) else _bit_sweep
    return sweep(pairs, codes, cell_codes, sum(map(mul, lo, weights)) - shift)


def _kept_packing(ideal: MonomialIdeal, standard: StandardSet | None) -> tuple[tuple, list]:
    """What :func:`_pack` gives for the ideal's staircase, with its syzygy
    pairs, kept on the standard set from the first call on (see the module
    docstring).  ``standard`` is read through :func:`_cells_of` first;
    None stands for the ideal's own set, built here and then dropped."""
    if standard is None:
        standard = standard_set(ideal)
    cells = _cells_of(ideal, standard)
    kept = getattr(standard, "_packing", None)
    if kept is None:
        gens = standard._gens
        packed = _pack(gens, cells)
        weights, _, codes, cell_codes, _ = packed
        kept = packed, _syzygy_pairs(gens, codes, weights, cell_codes)
        object.__setattr__(standard, "_packing", kept)
    return kept


def graded_dimension(ideal: MonomialIdeal, alpha, standard: StandardSet | None = None) -> int:
    """Dimension of the degree-alpha piece of Hom(I, R/I): the sweep at one
    degree, on the kept codes and pairs of the ideal's staircase, and 0
    outside :func:`alpha_support_box` (the module docstring says why no
    code aliases inside it).

    ``standard`` follows the contract in the module docstring.
    """
    alpha = _degree(ideal, alpha)
    (weights, lo, codes, cell_codes, _), pairs = _kept_packing(ideal, standard)
    # lo_t = m_t + 1: the box is 1 - lo_t <= alpha_t <= lo_t - 2
    if not all(1 - o <= a <= o - 2 for a, o in zip(alpha, lo)):
        return 0
    shift = sum(map(mul, alpha, weights))

    def meet(code):
        return code + shift in cell_codes

    # the sweep over one-bit masks, bit 0 the degree asked: a bool is one
    active = list(map(meet, codes))
    if not any(active):
        return 0
    return _sweep(pairs, active, meet, _positions, int.bit_count)[0]


def _degrees(positions: list[int], weights: list[int], lo: list[int]) -> list[Exponent]:
    """The degrees at some bit positions, decoded a coordinate at a time:
    digit t is p // W_t % R_t with R_t = 2 * lo_t - 1, less its offset."""
    radix = [2 * o - 1 for o in lo]
    return list(zip(*[[p // w % r - o for p in positions]
                      for w, r, o in zip(weights, radix, lo)]))


def tangent_dimension(ideal: MonomialIdeal, standard: StandardSet | None = None) -> GradedTangentReport:
    """T(I) with its multigraded decomposition, by the syzygy-graph method.

    Pass ``standard`` when the standard set is already known to skip its
    recomputation; it follows the contract in the module docstring.
    """
    packed, pairs = _kept_packing(ideal, standard)
    weights, lo, _, cell_codes, _ = packed
    total, dims = _kernel(packed, pairs)
    dims = dims()
    positions = sorted(dims)
    graded = list(zip(_degrees(positions, weights, lo), map(dims.__getitem__, positions)))
    g = len(ideal.gens)
    l = len(cell_codes)
    return GradedTangentReport(
        ideal=ideal,
        total=total,
        graded=tuple(graded),
        g=g,
        l=l,
        zero_rank=g * l - total,
    )


def _total(gens, cells) -> int:
    """Raw total at one Borel staircase given with its corners, as the walk
    makes them: its EK pairs, no Borel test, no report object, no
    validation, no decoding of degrees.  The codes come from the table of
    the staircase's radix, and in three variables the sweep runs over the
    half box alpha_1 >= 0 (see the module docstring)."""
    lo = [1 + max(col) for col in zip(*gens)]
    weights, box, code = _radix(tuple(lo))
    codes = list(map(code.__getitem__, gens))
    cell_codes = set(map(code.__getitem__, cells))
    packed = weights, lo, codes, cell_codes, box
    pairs = _ek_pairs(gens, codes, weights, cell_codes)
    if len(lo) != 3:
        return _kernel(packed, pairs)[0]
    return 2 * _kernel(packed, pairs, lo[0] * weights[0])[0] - len(cells)


def _bareiss_rank(rows: list[dict[int, int]]) -> int:
    """Exact rank of an integer matrix given as sparse rows {column: entry}
    with no zero entries, by one-step fraction-free Bareiss elimination.

    ``holders[c]`` indexes the live rows with an entry in column c, and a
    step updates only those: (pv*r - f*p) // prev.  Dense Bareiss would
    also scale every other row by pv/prev; over a run of such steps these
    factors telescope, so a row instead keeps the divisor ``prev`` current
    at its last update and is rescaled by prev_now/prev_then when it is next
    read.  That is entry for entry the row dense Bareiss holds after the
    same pivots, and every division is exact because every Bareiss entry is
    a minor of the input (Sylvester's identity).  The rows are consumed.
    """
    then = [1] * len(rows)
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for k, row in enumerate(rows):
        for c in row:
            holders[c].add(k)
    rank = 0
    prev = 1
    for c in sorted(holders):
        hit = holders.pop(c)
        if not hit:
            continue
        # the sparsest candidate pivot keeps the fill-in small
        p = min(hit, key=lambda k: len(rows[k]))
        hit.discard(p)
        piv = rows[p]
        if then[p] != prev:
            piv = {j: v * prev // then[p] for j, v in piv.items()}
        pv = piv.pop(c)
        for j in piv:
            holders[j].discard(p)
        for k in hit:
            row = rows[k]
            if then[k] != prev:
                row = {j: v * prev // then[k] for j, v in row.items()}
            f = row.pop(c)
            new = {j: pv * v // prev for j, v in row.items() if j not in piv}
            for j, w in piv.items():
                v = (pv * row.get(j, 0) - f * w) // prev
                if v:
                    new[j] = v
                    if j not in row:
                        holders[j].add(k)
                elif j in row:
                    holders[j].discard(k)
            rows[k] = new
            then[k] = pv
        prev = pv
        rank += 1
    return rank


def tangent_dimension_oracle(ideal: MonomialIdeal, standard: StandardSet | None = None) -> int:
    """T(I) by exact elimination on the G*l coordinates of candidate maps.

    Columns are (generator i, standard monomial s); each generator pair
    (i, j) contributes, for every standard target t, a row saying the
    coefficient of t in u_ij * image(a_i) - u_ji * image(a_j) vanishes,
    where u_ij = lcm(a_i, a_j) / a_i.  Returns G*l - rank.

    A row holds +1, -1 or both, so the matrix is the incidence matrix of a
    graph with a ground vertex: every minor, hence every Bareiss entry, is
    0 or +-1, and elimination keeps each row at two entries or fewer.  The
    cost thus follows the number of rows, at most G(G-1)/2 * l, and not
    rows times G*l.  Above ``ORACLE_SIZE_CAP`` the call raises
    OracleSizeError: the cap bounds that row count, and with it the time
    and memory one call may take.  ``standard`` follows the contract in the
    module docstring.
    """
    cells = _cells_of(ideal, standard)
    gens = ideal.gens
    g = len(gens)
    l = len(cells)
    if g * l > ORACLE_SIZE_CAP:
        raise OracleSizeError(f"G*l = {g}*{l} = {g * l} exceeds the cap {ORACLE_SIZE_CAP}")
    # packed codes in the balanced base 2*top + 1 (see the module
    # docstring): t - u has a cell's code only if it is that cell
    radix = 2 * max(map(max, chain(gens, cells))) + 1
    place = [radix ** t for t in range(ideal.nvars)]
    col = {sum(map(mul, s, place)): idx for idx, s in enumerate(sorted(cells))}
    rows = []
    for i, j in combinations(range(g), 2):
        lcm = tuple(map(max, gens[i], gens[j]))
        uij = sum(map(mul, map(sub, lcm, gens[i]), place))
        uji = sum(map(mul, map(sub, lcm, gens[j]), place))
        for t in col:
            ci = col.get(t - uij)
            cj = col.get(t - uji)
            if ci is None and cj is None:
                continue
            row = {}
            if ci is not None:
                row[i * l + ci] = 1
            if cj is not None:
                row[j * l + cj] = -1
            rows.append(row)
    return g * l - _bareiss_rank(rows)


def constraint_rank(ideal: MonomialIdeal, standard: StandardSet | None = None) -> int:
    """Number of independent vanishing constraints (zero vectors): G*l - T(I).

    Equals the oracle matrix rank whenever the oracle runs.  ``standard``
    follows the contract in the module docstring.
    """
    packed, pairs = _kept_packing(ideal, standard)
    return len(ideal.gens) * len(packed[3]) - _kernel(packed, pairs)[0]


def verify_tangent(ideal: MonomialIdeal, standard: StandardSet | None = None) -> GradedTangentReport:
    """Run both algorithms and raise VerificationError on disagreement.

    In three variables the graded report must also put (T + l) / 2 in
    each half box alpha_t >= 0 (see the module docstring).  ``standard``
    follows the contract in the module docstring.
    """
    if standard is None:
        standard = standard_set(ideal)
    report = tangent_dimension(ideal, standard)
    if ideal.nvars == 3:
        for t in range(3):
            half = sum(d for alpha, d in report.graded if alpha[t] >= 0)
            if 2 * half != report.total + report.l:
                raise VerificationError(
                    f"graded pieces with alpha_{t + 1} >= 0 sum to {half}, not "
                    f"(T + l)/2 = ({report.total} + {report.l})/2, for {ideal}")
    oracle = tangent_dimension_oracle(ideal, standard)
    if oracle != report.total:
        raise VerificationError(
            f"graded total {report.total} != matrix oracle {oracle} for {ideal}")
    return report
