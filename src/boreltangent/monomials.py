"""Monomials, staircases, and strongly stable (Borel-fixed) monomial ideals.

Exponent vectors are plain tuples of nonnegative ints, position t holding
the exponent of x_{t+1}.  Throughout the package x1 is the Borel-dominant
variable: replacing a factor x_t by any x_s with s < t keeps a monomial
inside a strongly stable ideal.  Consequently the minimal pure-power
exponents of an Artinian strongly stable ideal satisfy
m_1 <= m_2 <= ... <= m_N.  This is the mirror image of the convention used
by some textbooks (where x_N is dominant); all scans and reports in this
package assume the m_1-first form.

Coefficients are never materialized: everything here is characteristic-0
combinatorics on exponents, so strongly stable and Borel-fixed coincide.

Text is read and written one generator monomial at a time, through two
bounded tables (``functools.lru_cache`` of :data:`TEXT_TABLE_SIZE` entries
each): :func:`_monomial_text` formats an exponent tuple, and
:func:`_generator` reads one generator text into its exponents, whether it
used an alias and its largest variable index.  Ideals of one scan or
stream share few distinct monomials (83 among the 12 113 generators of the
N=4 colength-20 stream), so each is formatted and read about once per
process.  The tables are keyed by monomial, never by whole ideal: the
ideals of a scan are distinct, so a table of ideals would only serve a
caller that repeats its own inputs.  They hold nothing that depends on the
ring: :func:`parse_ideal` checks the variable count and the aliases outside
them, and an error is raised, never stored.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import index, itemgetter, le

Exponent = tuple[int, ...]

#: alias names for x1..x4, used by the text grammar when N <= 4
ALIASES = ("x", "y", "z", "w")

#: entries in each of the two per-monomial text tables
TEXT_TABLE_SIZE = 4096


class DimensionMismatchError(ValueError):
    """Exponent vectors of different lengths were combined."""


class NonArtinianIdealError(ValueError):
    """The ideal has infinite colength (some variable has no pure power)."""


class InvalidStaircaseError(ValueError):
    """A cell set that is not closed under componentwise decrease."""


class IdealSyntaxError(ValueError):
    """Malformed ideal text."""


class UnknownVariableError(IdealSyntaxError):
    """A variable outside x1..xN (or its alias) was used."""


class RedundantGeneratorWarning(UserWarning):
    """A generator list was not an antichain and has been minimalized."""


def _canonical_order(exps) -> list[Exponent]:
    """Distinct exponents in the package's one generator order: ascending
    total degree, then descending exponent tuple, so that the earlier
    (Borel-dominant) variables come first and e.g. the maximal ideal reads
    x,y,z and squares read x^2,x*y,y^2,...  Two stable sorts on C-level
    keys: descending tuple order, then total degree."""
    order = sorted(exps, reverse=True)
    order.sort(key=sum)
    return order


def tetrahedral(nvars: int, k: int) -> int:
    """Colength of m^k in nvars variables: C(nvars-1+k, nvars)."""
    if nvars < 1 or k < 0:
        raise ValueError("need nvars >= 1 and k >= 0")
    return comb(nvars - 1 + k, nvars)


def k_of_l(nvars: int, l: int) -> tuple[int, int]:
    """Largest k with tetrahedral(nvars, k) <= l, and delta = l - tetrahedral."""
    if l < 1:
        raise ValueError("colength must be >= 1")
    k = 0
    while tetrahedral(nvars, k + 1) <= l:
        k += 1
    return k, l - tetrahedral(nvars, k)


def _minimal_gens(nvars: int, gens) -> tuple[tuple[Exponent, ...], tuple[Exponent, Exponent] | None]:
    """The validated antichain of the minimal ``gens``, in canonical order,
    and the first (divisor, multiple) pair whose multiple it dropped, or
    None when ``gens`` held no multiple of another generator."""
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    uniq = _canonical_order({tuple(map(index, g)) for g in gens})
    if not uniq:
        raise ValueError("need at least one generator")
    for g in uniq:
        if len(g) != nvars:
            raise DimensionMismatchError(
                f"generator {g} has length {len(g)}, expected {nvars}")
        if min(g) < 0:
            raise ValueError(f"negative exponent in generator {g}")
    # every length is checked above, so the pairs compare unchecked; a
    # divisor of g has a smaller degree and sits before g, and a dropped
    # divisor has a kept one of its own
    keep = []
    dropped = None
    for g in uniq:
        for h in keep:
            if all(map(le, h, g)):
                dropped = dropped or (h, g)
                break
        else:
            keep.append(g)
    return tuple(keep), dropped


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators (an antichain).

    Generators are stored in canonical order (see :func:`_canonical_order`),
    so equal ideals compare and hash equal regardless of input order.  Construction rejects non-antichain input; use
    :meth:`from_generators` to minimalize a redundant list instead.

    A frozen value of this package sets its derived data when it is built,
    outside the dataclass fields, so equality, hashing, repr and ``asdict``
    do not see it: an ideal keeps the text of :func:`format_ideal` in
    ``_text``, set here and by :meth:`_trusted`, and a :class:`StandardSet`
    keeps its ideal's generators in ``_gens``.  One datum is set later: the
    tangent kernel keeps its packing of a standard set's staircase in
    ``_packing`` at its first call for that set (see :mod:`.tangent`).
    Only the kernel reads it, and setting it at build time would charge
    every caller that never runs the kernel, such as :func:`colength`,
    :func:`pure_power_profile` and the region counts.
    """

    nvars: int
    gens: tuple[Exponent, ...]

    def __post_init__(self) -> None:
        gens, dropped = _minimal_gens(self.nvars, self.gens)
        if dropped:
            raise ValueError(
                "generators are not an antichain: {} divides {}; "
                "use MonomialIdeal.from_generators to minimalize".format(*dropped))
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "_text", ",".join(map(_monomial_text, gens)))

    @classmethod
    def from_generators(cls, nvars: int, gens, warn: bool = False) -> "MonomialIdeal":
        """Build the ideal generated by ``gens``, dropping redundant ones."""
        gens, dropped = _minimal_gens(nvars, gens)
        if warn and dropped:
            warnings.warn("generator list was not minimal; redundant generators dropped",
                          RedundantGeneratorWarning, stacklevel=2)
        return cls._trusted(nvars, gens)

    @classmethod
    def _trusted(cls, nvars: int, gens: tuple[Exponent, ...]) -> "MonomialIdeal":
        """The ideal of an antichain already in canonical order (see
        :func:`_canonical_order`), built without the constructor's checks
        but with its text, as the constructor sets it."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "nvars", nvars)
        object.__setattr__(ideal, "gens", gens)
        object.__setattr__(ideal, "_text", ",".join(map(_monomial_text, gens)))
        return ideal

    def contains(self, e: Exponent) -> bool:
        """Monomial membership: x^e lies in the ideal."""
        if len(e) != self.nvars:
            raise DimensionMismatchError(
                f"exponent {e} has length {len(e)}, expected {self.nvars}")
        return any(all(map(le, g, e)) for g in self.gens)

    @property
    def num_generators(self) -> int:
        return len(self.gens)

    def pure_powers(self) -> tuple[int, ...] | None:
        """(m_1, ..., m_N) with m_t minimal such that x_t^(m_t) lies in the
        ideal, or None if some variable has no pure power (non-Artinian)."""
        m = [0] * self.nvars
        for g in self.gens:
            d = sum(g)
            if not d:
                # the unit ideal: x_t^0 = 1 lies in it for every t
                return tuple(m)
            if d in g:
                # a pure power's one nonzero exponent is its degree, and an
                # antichain holds at most one pure power per variable
                m[g.index(d)] = d
        return tuple(m) if all(m) else None

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True)
class StandardSet:
    """The standard monomials of an Artinian monomial ideal.

    ``cells`` is divisor-closed (an order ideal in N^nvars); its size is the
    colength of the corresponding monomial ideal.  A finite divisor-closed
    set is the staircase of exactly one ideal, the one its corners
    generate; the set keeps those generators, in canonical order, in
    ``_gens``, set when it is built (see :class:`MonomialIdeal`).

    The constructor checks each cell's length and signs, then checks the
    set by that rule.  It finds the corners, the exponents w outside the
    set with every w - e_u inside (:func:`_gens_from_cells`).  A nonempty
    set without the origin is refused with no growth, naming its least
    cell.  Otherwise the corners include x_t^(k+1) for the largest power
    x_t^k in the set, for every t, and the set is accepted iff it is the
    staircase that :func:`_columns` grows from them.  That staircase lies
    inside the set: an exponent outside the set has a minimal divisor
    outside it, which is a corner.  So the sizes are compared, and a
    refusal names a cell outside the growth, which a corner outside the
    set divides.
    """

    nvars: int
    cells: frozenset[Exponent]

    def __post_init__(self) -> None:
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")
        cells = frozenset(tuple(map(index, c)) for c in self.cells)
        for c in cells:
            if len(c) != self.nvars:
                raise DimensionMismatchError(
                    f"cell {c} has length {len(c)}, expected {self.nvars}")
            if min(c) < 0:
                raise InvalidStaircaseError(f"negative exponent in cell {c}")
        gens = _gens_from_cells(self.nvars, cells)
        # no growth without the origin; the growth lies inside the cells, so
        # equal sizes make them equal
        grown = _columns(self.nvars, gens) if (0,) * self.nvars in cells else ()
        if len(grown) != len(cells):
            raise InvalidStaircaseError(f"not divisor-closed: {min(cells.difference(grown))} "
                                        "present but one of its divisors missing")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_gens", tuple(_canonical_order(gens)))

    @classmethod
    def _trusted(cls, nvars: int, cells: frozenset[Exponent],
                 gens: tuple[Exponent, ...]) -> "StandardSet":
        """The standard set of a divisor-closed frozenset of exponents and
        the generators of its ideal in canonical order, built without the
        constructor's checks."""
        standard = object.__new__(cls)
        object.__setattr__(standard, "nvars", nvars)
        object.__setattr__(standard, "cells", cells)
        object.__setattr__(standard, "_gens", gens)
        return standard

    @property
    def size(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class PurePowerProfile:
    """Pure-power exponents m, plus the tetrahedral position (k, delta) of
    the colength: tetrahedral(N, k) <= l < tetrahedral(N, k+1), delta = l -
    tetrahedral(N, k)."""

    m: tuple[int, ...]
    k: int
    delta: int


def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """True iff the ideal is closed under moving one unit of exponent from
    any variable to a smaller-indexed one.

    Checking the minimal generators suffices: the Borel move of a multiple
    of a generator is a multiple of the moved generator.
    """
    for g in ideal.gens:
        for t in range(1, ideal.nvars):
            if g[t] == 0:
                continue
            moved = list(g)
            moved[t] -= 1
            for s in range(t):
                moved[s] += 1
                if not ideal.contains(tuple(moved)):
                    return False
                moved[s] -= 1
    return True


def standard_set(ideal: MonomialIdeal) -> StandardSet:
    """The exponents of all monomials outside the ideal.

    Raises NonArtinianIdealError when the ideal has infinite colength,
    before any growth, which would then never stop.  Otherwise the cells
    are built one column along the last variable at a time.  Write a cell
    as (p, z) with p its first N - 1 exponents: a generator divides it iff
    the generator's prefix divides p and g_N <= z, so (p, z) is standard
    iff z < h(p) = min{g_N : g[:-1] <= p}.  :func:`_columns` grows the
    prefixes one coordinate t at a time and keeps the generators whose
    prefix so far divides them; as the value v of coordinate t grows, the
    generators with g_t <= v join, so over the last two variables h is a
    running minimum.  A prefix loop stops at the first v where a kept
    generator has an all-zero tail g[t+1:], since that generator divides
    every cell whose prefix has a value of v or more at t; the pure power
    of x_t stops it by v = m_t.  That is O(G) work per prefix, one tuple
    per cell and no set lookup.
    """
    if ideal.pure_powers() is None:
        raise NonArtinianIdealError(
            "ideal has no pure power in some variable; standard set is infinite")
    return StandardSet._trusted(ideal.nvars, frozenset(_columns(ideal.nvars, ideal.gens)),
                                ideal.gens)


def _columns(nvars: int, gens) -> list[Exponent]:
    """The standard cells of the Artinian ideal that ``gens`` generate, by
    the column rule of :func:`standard_set`, each once.  ``gens`` need not
    be an antichain, as the corners of a set that is not divisor-closed
    need not be: a redundant generator never lowers h, a minimum over
    every generator that divides, and never stops a loop that its
    divisor, kept with it, did not stop first."""
    last = nvars - 1
    cells: list[Exponent] = []

    def grow(prefix: Exponent, kept: list[Exponent], t: int) -> None:
        # kept: the generators whose first t exponents divide prefix, among
        # them x_t^(m_t) and x_N^(m_N); each joins at v = g_t, and order[0]
        # has g_t = 0, so no row is read before h is
        order = sorted(kept, key=itemgetter(t))
        start = 0
        h = order[0][last]
        rows = t == last - 1
        for i, g in enumerate(order):
            if rows:
                for v in range(start, g[t]):
                    row = prefix + (v,)
                    cells.extend([row + (z,) for z in range(h)])
                if g[last] < h:
                    h = g[last]
            else:
                for v in range(start, g[t]):
                    grow(prefix + (v,), order[:i], t + 1)
            if not any(g[t + 1:]):
                return
            start = g[t]

    if nvars == 1:
        # one column, with the empty prefix
        cells.extend((z,) for z in range(min(g[0] for g in gens)))
    else:
        grow((), list(gens), 0)
    return cells


def colength(ideal: MonomialIdeal) -> int:
    """Vector-space dimension of R/I; the number of standard monomials."""
    return standard_set(ideal).size


def minimal_generators(staircase: StandardSet) -> MonomialIdeal:
    """The antichain of minimal exponents outside a divisor-closed set.

    Inverse of :func:`standard_set`: round-trips exactly.  The empty
    staircase yields the unit ideal, generated by (0, ..., 0).
    """
    # the corners of a divisor-closed set are an antichain
    return MonomialIdeal._trusted(staircase.nvars, staircase._gens)


def pure_power_profile(ideal: MonomialIdeal) -> PurePowerProfile:
    m = ideal.pure_powers()
    if m is None:
        raise NonArtinianIdealError("pure-power profile requires an Artinian ideal")
    k, delta = k_of_l(ideal.nvars, colength(ideal)) if any(m) else (0, 0)
    return PurePowerProfile(m, k, delta)


def _gens_from_cells(nvars: int, cells) -> set[Exponent]:
    """The corners of a finite set of nonnegative cells, in no particular
    order: the exponents w outside the set with every w - e_u (w_u > 0)
    inside, each found as a cell plus a unit vector.  The origin, a corner
    of any set without it, is returned only when no other corner is found,
    as for the empty set.

    When the set is divisor-closed, its corners are the minimal generators
    of its complement.  The :class:`StandardSet` constructor also runs this
    on sets not yet checked, and refuses those whose corners' staircase is
    not the set.
    """
    found = set()
    for v in cells:
        for t in range(nvars):
            w = v[:t] + (v[t] + 1,) + v[t + 1:]
            if w in found or w in cells:
                continue
            for u in range(nvars):
                if w[u] and w[:u] + (w[u] - 1,) + w[u + 1:] not in cells:
                    break
            else:
                found.add(w)
    return found or {(0,) * nvars}


def _variable_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 4:
        return ALIASES[:nvars]
    return tuple(f"x{t + 1}" for t in range(nvars))


@lru_cache(maxsize=TEXT_TABLE_SIZE)
def _monomial_text(g: Exponent) -> str:
    """The text of one generator, such as ``x^2*y``; its length names the
    variables."""
    names = _variable_names(len(g))
    factors = [names[t] if e == 1 else f"{names[t]}^{e}" for t, e in enumerate(g) if e > 0]
    return "*".join(factors) if factors else "1"


def format_ideal(ideal: MonomialIdeal) -> str:
    """Canonical text form: generators in canonical order, factors joined
    with '*', exponent written only when > 1, aliases x,y,z,w for N <= 4."""
    return ideal._text


def _digits(text: str) -> bool:
    """Whether text is one or more ASCII digits.  str.isdigit and int()
    alone also take other scripts' digits, and int() takes '_'."""
    return text.isascii() and text.isdigit()


def _parse_factor(text: str) -> tuple[str, int]:
    if "^" in text:
        base, _, exp = text.partition("^")
        if not _digits(exp):
            raise IdealSyntaxError(f"bad exponent in factor {text!r}")
        return base, int(exp)
    return text, 1


def _variable_index(name: str) -> int:
    """1-based variable index for a name: alias x,y,z,w or x<k>."""
    if name in ALIASES:
        return ALIASES.index(name) + 1
    if len(name) > 1 and name[0] == "x" and _digits(name[1:]):
        idx = int(name[1:])
        if idx >= 1:
            return idx
    raise UnknownVariableError(f"unknown variable {name!r}")


@lru_cache(maxsize=TEXT_TABLE_SIZE)
def _generator(text: str) -> tuple[tuple[tuple[int, int], ...], bool, int]:
    """One whitespace-free generator text read into (exponents, alias used,
    largest index).  The exponents are (position, exponent) pairs in
    position order, one per variable named, a repeated factor summed; the
    largest 1-based index is 1 for the text ``1``.  Nothing here depends on
    the ring, which :func:`parse_ideal` checks."""
    if not text:
        raise IdealSyntaxError("empty generator (stray comma?)")
    exps: dict[int, int] = {}
    alias_used = False
    for factor in text.split("*"):
        if not factor:
            raise IdealSyntaxError(f"empty factor in {text!r}")
        if factor == "1":
            continue
        name, e = _parse_factor(factor)
        idx = _variable_index(name)
        if name in ALIASES:
            alias_used = True
        exps[idx] = exps.get(idx, 0) + e
    return tuple((idx - 1, e) for idx, e in sorted(exps.items())), alias_used, max(exps, default=1)


def _read_ideal(text: str, nvars: int | None) -> tuple[int, list[Exponent]]:
    """The grammar of :func:`parse_ideal`: the ring size (``nvars``, or
    the largest variable index used) and the generators as written, not
    yet minimalized."""
    stripped = "".join(text.split())
    if not stripped:
        raise IdealSyntaxError("empty ideal text")
    # a list, not zip(*...): unpacking the table's triples that way held
    # about 0.8 memory blocks per parse until a full collection
    read = list(map(_generator, stripped.split(",")))
    max_index = max([largest for _exps, _alias, largest in read])
    n = nvars if nvars is not None else max_index
    if n < 1:
        raise ValueError("nvars must be >= 1")
    if max_index > n:
        raise UnknownVariableError(
            f"variable x{max_index} used but the ring has only {n} variables")
    if n > 4 and any([alias for _exps, alias, _largest in read]):
        raise UnknownVariableError("aliases x,y,z,w are only valid when N <= 4")
    gens = []
    for exps, _alias, _largest in read:
        g = [0] * n
        for t, e in exps:
            g[t] = e
        gens.append(tuple(g))
    return n, gens


def parse_ideal(text: str, nvars: int | None = None) -> MonomialIdeal:
    """Parse the ideal text grammar.

    Generators separated by ',', factors by '*', factor = VAR or VAR^INT.
    VAR is x1..xN, with aliases x,y,z,w for the first four variables when
    N <= 4.  Whitespace is ignored.  When ``nvars`` is omitted it is
    inferred as the largest variable index used.  A non-minimal generator
    list is minimalized with a RedundantGeneratorWarning.
    """
    return MonomialIdeal.from_generators(*_read_ideal(text, nvars), warn=True)


def ideal_to_json(ideal: MonomialIdeal) -> dict:
    """JSON form: {"vars": N, "gens": [[e1,...,eN], ...]} in canonical order."""
    return {"vars": ideal.nvars, "gens": [list(g) for g in ideal.gens]}
