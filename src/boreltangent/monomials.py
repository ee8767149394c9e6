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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product
from math import comb
from operator import le

Exponent = tuple[int, ...]

#: alias names for x1..x4, used by the text grammar when N <= 4
ALIASES = ("x", "y", "z", "w")


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


def divides(a: Exponent, b: Exponent) -> bool:
    """True iff x^a divides x^b, i.e. a <= b componentwise."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"exponent lengths differ: {len(a)} vs {len(b)}")
    return all(map(le, a, b))


def canonical_key(e: Exponent) -> tuple[int, Exponent]:
    """Sort key: total degree, then lexicographic on the exponent sequence
    with the earlier (Borel-dominant) variables first, so that e.g. the
    maximal ideal reads x,y,z and squares read x^2,x*y,y^2,..."""
    return (sum(e), tuple(-c for c in e))


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


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators (an antichain).

    Generators are stored in canonical order (total degree, then lex on the
    exponent sequence), so equal ideals compare and hash equal regardless of
    input order.  Construction rejects non-antichain input; use
    :meth:`from_generators` to minimalize a redundant list instead.
    """

    nvars: int
    gens: tuple[Exponent, ...]

    def __post_init__(self) -> None:
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")
        gens = sorted({tuple(int(e) for e in g) for g in self.gens}, key=canonical_key)
        if not gens:
            raise ValueError("need at least one generator")
        for g in gens:
            if len(g) != self.nvars:
                raise DimensionMismatchError(
                    f"generator {g} has length {len(g)}, expected {self.nvars}")
            if any(e < 0 for e in g):
                raise ValueError(f"negative exponent in generator {g}")
        # every length is checked above, so the pairs compare unchecked
        for i, g in enumerate(gens):
            for h in gens[:i]:
                if all(map(le, h, g)):
                    raise ValueError(
                        f"generators are not an antichain: {h} divides {g}; "
                        "use MonomialIdeal.from_generators to minimalize")
        object.__setattr__(self, "gens", tuple(gens))

    @classmethod
    def from_generators(cls, nvars: int, gens, warn: bool = False) -> "MonomialIdeal":
        """Build the ideal generated by ``gens``, dropping redundant ones."""
        # lengths are not validated yet: compare through the checked divides
        uniq = sorted({tuple(int(e) for e in g) for g in gens}, key=canonical_key)
        keep = [g for i, g in enumerate(uniq)
                if not any(divides(h, g) for h in uniq[:i])]
        if warn and len(keep) != len(uniq):
            warnings.warn("generator list was not minimal; redundant generators dropped",
                          RedundantGeneratorWarning, stacklevel=2)
        return cls(nvars, tuple(keep))

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
        m = []
        for t in range(self.nvars):
            best = None
            for g in self.gens:
                if all(g[s] == 0 for s in range(self.nvars) if s != t):
                    best = g[t] if best is None else min(best, g[t])
            if best is None:
                return None
            m.append(best)
        return tuple(m)

    def __str__(self) -> str:
        return format_ideal(self)


@dataclass(frozen=True)
class StandardSet:
    """The standard monomials of an Artinian monomial ideal.

    ``cells`` is divisor-closed (an order ideal in N^nvars); its size is the
    colength of the corresponding monomial ideal.
    """

    nvars: int
    cells: frozenset[Exponent]

    def __post_init__(self) -> None:
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")
        cells = frozenset(tuple(int(e) for e in c) for c in self.cells)
        for c in cells:
            if len(c) != self.nvars:
                raise DimensionMismatchError(
                    f"cell {c} has length {len(c)}, expected {self.nvars}")
            if any(e < 0 for e in c):
                raise InvalidStaircaseError(f"negative exponent in cell {c}")
            for t in range(self.nvars):
                if c[t] > 0:
                    below = c[:t] + (c[t] - 1,) + c[t + 1:]
                    if below not in cells:
                        raise InvalidStaircaseError(
                            f"not divisor-closed: {c} present but {below} missing")
        object.__setattr__(self, "cells", cells)

    @property
    def size(self) -> int:
        return len(self.cells)

    def sorted_cells(self) -> list[Exponent]:
        return sorted(self.cells, key=canonical_key)


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

    Raises NonArtinianIdealError when the ideal has infinite colength.
    Every standard exponent satisfies e_t < m_t, so scanning the pure-power
    box suffices.
    """
    m = ideal.pure_powers()
    if m is None:
        raise NonArtinianIdealError(
            "ideal has no pure power in some variable; standard set is infinite")
    cells = frozenset(v for v in product(*(range(mt) for mt in m))
                      if not ideal.contains(v))
    return StandardSet(ideal.nvars, cells)


def colength(ideal: MonomialIdeal) -> int:
    """Vector-space dimension of R/I; the number of standard monomials."""
    return standard_set(ideal).size


def minimal_generators(staircase: StandardSet) -> MonomialIdeal:
    """The antichain of minimal exponents outside a divisor-closed set.

    Inverse of :func:`standard_set`: round-trips exactly.  The empty
    staircase yields the unit ideal, generated by (0, ..., 0).
    """
    gens = _gens_from_cells(staircase.nvars, staircase.cells)
    return MonomialIdeal(staircase.nvars, gens)


def pure_power_profile(ideal: MonomialIdeal) -> PurePowerProfile:
    m = ideal.pure_powers()
    if m is None:
        raise NonArtinianIdealError("pure-power profile requires an Artinian ideal")
    k, delta = k_of_l(ideal.nvars, colength(ideal)) if any(m) else (0, 0)
    return PurePowerProfile(m, k, delta)


def _gens_from_cells(nvars: int, cells) -> set[Exponent]:
    """Minimal generators of the complement of a divisor-closed cell set
    (its corners: every divisor is a cell), in no particular order.

    Trusted internal path: assumes divisor-closure, skips validation.
    """
    if not cells:
        return {(0,) * nvars}
    gens = set()
    for v in cells:
        for t in range(nvars):
            w = v[:t] + (v[t] + 1,) + v[t + 1:]
            if w not in cells and w not in gens and _divisors_in(nvars, cells, w):
                gens.add(w)
    return gens


def _divisors_in(nvars: int, cells, w: Exponent) -> bool:
    """Whether every w - e_u with w_u > 0 is a cell: the corner rule, for a
    w outside a divisor-closed cell set."""
    for u in range(nvars):
        if w[u] and w[:u] + (w[u] - 1,) + w[u + 1:] not in cells:
            return False
    return True


def _borel_moves_in(nvars: int, cells, c: Exponent) -> bool:
    """Whether every unit move of c toward a later variable is a cell; for a
    corner c of a Borel staircase, whether cells + {c} is one too."""
    for s in range(nvars - 1):
        if c[s] == 0:
            continue
        for t in range(s + 1, nvars):
            if c[:s] + (c[s] - 1,) + c[s + 1:t] + (c[t] + 1,) + c[t + 1:] not in cells:
                return False
    return True


def _m1_of_cells(cells) -> int:
    """Pure x1 exponent of the complement ideal of a divisor-closed set."""
    return 1 + max(c[0] for c in cells)


def _variable_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 4:
        return ALIASES[:nvars]
    return tuple(f"x{t + 1}" for t in range(nvars))


def format_ideal(ideal: MonomialIdeal) -> str:
    """Canonical text form: generators in canonical order, factors joined
    with '*', exponent written only when > 1, aliases x,y,z,w for N <= 4."""
    return _format_gens(ideal.nvars, ideal.gens)


def _format_gens(nvars: int, gens) -> str:
    """The text of :func:`format_ideal` for generators already in canonical order."""
    names = _variable_names(nvars)
    parts = []
    for g in gens:
        factors = [names[t] if e == 1 else f"{names[t]}^{e}"
                   for t, e in enumerate(g) if e > 0]
        parts.append("*".join(factors) if factors else "1")
    return ",".join(parts)


def _parse_factor(text: str) -> tuple[str, int]:
    if "^" in text:
        base, _, exp = text.partition("^")
        if not exp.isdigit():
            raise IdealSyntaxError(f"bad exponent in factor {text!r}")
        return base, int(exp)
    return text, 1


def _variable_index(name: str) -> int:
    """1-based variable index for a name: alias x,y,z,w or x<k>."""
    if name in ALIASES:
        return ALIASES.index(name) + 1
    if len(name) > 1 and name[0] == "x" and name[1:].isdigit():
        idx = int(name[1:])
        if idx >= 1:
            return idx
    raise UnknownVariableError(f"unknown variable {name!r}")


def parse_ideal(text: str, nvars: int | None = None) -> MonomialIdeal:
    """Parse the ideal text grammar.

    Generators separated by ',', factors by '*', factor = VAR or VAR^INT.
    VAR is x1..xN, with aliases x,y,z,w for the first four variables when
    N <= 4.  Whitespace is ignored.  When ``nvars`` is omitted it is
    inferred as the largest variable index used.  A non-minimal generator
    list is minimalized with a RedundantGeneratorWarning.
    """
    stripped = "".join(text.split())
    if not stripped:
        raise IdealSyntaxError("empty ideal text")
    raw: list[dict[int, int]] = []
    alias_used = False
    max_index = 1
    for gen_text in stripped.split(","):
        if not gen_text:
            raise IdealSyntaxError("empty generator (stray comma?)")
        exps: dict[int, int] = {}
        if gen_text != "1":
            for factor in gen_text.split("*"):
                if not factor:
                    raise IdealSyntaxError(f"empty factor in {gen_text!r}")
                if factor == "1":
                    continue
                name, e = _parse_factor(factor)
                idx = _variable_index(name)
                if name in ALIASES:
                    alias_used = True
                exps[idx] = exps.get(idx, 0) + e
                max_index = max(max_index, idx)
        raw.append(exps)
    n = nvars if nvars is not None else max_index
    if n < 1:
        raise ValueError("nvars must be >= 1")
    if max_index > n:
        raise UnknownVariableError(
            f"variable x{max_index} used but the ring has only {n} variables")
    if alias_used and n > 4:
        raise UnknownVariableError("aliases x,y,z,w are only valid when N <= 4")
    gens = [tuple(exps.get(t + 1, 0) for t in range(n)) for exps in raw]
    return MonomialIdeal.from_generators(n, gens, warn=True)


def ideal_to_json(ideal: MonomialIdeal) -> dict:
    """JSON form: {"vars": N, "gens": [[e1,...,eN], ...]} in canonical order."""
    return {"vars": ideal.nvars, "gens": [list(g) for g in ideal.gens]}


def ideal_from_json(obj: dict) -> MonomialIdeal:
    try:
        nvars = int(obj["vars"])
        gens = [tuple(int(e) for e in g) for g in obj["gens"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise IdealSyntaxError(f"bad ideal JSON object: {exc}") from exc
    return MonomialIdeal.from_generators(nvars, gens, warn=True)
