import copy as copy_module
import pickle
from dataclasses import asdict, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_strongly_stable,
    canonical_key,
    ideal_text,
    is_borel_staircase,
    iter_order_ideal_levels,
    minimal_elements,
    standard_exponents_in_box,
)
from strategies import artinian_ideals, staircases

import boreltangent.monomials as monomials_module
from boreltangent.enumeration import enumerate_strongly_stable
from boreltangent.monomials import (
    DimensionMismatchError,
    IdealSyntaxError,
    InvalidStaircaseError,
    MonomialIdeal,
    NonArtinianIdealError,
    PurePowerProfile,
    RedundantGeneratorWarning,
    StandardSet,
    UnknownVariableError,
    colength,
    format_ideal,
    ideal_to_json,
    is_strongly_stable,
    k_of_l,
    minimal_generators,
    parse_ideal,
    pure_power_profile,
    standard_set,
    tetrahedral,
)
from boreltangent.scan import power_ideal

SQUARE = parse_ideal("x^2,x*y,y^2,x*z^2,y*z^2,z^4")  # (x, y, z^2)^2
SESSION = parse_ideal("x^2,y^3,z^3,x*y,x*z,y*z^2,y^2*z")


def test_ideal_canonical_order_and_equality():
    a = MonomialIdeal(2, ((0, 3), (2, 0), (1, 1)))
    b = MonomialIdeal(2, ((1, 1), (0, 3), (2, 0)))
    assert a == b
    assert a.gens == ((2, 0), (1, 1), (0, 3))
    assert hash(a) == hash(b)


def test_carried_text_is_no_field():
    # the text an ideal keeps is not a dataclass field, so equality,
    # hashing, repr and asdict ignore it, and pickling keeps it
    a = MonomialIdeal(2, ((0, 3), (2, 0), (1, 1)))
    b = MonomialIdeal(2, ((2, 0), (1, 1), (0, 3)))
    assert format_ideal(a) == str(a) == "x^2,x*y,y^3"
    assert a.pure_powers() == (2, 3)
    assert "_text" in vars(a)
    assert [f.name for f in fields(MonomialIdeal)] == ["nvars", "gens"]
    assert (a, hash(a), repr(a), asdict(a)) == (b, hash(b), repr(b), asdict(b))
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a)
    assert "_text" in vars(copy)
    assert format_ideal(copy) == format_ideal(b) == "x^2,x*y,y^3"
    assert copy.pure_powers() == b.pure_powers() == (2, 3)


def test_every_ideal_is_built_with_its_text():
    # each way an ideal is made sets its text before anything formats it
    gens = ((0, 3, 0), (2, 0, 0), (1, 1, 0), (0, 0, 1))
    a = MonomialIdeal(3, gens)
    built = {
        "constructor": a,
        "from_generators": MonomialIdeal.from_generators(3, [*gens, (2, 1, 0)]),
        "parse_ideal": parse_ideal("z, y^3, x*y, x^2", nvars=3),
        "minimal_generators": minimal_generators(standard_set(a)),
        "replace": replace(a, gens=((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        "copy": copy_module.copy(a),
        "pickle": pickle.loads(pickle.dumps(a)),
        "unit": MonomialIdeal(2, ((0, 0),)),
        "x1..x5": parse_ideal("x1^2,x2,x3,x4,x5"),
    }
    for name, ideal in built.items():
        assert vars(ideal)["_text"] == ideal_text(ideal.gens, ideal.nvars), name
    assert vars(built["replace"])["_text"] == "x,y,z"
    for ideal in enumerate_strongly_stable(3, 8):
        assert vars(ideal)["_text"] == ideal_text(ideal.gens, 3)


def test_kept_generators_are_no_field():
    # a standard set keeps its ideal's generators outside the dataclass
    # fields: handed over by standard_set, found by the constructor
    ideal = parse_ideal("x^2,x*y,y^3")
    a = standard_set(ideal)
    b = StandardSet(2, a.cells)
    assert vars(a)["_gens"] == vars(b)["_gens"] == ideal.gens
    assert [f.name for f in fields(StandardSet)] == ["nvars", "cells"]
    assert (a, hash(a)) == (b, hash(b))
    for std in (a, b):
        assert repr(std) == f"StandardSet(nvars=2, cells={std.cells!r})"
        assert asdict(std) == {"nvars": 2, "cells": a.cells}
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a)
    assert vars(copy)["_gens"] == ideal.gens
    assert minimal_generators(copy) == ideal


def test_ideal_rejects_non_antichain():
    with pytest.raises(ValueError, match="antichain"):
        MonomialIdeal(2, ((1, 0), (2, 0)))


def test_ideal_rejects_bad_exponents():
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, -1),))
    with pytest.raises(DimensionMismatchError):
        MonomialIdeal(2, ((1, 0, 0),))
    # lengths are checked before minimalizing; an unchecked comparison
    # would drop (1, 0, 0) and return (x)
    with pytest.raises(DimensionMismatchError):
        MonomialIdeal.from_generators(2, [(1, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="negative"):
        MonomialIdeal.from_generators(2, [(1, -1), (0, 1)])
    with pytest.raises(ValueError, match="at least one"):
        MonomialIdeal.from_generators(2, [])
    with pytest.raises(ValueError):
        MonomialIdeal(0, ((0,),))
    with pytest.raises(DimensionMismatchError):
        MonomialIdeal(2, ((1, 0), (0, 1))).contains((0, 0, 0))


def test_from_generators_minimalizes():
    ideal = MonomialIdeal.from_generators(2, [(1, 0), (2, 0), (1, 1), (0, 2)])
    assert ideal.gens == ((1, 0), (0, 2))


def _pure_powers_by_definition(exps, nvars):
    """Smallest m_t with x_t^m_t a multiple of some exponent, per variable."""
    m = []
    for t in range(nvars):
        powers = [e[t] for e in exps if all(e[s] == 0 for s in range(nvars) if s != t)]
        if not powers:
            return None
        m.append(min(powers))
    return tuple(m)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=10))))
def test_from_generators_keeps_the_minimal_elements(case):
    # redundant, duplicated and non-Artinian lists, the unit ideal included
    nvars, exps = case
    ideal = MonomialIdeal.from_generators(nvars, exps)
    assert ideal.gens == tuple(sorted(minimal_elements(exps), key=canonical_key))
    assert ideal == MonomialIdeal(nvars, ideal.gens)
    assert ideal.pure_powers() == _pure_powers_by_definition(exps, nvars)


@settings(max_examples=200, deadline=None)
@given(artinian_ideals(5), st.data())
def test_canonical_order_of_shuffled_generators(ideal, data):
    gens = list(ideal.gens)
    repeats = data.draw(st.lists(st.sampled_from(gens), max_size=4))
    shuffled = data.draw(st.permutations(gens + repeats))
    expect = tuple(sorted(set(shuffled), key=canonical_key))
    assert MonomialIdeal(ideal.nvars, shuffled).gens == expect
    assert MonomialIdeal.from_generators(ideal.nvars, shuffled).gens == expect


def test_parse_warns_on_redundant_generators():
    with pytest.warns(RedundantGeneratorWarning):
        ideal = parse_ideal("x,x^2,y")
    assert format_ideal(ideal) == "x,y"


def test_is_strongly_stable_square_example():
    assert is_strongly_stable(SQUARE)
    assert colength(SQUARE) == 8


def test_is_strongly_stable_rejects_mirrored():
    # y in the ideal would need x in the ideal
    assert not is_strongly_stable(parse_ideal("x^3,y"))


def test_is_strongly_stable_maximal_ideal():
    assert is_strongly_stable(parse_ideal("x,y,z"))


@pytest.mark.parametrize("nvars,max_size", [(2, 8), (3, 8)])
def test_is_strongly_stable_matches_brute_force(nvars, max_size):
    for _size, staircases in iter_order_ideal_levels(nvars, max_size):
        for cells in staircases:
            ideal = minimal_generators(StandardSet(nvars, cells))
            expect = brute_force_strongly_stable(ideal.gens, nvars, ideal.pure_powers())
            assert is_strongly_stable(ideal) == expect
            assert expect == is_borel_staircase(cells, nvars)


def test_standard_set_examples():
    assert standard_set(parse_ideal("x,y,z")).cells == {(0, 0, 0)}
    cells = standard_set(SQUARE).cells
    assert cells == {(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3),
                     (1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1)}
    assert standard_set(parse_ideal("x^2,y^2")).cells == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_standard_set_requires_artinian():
    with pytest.raises(NonArtinianIdealError):
        standard_set(parse_ideal("x,y", nvars=3))


def test_non_artinian_ideal_raises_before_any_growth(monkeypatch):
    # growing these degree by degree would never stop
    def no_growth(*_args):
        raise AssertionError("standard_set grew cells of a non-Artinian ideal")

    monkeypatch.setattr(monomials_module, "_divisors_in", no_growth)
    for text, nvars in (("x,y", 3), ("x^2,x*y,y^2", 3), ("x*y", 2), ("y^2,z", 3),
                        ("x^3,y^2,x*z", 4)):
        ideal = parse_ideal(text, nvars=nvars)
        assert ideal.pure_powers() is None
        with pytest.raises(NonArtinianIdealError):
            standard_set(ideal)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_unit_ideal_pure_powers_and_staircase(nvars):
    unit = MonomialIdeal(nvars, ((0,) * nvars,))
    assert unit.pure_powers() == (0,) * nvars
    assert standard_set(unit).cells == frozenset()
    assert pure_power_profile(unit) == PurePowerProfile((0,) * nvars, 0, 0)


@settings(max_examples=300, deadline=None)
@given(artinian_ideals(5))
def test_standard_set_matches_the_box_scan(ideal):
    assert standard_set(ideal).cells == standard_exponents_in_box(ideal.gens, ideal.nvars)


def test_colength_examples():
    assert colength(SQUARE) == 8
    assert colength(power_ideal(3, 2)) == 4
    assert colength(parse_ideal("x,y^2,z^3")) == 6


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_colength_of_power_ideal_is_tetrahedral(nvars, k):
    assert colength(power_ideal(nvars, k)) == tetrahedral(nvars, k)


def test_minimal_generators_examples():
    assert minimal_generators(StandardSet(3, frozenset([(0, 0, 0)]))) == parse_ideal("x,y,z")
    assert minimal_generators(standard_set(SQUARE)) == SQUARE
    unit = minimal_generators(StandardSet(3, frozenset()))
    assert unit.gens == ((0, 0, 0),)
    assert colength(unit) == 0


def test_standard_set_rejects_non_staircase():
    with pytest.raises(InvalidStaircaseError):
        StandardSet(2, frozenset([(0, 0), (1, 1)]))
    with pytest.raises(InvalidStaircaseError):
        StandardSet(2, frozenset([(0, -1)]))
    with pytest.raises(DimensionMismatchError):
        StandardSet(3, {(0, 0)})
    with pytest.raises(ValueError, match="nvars must be >= 1"):
        StandardSet(0, set())


def test_staircase_round_trip_small():
    for _size, staircases in iter_order_ideal_levels(3, 6):
        for cells in staircases:
            staircase = StandardSet(3, cells)
            assert standard_set(minimal_generators(staircase)) == staircase


@settings(max_examples=200, deadline=None)
@given(staircases())
def test_standard_set_of_minimal_generators_on_random_staircases(staircase):
    assert standard_set(minimal_generators(staircase)) == staircase


@settings(max_examples=200, deadline=None)
@given(artinian_ideals(5))
def test_minimal_generators_of_standard_set_on_random_ideals(ideal):
    assert minimal_generators(standard_set(ideal)) == ideal


def test_pure_power_profile():
    profile = pure_power_profile(SQUARE)
    assert profile.m == (2, 2, 4)
    assert (profile.k, profile.delta) == (2, 4)
    p4 = pure_power_profile(power_ideal(3, 4))
    assert p4.m == (4, 4, 4) and p4.k == 4 and p4.delta == 0
    p5 = pure_power_profile(power_ideal(3, 5))
    assert p5.k == 5 and p5.delta == 0
    with pytest.raises(NonArtinianIdealError):
        pure_power_profile(parse_ideal("x,y", nvars=3))


def test_tetrahedral_and_k_of_l():
    assert tetrahedral(3, 4) == 20
    assert k_of_l(3, 20) == (4, 0)
    assert k_of_l(3, 35) == (5, 0)
    assert k_of_l(3, 10) == (3, 0)
    assert k_of_l(3, 11) == (3, 1)
    with pytest.raises(ValueError):
        k_of_l(3, 0)
    with pytest.raises(ValueError, match="k >= 0"):
        tetrahedral(3, -1)


def test_parse_format_round_trip_examples():
    assert format_ideal(SQUARE) == "x^2,x*y,y^2,x*z^2,y*z^2,z^4"
    assert format_ideal(parse_ideal("x1^3")) == "x^3"
    assert SESSION.num_generators == 7
    assert format_ideal(parse_ideal(format_ideal(SESSION))) == format_ideal(SESSION)


@st.composite
def antichains(draw):
    """A random ideal in 1..6 variables given by the minimal elements of up
    to eight random exponent vectors, so not Artinian in general."""
    nvars = draw(st.integers(1, 6))
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=8))
    return MonomialIdeal.from_generators(nvars, exponents)


TEXT_TABLES = (monomials_module._monomial_text, monomials_module._generator)


@settings(max_examples=300, deadline=None)
@given(antichains())
def test_parse_format_round_trip_on_random_antichains(ideal):
    # the text is the oracle's, first with both text tables empty, then
    # with them holding this ideal's monomials; a fresh ideal each time,
    # so no kept text is read
    expected = ideal_text(ideal.gens, ideal.nvars)
    for table in TEXT_TABLES:
        table.cache_clear()
    for _filled in range(2):
        text = format_ideal(MonomialIdeal(ideal.nvars, ideal.gens))
        assert text == expected
        assert parse_ideal(text, nvars=ideal.nvars) == ideal


def _raised(text, **kwargs):
    with pytest.raises(IdealSyntaxError) as info:
        parse_ideal(text, **kwargs)
    return type(info.value), str(info.value)


def test_text_tables_swallow_no_error():
    # a generator read once for a ring where it is valid is checked again
    # against the next ring
    assert parse_ideal("x3").nvars == 3
    assert _raised("x3", nvars=2)[0] is UnknownVariableError
    assert parse_ideal("y").nvars == 2
    assert _raised("y,x5^2") == (UnknownVariableError, "aliases x,y,z,w are only valid when N <= 4")
    # a bad text is stored nowhere, so it raises the same error each time
    for text in ("x^²", "x**y"):
        before = monomials_module._generator.cache_info().currsize
        assert _raised(text) == _raised(text)
        assert monomials_module._generator.cache_info().currsize == before
    # a repeated factor is summed, read first or after its square
    assert parse_ideal("x*x").gens == ((2,),)
    assert parse_ideal("x^2,x*x").gens == ((2,),)


def test_text_tables_are_bounded_and_keyed_by_monomial():
    for table in TEXT_TABLES:
        table.cache_clear()
    gens = set()
    for ideal in enumerate_strongly_stable(4, 20):
        gens.update(ideal.gens)
        assert parse_ideal(format_ideal(ideal), nvars=4) == ideal
    # 1 068 ideals share 83 generators: one entry per monomial
    assert len(gens) == 83
    for table in TEXT_TABLES:
        info = table.cache_info()
        assert isinstance(info.maxsize, int) and info.currsize == len(gens) <= info.maxsize


def test_parse_whitespace_and_aliases():
    assert parse_ideal(" x ^ 2 , x * y, y^2, x*z^2, y*z^2,z^4 ".replace(" ", " ")) == SQUARE
    assert parse_ideal("x1^2,x1*x2,x2^2,x1*x3^2,x2*x3^2,x3^4") == SQUARE


def test_parse_nvars_embedding():
    ideal = parse_ideal("x^2", nvars=3)
    assert ideal.nvars == 3
    assert ideal.gens == ((2, 0, 0),)


def test_parse_errors():
    with pytest.raises(IdealSyntaxError):
        parse_ideal("")
    with pytest.raises(IdealSyntaxError):
        parse_ideal("x^2,,y")
    with pytest.raises(IdealSyntaxError):
        parse_ideal("x^a")
    with pytest.raises(UnknownVariableError):
        parse_ideal("q^2")
    with pytest.raises(UnknownVariableError):
        parse_ideal("x5", nvars=4)
    with pytest.raises(UnknownVariableError):
        parse_ideal("y,x5^2")  # alias in a 5-variable ring
    with pytest.raises(IdealSyntaxError, match="empty factor"):
        parse_ideal("x**y")
    with pytest.raises(ValueError, match="nvars must be >= 1"):
        parse_ideal("x", nvars=0)


def test_parse_skips_unit_factors():
    assert parse_ideal("x*1,y") == parse_ideal("x,y")
    assert parse_ideal("1*x^2,1*y,z", nvars=3) == parse_ideal("x^2,y,z")


@pytest.mark.parametrize("text,error", [
    ("x^²", IdealSyntaxError),           # superscript two
    ("x^١,y,z", IdealSyntaxError),       # Arabic-Indic one
    ("x^２", IdealSyntaxError),           # fullwidth two
    ("x²", UnknownVariableError),
    ("x١,y", UnknownVariableError),
])
def test_parse_accepts_ascii_digits_only(text, error):
    with pytest.raises(error):
        parse_ideal(text)


def test_fractional_exponents_are_refused():
    with pytest.raises(TypeError):
        MonomialIdeal(2, [(1.7, 0), (0, 1)])
    with pytest.raises(TypeError):
        MonomialIdeal.from_generators(2, [(1.0, 0), (0, 1)])
    with pytest.raises(TypeError):
        StandardSet(2, frozenset({(0.5, 0)}))


def test_parse_large_ring_uses_indexed_names():
    ideal = parse_ideal("x1*x5,x2^3", nvars=5)
    assert format_ideal(ideal) == "x1*x5,x2^3"


def test_json_round_trip():
    obj = ideal_to_json(SQUARE)
    assert obj["vars"] == 3
    assert obj["gens"][0] == [2, 0, 0]
    assert MonomialIdeal(obj["vars"], obj["gens"]) == SQUARE


def test_unit_generator_text():
    unit = minimal_generators(StandardSet(2, frozenset()))
    assert format_ideal(unit) == "1"
    assert parse_ideal("1", nvars=2) == unit
