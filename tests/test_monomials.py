import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_strongly_stable,
    is_borel_staircase,
    iter_order_ideal_levels,
)
from strategies import artinian_ideals, staircases

from boreltangent.monomials import (
    DimensionMismatchError,
    IdealSyntaxError,
    InvalidStaircaseError,
    MonomialIdeal,
    NonArtinianIdealError,
    RedundantGeneratorWarning,
    StandardSet,
    UnknownVariableError,
    colength,
    divides,
    format_ideal,
    ideal_from_json,
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


def test_divides():
    assert divides((1, 0, 0), (2, 0, 0))
    assert not divides((0, 1, 0), (1, 0, 1))
    assert divides((1, 2, 3), (1, 2, 3))


def test_divides_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        divides((1, 0), (1, 0, 0))


def test_ideal_canonical_order_and_equality():
    a = MonomialIdeal(2, ((0, 3), (2, 0), (1, 1)))
    b = MonomialIdeal(2, ((1, 1), (0, 3), (2, 0)))
    assert a == b
    assert a.gens == ((2, 0), (1, 1), (0, 3))
    assert hash(a) == hash(b)


def test_ideal_rejects_non_antichain():
    with pytest.raises(ValueError, match="antichain"):
        MonomialIdeal(2, ((1, 0), (2, 0)))


def test_ideal_rejects_bad_exponents():
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, -1),))
    with pytest.raises(DimensionMismatchError):
        MonomialIdeal(2, ((1, 0, 0),))
    # unvalidated input is minimalized through the checked divides; an
    # unchecked comparison would drop (1, 0, 0) and return (x)
    with pytest.raises(DimensionMismatchError):
        MonomialIdeal.from_generators(2, [(1, 0), (1, 0, 0)])
    with pytest.raises(DimensionMismatchError):
        ideal_from_json({"vars": 2, "gens": [[1, 0], [1, 0, 0]]})
    with pytest.raises(ValueError):
        MonomialIdeal(0, ((0,),))


def test_from_generators_minimalizes():
    ideal = MonomialIdeal.from_generators(2, [(1, 0), (2, 0), (1, 1), (0, 2)])
    assert ideal.gens == ((1, 0), (0, 2))


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


@settings(max_examples=300, deadline=None)
@given(antichains())
def test_parse_format_round_trip_on_random_antichains(ideal):
    assert parse_ideal(format_ideal(ideal), nvars=ideal.nvars) == ideal


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


def test_parse_large_ring_uses_indexed_names():
    ideal = parse_ideal("x1*x5,x2^3", nvars=5)
    assert format_ideal(ideal) == "x1*x5,x2^3"


def test_json_round_trip():
    obj = ideal_to_json(SQUARE)
    assert obj["vars"] == 3
    assert obj["gens"][0] == [2, 0, 0]
    assert ideal_from_json(obj) == SQUARE
    with pytest.raises(IdealSyntaxError):
        ideal_from_json({"vars": 2})


def test_unit_generator_text():
    unit = minimal_generators(StandardSet(2, frozenset()))
    assert format_ideal(unit) == "1"
    assert parse_ideal("1", nvars=2) == unit
