#!/usr/bin/env python3
"""Monomial ideals, staircases, and the text grammar.

A zero-dimensional monomial ideal is determined by its staircase: the
finite, divisor-closed set of exponents of the monomials NOT in the ideal.
This walk builds the running example (x, y, z^2)^2 from its text form and
takes it apart.
"""

from boreltangent import (
    colength,
    format_ideal,
    ideal_to_json,
    is_strongly_stable,
    minimal_generators,
    parse_ideal,
    pure_power_profile,
    standard_set,
)

ideal = parse_ideal("x^2,x*y,y^2,x*z^2,y*z^2,z^4")
print("ideal:          ", format_ideal(ideal))
print("generators:     ", ideal.gens)
print("colength:       ", colength(ideal))

staircase = standard_set(ideal)
# by total degree, then x before y before z
print("standard cells: ", sorted(staircase.cells, key=lambda c: (sum(c), [-e for e in c])))

# the staircase determines the ideal right back
assert minimal_generators(staircase) == ideal

# x1 is Borel-dominant here: pushing exponent toward x keeps you inside the
# ideal, so the pure powers increase with the variable index
profile = pure_power_profile(ideal)
print("pure powers m:  ", profile.m)
print("k, delta:       ", profile.k, profile.delta)
print("strongly stable:", is_strongly_stable(ideal))

# a mirrored ideal is NOT strongly stable under this convention:
# y in the ideal would force x in as well
print("(x^3, y) stable?", is_strongly_stable(parse_ideal("x^3,y")))

# machine-readable form used by the CLI's jsonl output
print("json:           ", ideal_to_json(ideal))
