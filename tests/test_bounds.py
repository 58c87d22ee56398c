import math
from fractions import Fraction

import numpy as np
import pytest

from mdentropy.bounds import (
    DESK_SCALE_MAX_POINTS,
    dimer_lower,
    h2_bounds,
    h3_bounds,
    lambda1,
    lambda_lower,
    one_dim_counts,
    optimal_density,
    permanent_matching_lower,
    section_orbit_count,
    section_quotient,
    transfer_log_radius,
)
from mdentropy.lattice import CapacityError

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_one_dim_counts_small_cases():
    assert one_dim_counts(1) == (1, 1, 3)
    assert one_dim_counts(2) == (2, 3, 5)
    assert one_dim_counts(3) == (3, 4, 8)
    assert one_dim_counts(4) == (5, 7, 13)
    with pytest.raises(ValueError):
        one_dim_counts(0)


def test_one_dim_counts_recursions():
    fib = [0, 1]
    while len(fib) < 25:
        fib.append(fib[-1] + fib[-2])
    for m in range(1, 20):
        tilings, periodic, protruding = one_dim_counts(m)
        assert tilings == fib[m + 1]
        assert periodic == fib[m + 1] + fib[m - 1]
        assert protruding == fib[m + 3]


def test_zero_extent_sections_are_exact():
    bracket = transfer_log_radius((0,))
    assert bracket.lower == bracket.upper == math.log(2.0)
    assert bracket.converged
    assert bracket.iterations == 0
    assert transfer_log_radius((4, 0)).lower == 4 * math.log(2.0)
    assert transfer_log_radius((0, 4)).lower == 4 * math.log(2.0)
    assert transfer_log_radius((0, 0)).lower == math.log(2.0)


def test_section_dims_are_canonicalized():
    a = section_quotient((2, 3))
    b = section_quotient((3, 2))
    assert a.dims == b.dims == (3, 2)
    assert np.array_equal(a.entries, b.entries)
    assert transfer_log_radius((2, 3)).lower == transfer_log_radius((3, 2)).lower


def test_section_orbit_counts():
    assert section_orbit_count((4,)) == 6
    assert section_orbit_count((8,)) == 30
    assert section_orbit_count((2, 2)) == 6
    assert section_orbit_count((3, 3)) == 26


def test_section_capacity_and_validation():
    assert DESK_SCALE_MAX_POINTS == 17
    for dims in [(18,), (6, 3)]:
        with pytest.raises(CapacityError):
            section_quotient(dims)
        with pytest.raises(CapacityError):
            transfer_log_radius(dims)
        with pytest.raises(CapacityError):
            section_orbit_count(dims)
    with pytest.raises(ValueError):
        section_quotient((0, 3))
    with pytest.raises(ValueError):
        section_quotient(())
    with pytest.raises(ValueError):
        section_quotient((-2,))


def test_one_dim_radius_matches_golden_ratio_limit():
    # log spectral radius of the m-ring over m decreases toward h2 from above
    per_site = [transfer_log_radius((m,)).rayleigh / m for m in (4, 6, 8, 10)]
    assert all(a > b for a, b in zip(per_site, per_site[1:]))
    assert per_site[-1] > 0.66


def test_h2_bound_values():
    upper, lower = h2_bounds(6, 1, 6)
    assert upper.target == lower.target == "h2"
    assert upper.direction == "upper"
    assert lower.direction == "lower"
    assert upper.converged and lower.converged
    assert abs(upper.value - 0.6627989757759615) <= 1e-11
    assert abs(lower.value - 0.6627989281628404) <= 1e-11
    assert lower.value <= upper.value
    assert upper.formula == "log_radius(2r)/(2r)"
    assert upper.params == {"r": 6, "dims": [12]}
    assert lower.params == {"p": 1, "q": 6, "dims": [[13], [12]]}


def test_h2_dimer_bound_values():
    upper, lower = h2_bounds(7, 2, 6, dimer_only=True)
    assert upper.target == "h2_dimer"
    assert abs(upper.value - 0.2942658036570565) <= 1e-11
    assert abs(lower.value - 0.2882953362816605) <= 1e-11
    assert lower.value <= 0.29156090 <= upper.value


def test_h3_bound_values():
    upper, lower = h3_bounds(2, 2, 1, 1, 1, 2, 4)
    assert upper.target == lower.target == "h3"
    assert abs(upper.value - 0.7862023451634663) <= 1e-11
    assert abs(lower.value - 0.761917242219476) <= 1e-10
    assert lower.value <= upper.value
    assert upper.params == {"r": 2, "t": 2, "dims": [4, 4]}
    assert lower.params["dims"] == [[3, 5], [3, 4], [2, 8]]


def test_bound_parameter_validation():
    with pytest.raises(ValueError):
        h2_bounds(0, 1, 1)
    with pytest.raises(ValueError):
        h2_bounds(1, 0, 1)
    with pytest.raises(ValueError):
        h2_bounds(1, 1, -1)
    with pytest.raises(ValueError):
        h3_bounds(1, 1, 1, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        h3_bounds(1, 1, 1, -1, 1, 1, 1)
    with pytest.raises(CapacityError):
        h2_bounds(9, 1, 1)


def test_wider_sections_tighten_the_h2_upper_bound():
    values = [h2_bounds(r, 1, 1)[0].value for r in (2, 4, 6)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lambda1_endpoints_and_peak():
    assert lambda1(0.0) == 0.0
    assert lambda1(1.0) == 0.0
    peak = 1.0 - 1.0 / math.sqrt(5.0)
    assert abs(lambda1(peak) - math.log(GOLDEN)) <= 1e-12
    grid = [i / 200 for i in range(201)]
    assert max(lambda1(p) for p in grid) <= math.log(GOLDEN) + 1e-12
    with pytest.raises(ValueError):
        lambda1(1.5)


def test_lambda_lower_stays_below_the_exact_curve():
    for i in range(101):
        p = i / 100
        assert lambda_lower(1, p) <= lambda1(p) + 1e-12


def test_lambda_lower_concavity_and_peak():
    for d in (1, 2, 3):
        grid = [lambda_lower(d, i / 100) for i in range(101)]
        diffs = [b - a for a, b in zip(grid, grid[1:])]
        assert all(a >= b - 1e-12 for a, b in zip(diffs, diffs[1:]))
        best = optimal_density(d)
        top = lambda_lower(d, best)
        for eps in (1e-4, 1e-3):
            assert top >= lambda_lower(d, best - eps)
            assert top >= lambda_lower(d, best + eps)


def test_optimal_density_closed_form():
    assert optimal_density(3) == 2.0 / 3.0
    assert 0.0 < optimal_density(1) < optimal_density(2) < optimal_density(3) < 1.0


def test_peak_values_match_reference_decimals():
    assert abs(lambda_lower(2, optimal_density(2)) - 0.6358077437083127) <= 1e-12
    assert abs(lambda_lower(3, optimal_density(3)) - 0.7652789553347763) <= 1e-12
    assert abs(dimer_lower(3) - 0.4400758426291409) <= 1e-12


def test_dimer_lower_values():
    assert dimer_lower(1) == 0.0
    assert dimer_lower(2) < dimer_lower(3) < dimer_lower(4)
    with pytest.raises(ValueError):
        dimer_lower(0)


def test_permanent_matching_lower_exact_values():
    assert permanent_matching_lower(2, 2, 1) == (4.0, Fraction(4))
    assert permanent_matching_lower(3, 2, 2).exact == Fraction(8)
    assert permanent_matching_lower(5, 3, 0) == (1.0, Fraction(1))
    assert permanent_matching_lower(4, 0, 2).exact == Fraction(0)
    got = permanent_matching_lower(7, 3, 5)
    assert got.exact == Fraction(math.comb(7, 5) ** 2 * math.factorial(5) * 3**5, 7**5)
    assert got.value == float(got.exact)
    for bad in [(0, 1, 0), (2, -1, 1), (2, 1, 3)]:
        with pytest.raises(ValueError):
            permanent_matching_lower(*bad)


def test_consistency_between_routes():
    # the closed-form peak must sit below the spectral upper bound
    upper, _ = h2_bounds(6, 1, 6)
    assert lambda_lower(2, optimal_density(2)) <= upper.value
    upper3, lower3 = h3_bounds(2, 2, 1, 1, 1, 2, 4)
    assert lambda_lower(3, optimal_density(3)) <= upper3.value
    assert lower3.value <= upper3.value
