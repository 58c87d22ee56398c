import math
from fractions import Fraction

import numpy as np
import pytest

import mdentropy.bounds as bounds
from mdentropy.bounds import (
    check_section,
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
    # the estimate is the exact value too
    assert bracket.rayleigh == bracket.lower == bracket.upper


@pytest.mark.parametrize("m", range(2, 17))
def test_dimer_ring_brackets_contain_the_closed_form(m):
    # Lieb, J. Math. Phys. 8, 2339 (1967): the dimer-only torus section (m,)
    # has log rho = 1/2 sum_{k<m} asinh|sin((2k+1) pi / m)|, odd m through M^2
    exact = 0.5 * math.fsum(math.asinh(abs(math.sin((2 * k + 1) * math.pi / m)))
                            for k in range(m))
    bracket = transfer_log_radius((m,), dimer_only=True)
    assert bracket.converged
    assert bracket.lower <= exact <= bracket.upper


def test_section_dims_are_canonicalized():
    a = section_quotient((2, 3))
    b = section_quotient((3, 2))
    assert a.dims == b.dims == (3, 2)
    assert np.array_equal(a.entries, b.entries)
    assert transfer_log_radius((2, 3)).lower == transfer_log_radius((3, 2)).lower


@pytest.mark.parametrize("cached", [section_quotient, transfer_log_radius],
                         ids=lambda f: f.__name__)
def test_swapped_dims_share_one_cache_entry(cached):
    cached.cache_clear()
    cached((2, 3))
    cached((3, 2))
    info = cached.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    cached.cache_clear()
    assert cached.cache_info().currsize == 0


def test_cache_keys_bind_defaults_and_keywords():
    # every call form of one section, and the (12,) lookups of h2_bounds, share one entry
    transfer_log_radius.cache_clear()
    try:
        transfer_log_radius((12,))
        transfer_log_radius((12,), False)
        transfer_log_radius((12,), dimer_only=False)
        transfer_log_radius(dims=(12,), tol=1e-12)
        h2_bounds(6, 1, 6)
        info = transfer_log_radius.cache_info()
        # (12,) and (13,), h2_bounds' other two sections
        assert (info.misses, info.hits, info.currsize) == (2, 5, 2)
        transfer_log_radius((12,), True)
        transfer_log_radius((12,), tol=1e-10)
        assert transfer_log_radius.cache_info().misses == 4
    finally:
        transfer_log_radius.cache_clear()


def test_section_orbit_counts():
    assert section_orbit_count((4,)) == 6
    assert section_orbit_count((8,)) == 30
    assert section_orbit_count((2, 2)) == 6
    assert section_orbit_count((3, 3)) == 26


def test_section_capacity_and_validation():
    # past the memory budget: 2^26 states and more for the monomer-dimer
    # sweep, 2^25 for the dimer-only one, 7685 and 184,854 orbits for the
    # dimer-only quotients; a 25-point monomer-dimer sweep fits (961 MiB)
    for dims in [(26,), (6, 5), (13, 2)]:
        with pytest.raises(CapacityError):
            transfer_log_radius(dims)
    assert check_section((5, 5)).dims == (5, 5)
    for dims in [(26,), (5, 5)]:
        with pytest.raises(CapacityError):
            transfer_log_radius(dims, dimer_only=True)
    for dims in [(6, 4), (18,)]:
        with pytest.raises(CapacityError):
            section_quotient(dims, dimer_only=True)
    # Burnside counts orbits without allocating 2^n of anything
    assert section_orbit_count((18,)) == 7685
    assert section_orbit_count((6, 4)) == 184854
    with pytest.raises(ValueError):
        section_quotient((0, 3))
    with pytest.raises(ValueError):
        section_quotient(())
    with pytest.raises(ValueError):
        section_quotient((-2,))
    # extents are integers: (4.5,) used to be bracketed as (4,)
    with pytest.raises(TypeError):
        transfer_log_radius((4.5,))
    with pytest.raises(TypeError):
        check_section((3, 2.0))


@pytest.mark.parametrize("dims,log_radius,iterations", [
    ((5, 4), 15.7213144691531, 14),
    ((20,), 13.2559794566760, 18),
], ids=["5x4", "20"])
def test_twenty_point_monomer_dimer_brackets(dims, log_radius, iterations):
    bracket = transfer_log_radius(dims)
    assert bracket.converged
    assert bracket.iterations == iterations
    assert bracket.lower <= log_radius <= bracket.upper
    assert bracket.upper - bracket.lower <= 1e-12


# every entry of the sweep sees a fixed sequence of additions, so the
# brackets are pinned to the last bit
@pytest.mark.parametrize("dims,dimer_only,lower,upper,rayleigh,iterations", [
    ((16,), False, 10.604783565517751, 10.604783565518659, 10.604783565518543, 17),
    ((17,), False, 11.267582538124847, 11.267582538125811, 11.267582538125689, 17),
    ((4, 4), False, 12.579237522614907, 12.579237522615461, 12.57923752261495, 14),
    # edges of multiplicity 2
    ((8, 2), False, 12.73331085128287, 12.733310851283044, 12.733310851282884, 14),
    # odd, dimer-only: steps of M^2, one operator applied twice
    ((5, 3), True, 6.635849119910925, 6.635849119910947, 6.635849119910935, 11),
], ids=["16", "17", "4x4", "8x2", "dimer-5x3"])
def test_pinned_brackets(dims, dimer_only, lower, upper, rayleigh, iterations):
    bracket = transfer_log_radius(dims, dimer_only)
    got = (bracket.lower, bracket.upper, bracket.rayleigh, bracket.iterations)
    assert repr(got) == repr((lower, upper, rayleigh, iterations))


def test_capped_estimate_stays_inside_its_bracket():
    # one step of the 3-point dimer ring through M^2: the top sector's
    # estimate fell below the other sector's lower end
    bracket = transfer_log_radius((3,), dimer_only=True, max_iter=1)
    assert not bracket.converged
    assert bracket.rayleigh == bracket.lower == math.log(2.0)
    assert bracket.rayleigh <= bracket.upper


def test_eighteen_point_dimer_only_bracket():
    # the first dimer-only row of the 2-D table past 17 points
    assert section_orbit_count((6, 3)) == 4236
    bracket = transfer_log_radius((6, 3), dimer_only=True)
    assert bracket.converged
    assert bracket.iterations == 22
    assert abs(bracket.rayleigh - 7.9771620688) <= 1e-9
    assert bracket.lower <= bracket.rayleigh <= bracket.upper


@pytest.mark.parametrize("dims,log_radius,iterations", [
    ((5, 4), 9.0352570099016, 33),
    # odd: 11 steps of M^2
    ((7, 3), 9.2971316570827, 11),
], ids=["5x4", "7x3"])
def test_twenty_point_dimer_only_brackets(dims, log_radius, iterations):
    # sections whose orbit quotients, 5.0 and 16 GiB, the budget refuses
    bracket = transfer_log_radius(dims, dimer_only=True)
    assert bracket.converged
    assert bracket.iterations == iterations
    assert bracket.lower <= log_radius <= bracket.upper
    assert bracket.upper - bracket.lower <= 1e-12


@pytest.mark.parametrize("dims", [(4, 1), (6, 1, 1), (3, 3, 1), (5, 1)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_extent_one_leaves_a_dimer_only_bracket_alone(dims):
    # an extent of 1 adds no edge and leaves the colouring bipartite or not,
    # so the sectors, the operator and every bit of the bracket stay
    wide = transfer_log_radius(dims, dimer_only=True)
    narrow = transfer_log_radius(tuple(m for m in dims if m > 1), dimer_only=True)
    assert wide == narrow
    assert wide.converged


def test_dimer_only_brackets_keep_no_quotient():
    # dimer-only brackets run on the sweep and never touch the quotient
    # cache; a quotient asked for directly stays, and every lookup is counted
    section_quotient.cache_clear()
    transfer_log_radius.cache_clear()
    section_quotient((3, 2), True)
    transfer_log_radius((2, 4), dimer_only=True)
    transfer_log_radius((5, 3), dimer_only=True)
    info = section_quotient.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    section_quotient((3, 2), True)
    assert section_quotient.cache_info().hits == 1


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
        h2_bounds(13, 1, 1)
    # non-integers are refused before any bracket runs: 2.5 used to be
    # truncated into an upper bound below h2, and q = 1.5 into a lower
    # bound above its own upper one; r = 30.5 would be past capacity
    for args in [(2.5, 1, 1), (2, 1, 1.5), (30.5, 1, 1), (2, 1.0, 1)]:
        with pytest.raises(ValueError, match="must be integers"):
            h2_bounds(*args)
    for k in range(7):
        args = [1, 1, 1, 1, 1, 1, 1]
        args[k] = 1.5
        with pytest.raises(ValueError, match="must be integers"):
            h3_bounds(*args)


@pytest.mark.parametrize("bound, args, kwargs", [
    # (22,) fits, (27,) does not
    (h2_bounds, (11, 1, 13), {}),
    # the 24-point (6, 4) and (4, 4) come before (2, 14)
    (h3_bounds, (3, 2, 2, 1, 2, 2, 7), {}),
    # the dimer-only (14,) fits, (25,) does not
    (h2_bounds, (7, 1, 12), {"dimer_only": True}),
], ids=["h2", "h3", "h2-dimer-only"])
def test_bounds_check_every_section_before_the_first_bracket(monkeypatch, bound, args, kwargs):
    def no_bracket(*a, **k):
        raise AssertionError("a bracket ran before every section was checked")

    monkeypatch.setattr(bounds, "operator_power_method", no_bracket)
    transfer_log_radius.cache_clear()
    with pytest.raises(CapacityError, match="memory budget"):
        bound(*args, **kwargs)


def test_zero_extent_sections_pass_the_bound_checks():
    # (0,) and (3, 0) are exact log 2 terms, which check_section rejects
    assert h2_bounds(1, 1, 0)[1].value == transfer_log_radius((1,)).lower - math.log(2.0)
    upper, lower = h3_bounds(1, 1, 1, 1, 1, 0, 1)
    assert lower.value <= upper.value


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
