"""End-to-end acceptance checks.

Each test covers one headline claim and prints a PASS/FAIL line;
run with `pytest tests/test_acceptance.py -s` to see the lines.  Expected
digits live in tables inside this file.  Two tabulated reference values
carry roundoff of order 3e-7; those rows are asserted against
independently cross-checked values at 1e-9 and the tabulated digits at
3e-7, with a printed note.
"""

import math
import random
from contextlib import contextmanager

import pytest

from mdentropy.bounds import (
    dimer_lower,
    h2_bounds,
    h3_bounds,
    lambda1,
    lambda_lower,
    one_dim_counts,
    optimal_density,
    section_orbit_count,
    section_quotient,
    transfer_log_radius,
)
from mdentropy.lattice import LatticeShape
from mdentropy.matchcount import CoverTable, SectionKind
from mdentropy.oracle import count_covers, count_subset_covers, run_verification_suite
from mdentropy.spectral import power_method
from mdentropy.symmetry import burnside_orbit_count, generate_motion_group
from mdentropy.transfer import full_matrix_sparse, weighted_symmetry_ok


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


ONE_DIM_ORBITS = {
    4: 6, 5: 8, 6: 13, 7: 18, 8: 30, 9: 46, 10: 78, 11: 126,
    12: 224, 13: 380, 14: 687, 15: 1224,
}

# published column says 25 at (3, 3); direct enumeration and the Burnside
# count both give 26, so that row is pinned to the verified value
TWO_DIM_ORBITS = {
    (2, 2): 6, (3, 2): 13, (4, 2): 34, (5, 2): 78, (6, 2): 237,
    (7, 2): 687, (8, 2): 2299, (3, 3): 26, (4, 3): 158, (5, 3): 708,
    (4, 4): 805,
}

TABLE1 = {
    4: (2.6532941163, 1e-9),
    5: (3.3135066910, 1e-9),
    6: (3.9769139475, 1e-9),
    7: (4.6395628723, 1e-9),
    8: (5.3023993987, 1e-9),
    9: (5.9651887945, 1e-9),
    10: (6.6279902386, 1e-9),
    11: (7.2907885674, 1e-9),
    12: (7.9535877093, 1e-9),
    13: (8.6163866375, 1e-8),
    14: (9.2791856222, 1e-8),
    15: (9.9419845918, 1e-8),
    16: (10.60478356551861, 1e-9),
}

TABLE2 = {
    4: 1.316957897,
    5: 1.404661127,
    6: 1.843797237,
    7: 2.003260294,
    8: 2.400842203,
    9: 2.594837310,
    10: 2.969359257,
    11: 3.183303939,
    12: 3.543130579,
    13: 3.770113562,
    14: 4.119721251,
    15: 4.355934472,
}

TABLE3 = {
    (2, 2): 3.224405658,
    (3, 2): 4.768958913,
    (4, 2): 6.367778959,
    (5, 2): 7.958105292,
    (6, 2): 9.550024542,
    (3, 3): 7.057039652,
    (4, 3): 9.421594940,
    (5, 3): 11.77517604,
    (4, 4): 12.57923752,
}

# tabulated digits for these two rows disagree with recomputation beyond
# their print precision; the cross-checked values come from the raw
# 2^n-state matrix at (7, 2) and an independent subgroup reduction at (8, 2)
TABLE3_LOOSE = {
    (7, 2): (11.14163679, 11.141636533827356),
    (8, 2): (12.73331093, 12.733310851282884),
}

TABLE4 = {
    (2, 2): 2.292431670,
    (3, 2): 3.068671222,
    (4, 2): 4.151763891,
    (5, 2): 5.119835223,
    (6, 2): 6.161467494,
    (7, 2): 7.168058989,
    (3, 3): 3.938705096,
    (4, 3): 5.365527945,
    (5, 3): 6.635849120,
    (4, 4): 7.409698288,
}


def log_radius(dims, dimer_only=False):
    bracket = transfer_log_radius(tuple(dims), dimer_only)
    assert bracket.converged, f"section {dims} did not converge"
    return bracket.rayleigh


def test_acceptance_1_orbit_counts():
    with criterion(1, "orbit counts"):
        for m, want in ONE_DIM_ORBITS.items():
            assert section_orbit_count((m,)) == want, f"m={m}"
            group = generate_motion_group(LatticeShape((m,)))
            assert burnside_orbit_count(group, m) == want, f"burnside m={m}"
        for dims, want in TWO_DIM_ORBITS.items():
            assert section_orbit_count(dims) == want, f"dims={dims}"
            shape = LatticeShape(dims)
            group = generate_motion_group(shape)
            assert burnside_orbit_count(group, shape.n) == want, f"burnside {dims}"
        print("note: (3,3) orbit count is 26 by direct walk and Burnside; "
              "a tabulated 25 elsewhere does not match any subgroup")


def test_acceptance_2_monomer_dimer_sections():
    with criterion(2, "2-D growth rates"):
        for m, (want, tol) in TABLE1.items():
            got = log_radius((m,))
            assert abs(got - want) <= tol, f"m={m}: {got} vs {want}"


def test_acceptance_3_dimer_sections():
    with criterion(3, "2-D dimer growth rates"):
        for m, want in TABLE2.items():
            got = log_radius((m,), dimer_only=True)
            assert abs(got - want) <= 1e-8, f"m={m}: {got} vs {want}"


def test_acceptance_4_two_dim_sections():
    with criterion(4, "3-D growth rates"):
        for dims, want in TABLE3.items():
            got = log_radius(dims)
            assert abs(got - want) <= 1e-8, f"{dims}: {got} vs {want}"
        for dims, (tabulated, checked) in TABLE3_LOOSE.items():
            got = log_radius(dims)
            assert abs(got - checked) <= 1e-9, f"{dims}: {got} vs {checked}"
            assert abs(got - tabulated) <= 3e-7, f"{dims}: {got} vs {tabulated}"
        for dims, want in TABLE4.items():
            got = log_radius(dims, dimer_only=True)
            assert abs(got - want) <= 1e-8, f"{dims} dimer: {got} vs {want}"
        print("note: (7,2) and (8,2) match their tabulated digits only to "
              "3e-7; cross-checked values hold to 1e-9")


def test_acceptance_5_bound_assembly():
    with criterion(5, "entropy bound assembly"):
        upper2, lower2 = h2_bounds(6, 1, 6)
        assert abs(upper2.value - 0.66279897578) <= 1e-9
        assert abs(lower2.value - 0.6627989282) <= 1e-8
        upper3, lower3 = h3_bounds(2, 2, 1, 1, 1, 2, 4)
        assert abs(upper3.value - 0.7862023450) <= 1e-8
        assert abs(lower3.value - 0.761917234) <= 1e-8
        upper2t, lower2t = h2_bounds(7, 2, 6, dimer_only=True)
        assert lower2t.value <= 0.29156090 <= upper2t.value
        for bound in (upper2, lower2, upper3, lower3, upper2t, lower2t):
            assert bound.converged


def test_acceptance_6_closed_forms():
    with criterion(6, "closed-form bounds"):
        peak2 = lambda_lower(2, optimal_density(2))
        peak3 = lambda_lower(3, optimal_density(3))
        assert abs(peak2 - 0.6358077435) <= 1e-9
        assert abs(peak3 - 0.7652789557) <= 1e-9
        assert abs(peak2 - 0.6358077437083127) <= 1e-12
        assert abs(peak3 - 0.7652789553347763) <= 1e-12
        assert abs(dimer_lower(3) - 0.440075842) <= 1e-9
        assert optimal_density(3) == 2.0 / 3.0
        peak_p = 1.0 - 1.0 / math.sqrt(5.0)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert abs(lambda1(peak_p) - math.log(golden)) <= 1e-12
        print("note: the two tabulated 10-digit peak values carry ~3e-10 "
              "roundoff in their last digit; both gates above pass")


def test_acceptance_7_enumeration_oracle():
    with criterion(7, "enumeration cross-checks"):
        ok, lines = run_verification_suite(max_points=20)
        assert ok
        assert all(line.startswith("ok  ") for line in lines)
        for m in range(1, 16):
            tilings, periodic, protruding = one_dim_counts(m)
            assert count_covers((m,), "tiling") == tilings
            assert count_covers((m,), "periodic") == periodic
            assert count_covers((m,), "protruding") == protruding
        kinds = (SectionKind.BOX, SectionKind.TORUS, SectionKind.MIXED,
                 SectionKind.PROTRUDING)
        checked = 0
        for i, dims in enumerate([(5,), (3, 2), (2, 2, 2)]):
            shape = LatticeShape(dims)
            for j, kind in enumerate(kinds):
                for dimer_only in (False, True):
                    table = CoverTable(shape, kind, dimer_only)
                    rng = random.Random(1000 + 29 * i + 7 * j + dimer_only)
                    for _ in range(100):
                        mask = rng.randrange(table.full + 1)
                        assert count_subset_covers(dims, kind, mask, dimer_only) \
                            == table.count(mask)
                        checked += 1
        assert checked == 2400
        print(f"note: suite ran {len(lines)} checks plus {checked} "
              "random-subset comparisons")


def test_acceptance_8_quotient_soundness():
    with criterion(8, "orbit-fold soundness"):
        for dims in [(10,), (12,), (3, 3), (4, 3)]:
            shape = LatticeShape(dims)
            for dimer_only in (False, True):
                qm = section_quotient(dims, dimer_only)
                assert weighted_symmetry_ok(qm)
                table = CoverTable(shape, SectionKind.TORUS, dimer_only)
                full_bracket, _ = power_method(full_matrix_sparse(table))
                fold_bracket, _ = power_method(qm.to_dense())
                assert full_bracket.converged and fold_bracket.converged
                low = max(full_bracket.lower, fold_bracket.lower)
                high = min(full_bracket.upper, fold_bracket.upper)
                scale = max(1.0, full_bracket.upper)
                assert low <= high + 1e-9 * scale, f"{dims} dimer={dimer_only}"


@pytest.mark.parametrize("dimer_only, sections", [
    (False, [(10,), (12,), (3, 3), (4, 3), (8, 2)]),
    (True, [(10,), (12,), (3, 3), (4, 3), (4, 4), (5, 3)]),
], ids=["monomer-dimer", "dimer-only"])
def test_sweep_brackets_match_quotient_brackets(dimer_only, sections):
    # radii come from the site sweep over all 2^n masks, per sector for
    # dimer-only sections; the brackets overlap the orbit quotient's, and
    # up to 12 points the unfolded matrix's, as in criterion 8 (the
    # unfolded (4, 4) and (5, 3) take 0.7 to 2 GiB).  A quotient iterates
    # the sweep's vectors folded, per connected component where the sweep
    # goes per sector, so the iteration counts agree as well; odd
    # dimer-only sections are the exception, as the sweep iterates M^2
    for dims in sections:
        sweep = transfer_log_radius(dims, dimer_only)
        qm = section_quotient(dims, dimer_only)
        fold, _ = power_method(qm.to_dense())
        references = [fold]
        if math.prod(dims) <= 12:
            table = CoverTable(LatticeShape(dims), SectionKind.TORUS, dimer_only)
            references.append(power_method(full_matrix_sparse(table))[0])
        assert sweep.converged
        for ref in references:
            assert ref.converged
            low = max(ref.lower, math.exp(sweep.lower))
            high = min(ref.upper, math.exp(sweep.upper))
            assert low <= high + 1e-9 * max(1.0, ref.upper), (dims, dimer_only)
        if not dimer_only or math.prod(dims) % 2 == 0:
            assert sweep.iterations == fold.iterations, dims
