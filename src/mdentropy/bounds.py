"""Entropy bounds for monomer-dimer and dimer covers of Z^d.

Spectral route: the growth rate (log spectral radius) of the torus-kind
transfer matrix over a section <dims> controls periodic cover counts of
the cylinder over that section.  Ratios and normalizations of these
growth rates give certified upper and lower bounds on the entropy per
site of Z^2 and Z^3, for monomer-dimer covers (h2, h3) and dimer-only
covers (the _dimer variants):

    h2 <= log_radius(2r) / (2r)
    h2 >= (log_radius(p + 2q) - log_radius(2q)) / p
    h3 <= log_radius(2r, 2t) / (4 r t)
    h3 >= (log_radius(p+2q, u+2s) - log_radius(p+2q, 2s)) / (u p)
          - log_radius(2q, 2v) / (2 v p)

with the convention that a section with a zero extent contributes
log 2 per remaining point.  Composed bounds use the pessimistic bracket
ends: upper bounds from upper ends, lower bounds from lower minus upper.

Each growth rate is bracketed on the torus-kind operator by one of two
paths, chosen from `dimer_only`.  A monomer-dimer operator is iterated as
the full 2^n-state vector through the site sweep of `transfer`, with no
orbits, quotient or matrix built: M(0, T) = c(complement of T) >= 1 links
every mask to the empty one and M(0, 0) >= 1, so the operator is
irreducible and primitive and one positive vector brackets its radius.
Dimer-only operators are reducible on even sections (2 to 7 components
up to 12 points), and on odd sections they need hundreds to thousands of
iterations (9291 on (5, 3)); the dense orbit quotient splits components
and is |G| times smaller per step, which made it about ten times faster
than the sweep on (5, 3).

Closed-form route: the permanental lower bound for r-regular bipartite
graphs gives, per site, the concave function lambda_lower(d, p) below the
density-p monomer-dimer entropy of Z^d; its peak at optimal_density(d) is
a lower bound for h_d, and its dimer endpoint gives dimer_lower(d).  In
one dimension the density-constrained entropy lambda_1 is known exactly.

All logarithms are natural and 0 log 0 = 0 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, prod
from typing import NamedTuple

from .lattice import CapacityError, LatticeShape
from .matchcount import CoverTable, SectionKind
from .spectral import SpectralBracket, operator_power_method, power_method
from .symmetry import burnside_orbit_count, compute_orbits, generate_motion_group
from .transfer import QuotientMatrix, build_quotient, sweep_apply

DESK_SCALE_MAX_POINTS = 17


@dataclass
class EntropyBound:
    target: str          # h2, h3, h2_dimer, h3_dimer, lambda
    direction: str       # "upper" or "lower"
    value: float
    formula: str
    params: dict = field(default_factory=dict)
    converged: bool = True


def _canonical(dims) -> tuple[int, ...]:
    out = tuple(sorted((int(m) for m in dims), reverse=True))
    if not out:
        raise ValueError("empty section dims")
    if any(m < 0 for m in out):
        raise ValueError(f"extents must be nonnegative, got {dims}")
    return out


def _section_shape(dims: tuple[int, ...]) -> LatticeShape:
    """Shape of a canonical section with a transfer operator at desk scale."""
    if any(m == 0 for m in dims):
        raise ValueError("zero extents have no transfer matrix; handled as log 2 per point")
    shape = LatticeShape(dims)
    if shape.n > DESK_SCALE_MAX_POINTS:
        raise CapacityError(
            f"section {dims} has {shape.n} points; desk scale ends at "
            f"{DESK_SCALE_MAX_POINTS}"
        )
    return shape


@lru_cache(maxsize=None)
def section_quotient(dims: tuple[int, ...], dimer_only: bool = False) -> QuotientMatrix:
    """Orbit-folded torus transfer matrix for a section, cached.

    Dims are canonicalized by sorting: transposing axes is a relabeling
    automorphism of the torus, so spectrum and orbit structure agree.
    """
    shape = _section_shape(_canonical(dims))
    table = CoverTable(shape, SectionKind.TORUS, dimer_only)
    group = generate_motion_group(shape)
    orbits = compute_orbits(group, shape.n)
    return build_quotient(table, orbits)


def section_orbit_count(dims) -> int:
    """Number of mask orbits of the section's rigid motions."""
    shape = _section_shape(_canonical(dims))
    return burnside_orbit_count(generate_motion_group(shape), shape.n)


def _exact_log_bracket(value: float, shift: float) -> SpectralBracket:
    return SpectralBracket(lower=value, upper=value, rayleigh=value,
                           iterations=0, shift=shift, converged=True)


@lru_cache(maxsize=None)
def transfer_log_radius(dims: tuple[int, ...], dimer_only: bool = False,
                        tol: float = 1e-12, shift: float = 1.0,
                        max_iter: int = 1_000_000) -> SpectralBracket:
    """Certified bracket on the log spectral radius of a torus section.

    A zero extent degenerates to the exact value log(2) * (product of the
    nonzero extents): each remaining point contributes an independent
    binary choice, for dimer-only sections as well.
    """
    dims = _canonical(dims)
    if any(m == 0 for m in dims):
        points = prod(m for m in dims if m) if any(dims) else 1
        return _exact_log_bracket(points * math.log(2.0), shift)
    if dimer_only:
        # even sections are reducible, so a single vector would stall on the
        # weakest component; the quotient splits components, and it is |G|
        # times smaller for the thousands of iterations odd sections need
        qm = section_quotient(dims, dimer_only)
        bracket, _ = power_method(qm.to_dense(), weights=qm.weight_vector(),
                                  shift=shift, tol=tol, max_iter=max_iter)
    else:
        table = CoverTable(_section_shape(dims), SectionKind.TORUS)
        bracket, _ = operator_power_method(partial(sweep_apply, table), table.full + 1,
                                           shift=shift, tol=tol, max_iter=max_iter)

    def safe_log(x: float) -> float:
        return math.log(x) if x > 0 else -math.inf

    return SpectralBracket(
        lower=safe_log(bracket.lower),
        upper=safe_log(bracket.upper),
        rayleigh=safe_log(bracket.rayleigh),
        iterations=bracket.iterations,
        shift=bracket.shift,
        converged=bracket.converged,
    )


def _target(d: int, dimer_only: bool) -> str:
    return f"h{d}_dimer" if dimer_only else f"h{d}"


def h2_bounds(r: int, p: int, q: int, dimer_only: bool = False,
              tol: float = 1e-12) -> tuple[EntropyBound, EntropyBound]:
    """Upper and lower bounds on h2 from section growth rates."""
    if r < 1 or p < 1 or q < 0:
        raise ValueError("need r >= 1, p >= 1, q >= 0")
    wide = transfer_log_radius((2 * r,), dimer_only, tol)
    upper = EntropyBound(
        target=_target(2, dimer_only), direction="upper",
        value=wide.upper / (2 * r),
        formula="log_radius(2r)/(2r)",
        params={"r": r, "dims": [2 * r]},
        converged=wide.converged,
    )
    top = transfer_log_radius((p + 2 * q,), dimer_only, tol)
    base = transfer_log_radius((2 * q,), dimer_only, tol)
    lower = EntropyBound(
        target=_target(2, dimer_only), direction="lower",
        value=(top.lower - base.upper) / p,
        formula="(log_radius(p+2q) - log_radius(2q))/p",
        params={"p": p, "q": q, "dims": [[p + 2 * q], [2 * q]]},
        converged=top.converged and base.converged,
    )
    return upper, lower


def h3_bounds(r: int, t: int, p: int, q: int, u: int, s: int, v: int,
              dimer_only: bool = False,
              tol: float = 1e-12) -> tuple[EntropyBound, EntropyBound]:
    """Upper and lower bounds on h3 from 2-D section growth rates."""
    if min(r, t, p, u, v) < 1 or q < 0 or s < 0:
        raise ValueError("need r, t, p, u, v >= 1 and q, s >= 0")
    wide = transfer_log_radius((2 * r, 2 * t), dimer_only, tol)
    upper = EntropyBound(
        target=_target(3, dimer_only), direction="upper",
        value=wide.upper / (4 * r * t),
        formula="log_radius(2r,2t)/(4rt)",
        params={"r": r, "t": t, "dims": [2 * r, 2 * t]},
        converged=wide.converged,
    )
    top = transfer_log_radius((p + 2 * q, u + 2 * s), dimer_only, tol)
    base = transfer_log_radius((p + 2 * q, 2 * s), dimer_only, tol)
    tail = transfer_log_radius((2 * q, 2 * v), dimer_only, tol)
    lower = EntropyBound(
        target=_target(3, dimer_only), direction="lower",
        value=(top.lower - base.upper) / (u * p) - tail.upper / (2 * v * p),
        formula=("(log_radius(p+2q,u+2s) - log_radius(p+2q,2s))/(u p)"
                 " - log_radius(2q,2v)/(2 v p)"),
        params={"p": p, "q": q, "u": u, "s": s, "v": v,
                "dims": [[p + 2 * q, u + 2 * s], [p + 2 * q, 2 * s], [2 * q, 2 * v]]},
        converged=top.converged and base.converged and tail.converged,
    )
    return upper, lower


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0 else 0.0


def lambda_lower(d: int, p: float) -> float:
    """Permanental lower bound on the density-p monomer-dimer entropy of Z^d."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("dimer density must lie in [0, 1]")
    return 0.5 * (-_xlogx(p) - 2.0 * _xlogx(1.0 - p) + p * math.log(2 * d) - p)


def optimal_density(d: int) -> float:
    """Density maximizing lambda_lower(d, .): (4d + 1 - sqrt(8d + 1)) / (4d)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return (4 * d + 1 - math.sqrt(8 * d + 1)) / (4 * d)


def dimer_lower(d: int) -> float:
    """Lower bound on the dimer entropy of Z^d, the p = 1 permanental value."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return 0.5 * ((2 * d - 1) * math.log(2 * d - 1) - (2 * d - 2) * math.log(2 * d))


class PermanentLowerBound(NamedTuple):
    value: float
    exact: Fraction


def permanent_matching_lower(n: int, r: int, s: int) -> PermanentLowerBound:
    """Lower bound on s-matchings of an r-regular bipartite graph on n + n points.

    binom(n, s)^2 * s! * (r / n)^s, exact as a rational and as a float.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if r < 0:
        raise ValueError("need r >= 0")
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    exact = Fraction(comb(n, s) ** 2 * factorial(s) * r**s, n**s)
    return PermanentLowerBound(value=float(exact), exact=exact)


def one_dim_counts(m: int) -> tuple[int, int, int]:
    """1-D cover counts of <m>: (tilings, periodic covers, protruding covers).

    Tilings follow the Fibonacci recursion F_{m+1}; periodic covers are the
    Lucas numbers L_m; protruding covers are L_m + 2 F_m.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    a, b = 0, 1  # F_0, F_1
    for _ in range(m):
        a, b = b, a + b
    f_m, f_m1 = a, b  # F_m, F_{m+1}
    lucas = f_m1 + (f_m1 - f_m)  # F_{m+1} + F_{m-1}
    return f_m1, lucas, lucas + 2 * f_m


def lambda1(p: float) -> float:
    """Exact density-p monomer-dimer entropy of Z^1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("dimer density must lie in [0, 1]")
    return _xlogx(1.0 - p / 2.0) - _xlogx(p / 2.0) - _xlogx(1.0 - p)
