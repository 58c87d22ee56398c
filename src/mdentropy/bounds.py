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

Each growth rate is bracketed by iterating the full 2^n-state vector
through the site sweep of `matchcount`, with no orbits or matrix built.
A monomer-dimer operator is irreducible (M(0, T) >= 1, M(0, 0) >= 1);
a dimer-only one is block-diagonal over the sectors of `dimer_sectors`
and bracketed per sector, through M^2 on odd sections.  `check_section`
checks a bracket's bytes against the memory budget first: 25 points fit
for monomer-dimer covers, 24 for dimer-only ones.  `h2_bounds` and
`h3_bounds` name each section of their formulas once; that one list is
checked before the first bracket, so one section past capacity fails
fast, and becomes the bound's params["dims"].

Closed-form route: the permanental lower bound for r-regular bipartite
graphs gives, per site, the concave function lambda_lower(d, p) below the
density-p monomer-dimer entropy of Z^d; its peak at optimal_density(d) is
a lower bound for h_d, and its dimer endpoint gives dimer_lower(d).  In
one dimension the density-constrained entropy lambda_1 is known exactly.

All logarithms are natural and 0 log 0 = 0 throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .lattice import LatticeShape, check_memory
from .matchcount import CoverTable, SectionKind, SectionPieces, SweepOperator
from .spectral import MAX_ITER, TOL, SpectralBracket, operator_power_method
from .symmetry import burnside_orbit_count, compute_orbits, generate_motion_group
from .transfer import QuotientMatrix, build_quotient


@dataclass
class EntropyBound:
    target: str          # h2, h3, h2_dimer, h3_dimer, lambda
    direction: str       # "upper" or "lower"
    value: float
    formula: str
    params: dict = field(default_factory=dict)
    converged: bool = True


def _canonical(dims) -> tuple[int, ...]:
    out = tuple(sorted(map(operator.index, dims), reverse=True))
    if not out:
        raise ValueError("empty section dims")
    if any(m < 0 for m in out):
        raise ValueError(f"extents must be nonnegative, got {dims}")
    return out


def _section_shape(dims: tuple[int, ...]) -> LatticeShape:
    """Shape of a canonical section that has a transfer operator."""
    if any(m == 0 for m in dims):
        raise ValueError("zero extents have no transfer matrix; handled as log 2 per point")
    return LatticeShape(dims)


def _quotient_bytes(n: int, m: int) -> int:
    return 24 * m * m + 100 * m + (160 << n) + (1 << 22)  # see section_quotient


def check_section(dims, dimer_only: bool = False) -> LatticeShape:
    """Raise CapacityError unless a section's bracket fits the memory budget.

    Returns the section's shape, checked first against the 64-point mask
    limit.  A monomer-dimer bracket is predicted at 30 B per mask plus 1
    MiB: three float64 vectors of 2^n (the iterate, the sweep operator's
    buffer, which holds the image, and the buffer's transposed copy,
    which operators of 13 to 17 points hold) and the half-size products
    of doubled edges.  The step's scratch is one block of 2^14 entries;
    up to 14 points it is the whole vector, and the 1 MiB holds it.  A
    dimer-only one, at 60 B per mask plus 1 MiB, adds a whole-vector
    scratch, a gather buffer, the int64 sort order and the int8 labels,
    which are spread in small chunks.  An odd section's M^2 step applies
    its one operator twice and holds no second one.  Traced peaks per
    mask: 25.2-28.6 B at 16 and 17 points, 33.7 B at 14, 16.4-16.7 B
    from 18 points on; dimer-only 50.1-50.5 B at 15 to 17 points, 42.0 B
    at 18 and 49.0 B at 19.
    """
    shape = _section_shape(_canonical(dims))
    check_memory(((60 if dimer_only else 30) << shape.n) + (1 << 20),
                 f"the sweep bracket of section {shape.dims}")
    return shape


def section_quotient(dims, dimer_only: bool = False) -> QuotientMatrix:
    """Orbit-folded torus transfer matrix for a section, cached on its sorted dims.

    Transposing axes is a relabeling automorphism of the torus, so every
    axis order of a section shares one cache entry.  A reference for the
    sweep brackets.  Its bracket with `power_method` is predicted for m
    orbits: 24 B per quotient entry (int64, its float64 copy, and the CSR
    copy of its nonzeros from which scipy labels the components: about 32
    B per nonzero, and from 12 points on at most a quarter of the entries
    are nonzero), 100 B per orbit, and 160 B per mask plus 4 MiB for the
    table, the orbit labels and the fold.  Its 2^n terms alone (m = 0) are
    checked first, so no group is generated for a section past 22 points.
    """
    return _section_quotient(_canonical(dims), dimer_only)


@lru_cache(maxsize=None)
def _section_quotient(dims: tuple[int, ...], dimer_only: bool) -> QuotientMatrix:
    shape = _section_shape(dims)
    what = f"the orbit quotient of section {shape.dims}"
    check_memory(_quotient_bytes(shape.n, 0), f"{what}, counting its 2^{shape.n} masks alone,")
    group = generate_motion_group(shape)
    check_memory(_quotient_bytes(shape.n, burnside_orbit_count(group, shape.n)), what)
    table = CoverTable(shape, SectionKind.TORUS, dimer_only)
    return build_quotient(table, compute_orbits(group, shape.n))


section_quotient.cache_info = _section_quotient.cache_info
section_quotient.cache_clear = _section_quotient.cache_clear


def section_orbit_count(dims) -> int:
    """Number of mask orbits of the section's rigid motions."""
    shape = _section_shape(_canonical(dims))
    return burnside_orbit_count(generate_motion_group(shape), shape.n)


def dimer_sectors(shape: LatticeShape) -> np.ndarray:
    """Int8 label of every mask's block in the dimer-only torus matrix M.

    M(S, T) counts dimer tilings of the complement of S | T.  If n is
    even and every extent other than 1 is even, a tiling covers as many
    black as white points, so d(T) = -d(S) for d the black minus white
    points of a mask: the label is |d(S)|.  Otherwise |S| + |T| = n (mod
    2), and the label is |S| mod 2, kept by M for even n, M^2 for odd n.
    """
    even = shape.n % 2 == 0 and all(m % 2 == 0 or m == 1 for m in shape.dims)
    labels = np.zeros(1, dtype=np.int8)
    for v in range(shape.n):
        step = 1 - 2 * (sum(shape.point_coords(v)) % 2) if even else 1
        labels = np.concatenate([labels, labels + step])
    return np.abs(labels) if even else labels & 1


def transfer_log_radius(dims, dimer_only: bool = False, tol: float = TOL,
                        max_iter: int = MAX_ITER) -> SpectralBracket:
    """Certified bracket on the log spectral radius of a torus section.

    Cached on the sorted dims, as `section_quotient` is.  A zero extent
    degenerates to the exact value log(2) * (product of the nonzero
    extents): each remaining point contributes an independent binary
    choice, for dimer-only sections as well.
    """
    return _log_radius(_canonical(dims), dimer_only, tol, max_iter)


@lru_cache(maxsize=None)
def _log_radius(dims: tuple[int, ...], dimer_only: bool, tol: float, max_iter: int) -> SpectralBracket:
    if any(m == 0 for m in dims):
        points = prod(m for m in dims if m) if any(dims) else 1
        exact = points * math.log(2.0)
        return SpectralBracket(exact, exact, exact, iterations=0, converged=True)
    shape = check_section(dims, dimer_only)
    pieces = SectionPieces(shape, SectionKind.TORUS, dimer_only)
    size = pieces.full + 1
    sweep = SweepOperator(pieces, (size,), np.float64)
    apply, sectors, power = sweep, None, 1
    if dimer_only:
        sectors = dimer_sectors(shape)
        if shape.n % 2:
            apply, power = (lambda x: sweep(sweep(x))), 2
    bracket, _ = operator_power_method(apply, size, tol=tol, max_iter=max_iter, sectors=sectors)

    def safe_log(x: float) -> float:
        return math.log(x) / power if x > 0 else -math.inf

    return replace(bracket, lower=safe_log(bracket.lower), upper=safe_log(bracket.upper),
                   rayleigh=safe_log(bracket.rayleigh))


transfer_log_radius.cache_info = _log_radius.cache_info
transfer_log_radius.cache_clear = _log_radius.cache_clear


def _bound_pair(d: int, dimer_only: bool, tol: float, upper: tuple,
                lower: tuple) -> tuple[EntropyBound, EntropyBound]:
    """Upper and lower bounds on h_d, each given as (sections, formula, params, value).

    Each side names its sections once.  All of them are checked against
    capacity before the first bracket runs, so a bound with one section too
    large fails at once; sections with a zero extent are exact log 2 terms
    and need no check.  The formulas name some sections in both axis
    orders, e.g. (4, 2) and (2, 4); passing canonical dims makes them one
    lookup key for anything that watches the calls, as they are one cache
    entry.  `value` maps the brackets of its own side's sections to the
    bound, `converged` asks that all of them converged, and `params` gains
    them as "dims", the upper side's single section as a flat list.
    """
    named = upper[0] + lower[0]
    for dims in named:
        if all(dims):
            check_section(dims, dimer_only)
    brackets = iter([transfer_log_radius(_canonical(dims), dimer_only, tol) for dims in named])
    target = f"h{d}_dimer" if dimer_only else f"h{d}"

    def bound(direction, sections, formula, params, value):
        used = [next(brackets) for _ in sections]
        dims = [list(section) for section in sections]
        return EntropyBound(target, direction, value(*used), formula,
                            {**params, "dims": dims[0] if direction == "upper" else dims},
                            all(bracket.converged for bracket in used))

    return bound("upper", *upper), bound("lower", *lower)


def h2_bounds(r: int, p: int, q: int, dimer_only: bool = False,
              tol: float = TOL) -> tuple[EntropyBound, EntropyBound]:
    """Upper and lower bounds on h2 from section growth rates."""
    if not all(isinstance(x, Integral) for x in (r, p, q)):
        raise ValueError(f"bound parameters must be integers, got {(r, p, q)}")
    if r < 1 or p < 1 or q < 0:
        raise ValueError("need r >= 1, p >= 1, q >= 0")
    return _bound_pair(
        2, dimer_only, tol,
        ([(2 * r,)], "log_radius(2r)/(2r)", {"r": r},
         lambda wide: wide.upper / (2 * r)),
        ([(p + 2 * q,), (2 * q,)], "(log_radius(p+2q) - log_radius(2q))/p", {"p": p, "q": q},
         lambda top, base: (top.lower - base.upper) / p))


def h3_bounds(r: int, t: int, p: int, q: int, u: int, s: int, v: int,
              dimer_only: bool = False,
              tol: float = TOL) -> tuple[EntropyBound, EntropyBound]:
    """Upper and lower bounds on h3 from 2-D section growth rates."""
    if not all(isinstance(x, Integral) for x in (r, t, p, q, u, s, v)):
        raise ValueError(f"bound parameters must be integers, got {(r, t, p, q, u, s, v)}")
    if min(r, t, p, u, v) < 1 or q < 0 or s < 0:
        raise ValueError("need r, t, p, u, v >= 1 and q, s >= 0")
    return _bound_pair(
        3, dimer_only, tol,
        ([(2 * r, 2 * t)], "log_radius(2r,2t)/(4rt)", {"r": r, "t": t},
         lambda wide: wide.upper / (4 * r * t)),
        ([(p + 2 * q, u + 2 * s), (p + 2 * q, 2 * s), (2 * q, 2 * v)],
         "(log_radius(p+2q,u+2s) - log_radius(p+2q,2s))/(u p) - log_radius(2q,2v)/(2 v p)",
         {"p": p, "q": q, "u": u, "s": s, "v": v},
         lambda top, base, tail: (top.lower - base.upper) / (u * p) - tail.upper / (2 * v * p)))


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
