"""Rigorous monomer-dimer entropy bounds from transfer operators over section subsets."""

__version__ = "0.1.0"

from .bounds import (
    EntropyBound,
    PermanentLowerBound,
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
from .lattice import CapacityError, LatticeShape, section_geometry
from .matchcount import CoverTable, SectionKind
from .oracle import CoverCensus, enumerate_covers, run_verification_suite
from .spectral import SpectralBracket, power_method
from .symmetry import OrbitSpace, compute_orbits, generate_motion_group
from .transfer import QuotientMatrix, build_quotient, weighted_symmetry_ok

__all__ = [
    "CapacityError",
    "CoverCensus",
    "CoverTable",
    "EntropyBound",
    "LatticeShape",
    "OrbitSpace",
    "PermanentLowerBound",
    "QuotientMatrix",
    "SectionKind",
    "SpectralBracket",
    "build_quotient",
    "compute_orbits",
    "dimer_lower",
    "enumerate_covers",
    "generate_motion_group",
    "h2_bounds",
    "h3_bounds",
    "lambda1",
    "lambda_lower",
    "one_dim_counts",
    "optimal_density",
    "permanent_matching_lower",
    "power_method",
    "run_verification_suite",
    "section_geometry",
    "section_orbit_count",
    "section_quotient",
    "transfer_log_radius",
    "weighted_symmetry_ok",
    "__version__",
]
