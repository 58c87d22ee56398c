"""Transfer operators over subset masks: the site sweep and the orbit quotient.

The full transfer matrix of a section configuration has rows and columns
indexed by subset masks; entry (S, T) counts covers of the complement of
S | T and is zero when S and T intersect.  Its product with a vector is
the subset convolution

    (M x)(S) = sum over T inside the complement U of S of c(U - T) x(T)

with c the cover counts.  `sweep_apply` evaluates it without the matrix,
in one sweep over the sites and edges of the section.  A cover is a set of disjoint pieces, and placing one
piece is an in-place update of the 2^n vector z (initially x) over the
bit axes of its sites: a monomer at v adds weight * z(A - v) into every
z(A) with v in A, a dimer {v, w} adds mult * z(A - v - w) into every z(A)
holding both.  Each update reads only entries it does not write, and the
updates commute, so after one update per piece z(U) sums c(U - T) x(T)
over T inside U, and the product at S is z(full - U).  That costs
O(n * deg * 2^n) additions of nonnegative numbers, in float64 for
spectral brackets and in Python integers (object dtype) for exact traces
and boundary quadratic forms.

Folding columns over the mask orbits of a group that preserves the matrix
gives the quotient

    q[a][b] = sum over T in orbit b of entry(rep_a, T)

which keeps the spectral radius of the full matrix and is self-adjoint
under the orbit-size weighted inner product: w_a * q[a][b] = w_b * q[b][a].
Quotient entries are assembled exactly in Python integers by enumerating
the submasks of each representative's complement, 3^n / |G| steps.  That
walk, and the one behind the float64 sparse form of the full matrix, are
kept as references independent of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .lattice import CapacityError
from .matchcount import CoverTable
from .symmetry import OrbitSpace

MAX_FULL_MATRIX_POINTS = 14
_FLOAT_EXACT_LIMIT = 1 << 53


@dataclass
class QuotientMatrix:
    """Orbit-folded transfer matrix with exact int64 entries and orbit weights."""

    dims: tuple[int, ...]
    kind: str
    dimer_only: bool
    entries: np.ndarray   # int64, shape (size, size)
    weights: np.ndarray   # int64, orbit cardinalities

    @property
    def size(self) -> int:
        return len(self.weights)

    def to_dense(self) -> np.ndarray:
        """Entries as float64; exact because entries are checked below 2^53."""
        return self.entries.astype(np.float64)

    def weight_vector(self) -> np.ndarray:
        return self.weights.astype(np.float64)


def build_quotient(table: CoverTable, orbits: OrbitSpace) -> QuotientMatrix:
    """Fold the full transfer matrix of `table` over mask orbits.

    The orbits must come from a group of automorphisms of the table's
    matrix; the rigid motions of the section torus qualify for the torus
    kind, which is the kind spectral radii are computed from.
    """
    if orbits.n != table.shape.n:
        raise ValueError("orbit space and cover table disagree on point count")
    counts = table.counts
    orbit_of = orbits.orbit_of
    full = table.full
    size = orbits.size
    entries = np.zeros((size, size), dtype=np.int64)
    for a, rep in enumerate(orbits.reps):
        comp = full ^ rep
        row = [0] * size
        sub = comp
        while True:
            row[orbit_of[sub]] += counts[comp ^ sub]
            if sub == 0:
                break
            sub = (sub - 1) & comp
        if max(row) >= _FLOAT_EXACT_LIMIT:
            raise CapacityError("quotient entry exceeds exact float64 range")
        entries[a] = row
    return QuotientMatrix(
        dims=table.shape.dims,
        kind=table.kind.value,
        dimer_only=table.dimer_only,
        entries=entries,
        weights=np.asarray(orbits.sizes, dtype=np.int64),
    )


def weighted_symmetry_ok(qm: QuotientMatrix) -> bool:
    """Exact check of w_a * q[a][b] == w_b * q[b][a] over all pairs."""
    w = [int(x) for x in qm.weights]
    e = qm.entries
    for a in range(qm.size):
        for b in range(a + 1, qm.size):
            if w[a] * int(e[a, b]) != w[b] * int(e[b, a]):
                return False
    return True


def sweep_apply(table: CoverTable, x: np.ndarray) -> np.ndarray:
    """Full transfer matrix of `table` times x, one in-place update per piece.

    `x` has length 2^n; the result has its dtype, so float64 input gives a
    float64 product and object input an exact integer one.
    """
    n = table.shape.n
    z = np.array(x, order="C")
    if z.shape != (1 << n,):
        raise ValueError(f"vector of length {z.size} does not match {1 << n} masks")
    for v, weight in enumerate(table.point_weights):
        if weight:
            axis = z.reshape(-1, 2, 1 << v)
            _add_scaled(axis[:, 1], axis[:, 0], weight)
    for v, w, mult in table.adjacency.edges:
        pair = z.reshape(-1, 2, 1 << (w - v - 1), 2, 1 << v)
        _add_scaled(pair[:, 1, :, 1], pair[:, 0, :, 0], mult)
    return z[::-1]


def _add_scaled(target: np.ndarray, source: np.ndarray, factor: int) -> None:
    target += source if factor == 1 else factor * source


def matvec_exact(table: CoverTable, x: list[int]) -> list[int]:
    """Exact product of the full transfer matrix with an integer vector."""
    return sweep_apply(table, np.array(x, dtype=object)).tolist()


def full_trace_power(table: CoverTable, q: int, orbits: OrbitSpace | None = None) -> int:
    """Exact trace of the q-th power of the full transfer matrix.

    With an orbit space supplied, only one diagonal entry per orbit is
    computed and weighted by the orbit size; the diagonal of a power is
    constant on orbits because the group conjugates the matrix to itself.
    """
    n = table.shape.n
    if n > MAX_FULL_MATRIX_POINTS:
        raise CapacityError(
            f"{n} points exceed the {MAX_FULL_MATRIX_POINTS}-point full-matrix limit"
        )
    if q < 0:
        raise ValueError("power must be nonnegative")
    if q == 0:
        return 1 << n
    if orbits is not None:
        pairs = zip(orbits.reps, orbits.sizes)
    else:
        pairs = ((i, 1) for i in range(1 << n))
    total = 0
    for rep, weight in pairs:
        x = [0] * (1 << n)
        x[rep] = 1
        for _ in range(q):
            x = matvec_exact(table, x)
        total += weight * x[rep]
    return total


def quadratic_form_count(table: CoverTable, exponent: int) -> int:
    """Exact x^T M^(exponent-2) x with boundary vector x[s] = entry(s, 0).

    The boundary vector closes both ends of a stack of `exponent` layers
    with no dimer leaving through the stacking direction, so the result
    counts covers of the section extended by a tiled layer direction.
    """
    n = table.shape.n
    if n > MAX_FULL_MATRIX_POINTS:
        raise CapacityError(
            f"{n} points exceed the {MAX_FULL_MATRIX_POINTS}-point full-matrix limit"
        )
    if exponent < 2:
        raise ValueError("quadratic form needs at least two layers")
    x = table.empty_column()
    v = x
    for _ in range(exponent - 2):
        v = matvec_exact(table, v)
    return sum(a * b for a, b in zip(x, v))


def full_matrix_sparse(table: CoverTable) -> sparse.csr_matrix:
    """Full transfer matrix as float64 CSR, for spectral cross-checks."""
    n = table.shape.n
    if n > MAX_FULL_MATRIX_POINTS:
        raise CapacityError(
            f"{n} points exceed the {MAX_FULL_MATRIX_POINTS}-point full-matrix limit"
        )
    counts = table.counts
    full = table.full
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i in range(full + 1):
        comp = full ^ i
        sub = comp
        while True:
            c = counts[comp ^ sub]
            if c:
                if c >= _FLOAT_EXACT_LIMIT:
                    raise CapacityError("entry exceeds exact float64 range")
                rows.append(i)
                cols.append(sub)
                data.append(float(c))
            if sub == 0:
                break
            sub = (sub - 1) & comp
    mat = sparse.coo_matrix(
        (data, (rows, cols)), shape=(full + 1, full + 1), dtype=np.float64
    )
    return mat.tocsr()
