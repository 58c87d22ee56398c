"""Shifted power iteration with certified spectral-radius brackets.

For a nonnegative matrix A that is self-adjoint under a weighted inner
product <x, y> = sum_i w_i x_i y_i, iterating y = (A + rI) x from a
positive vector gives at every step the two-sided bound

    min_i y_i / x_i  <=  rho(A) + r  <=  max_i y_i / x_i

with the minimum nondecreasing and the maximum nonincreasing over
iterations, so the running bracket certifies the radius no matter where
the iteration stops.  The shift r > 0 removes the period-two oscillation
of bipartite matrices.  On a direct sum, a single positive vector would
pin the lower ratio to the weakest block forever; but each block's
ratios bracket its own radius, and the largest of those is rho(A), so
the bracket is [max of the blocks' lower ends, max of their upper ends].

Both entry points run one driver.  `power_method` takes the matrix
itself (dense or sparse) and labels its blocks, the connected
components, with scipy, imported when it is called.
`operator_power_method` takes an operator given only by its product,
such as the site sweep of the full transfer matrix, and block labels
from the caller.  All blocks step together over one vector, with ratio
extremes, inner products and norms reduced per block, so `iterations`
counts joint steps; the vector returned is zero outside the block of
the largest upper end.

A step allocates nothing of the operator's size itself: it works through
numpy `out=` arguments in three vectors, the iterate x and one scratch
vector for the shift term, the ratios y / x and the inner-product terms,
both preallocated, and the image y, which is the array `apply` returns.
The step adds the shift into y in place, so `apply` may return its own
buffer (the site sweep does) or a fresh product (a matrix does), as long
as it is not x; the next call may overwrite it.  Sectors add one buffer,
into which `take` gathers each sector's entries, in stable-sort order,
for `reduceat`.  Unit weights, on the
operator path and for unweighted matrices, skip the multiplications by
w; those would be exact, so no bit moves.  A weighted inner product
multiplies w * a * b in that order, as the plain expression does, since
the quotient's digits depend on its rounding.  Non-finite values are
caught on the ratio extremes instead of a pass over y: x stays positive,
so an inf or NaN anywhere in y reaches the minimum or the maximum of
y / x, and the step raises ArithmeticError.

Brackets are computed in float64 from exact integer entries;
certification is up to roundoff in entries and products, not interval
arithmetic.  All reductions use fixed-order numpy sums, so results do not
depend on BLAS thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class SpectralBracket:
    """Certified interval around a spectral radius (shift already removed)."""

    lower: float
    upper: float
    rayleigh: float
    iterations: int
    shift: float
    converged: bool

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _check_iteration(shift, tol, max_iter) -> None:
    # a NaN or negative tol never meets the width test and runs to max_iter
    if not 0 < shift < math.inf:
        raise ValueError("shift must be positive and finite")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


def _iterate(apply, weights, size, shift, tol, max_iter, history, sectors=None):
    if sectors is None:
        def per_sector(values, *ufuncs):
            return [ufunc.reduce(values, keepdims=True) for ufunc in ufuncs]
    else:
        counts = np.bincount(sectors)
        if sectors.shape != (size,) or not counts.all():
            raise ValueError("sector labels must be 0, 1, ..., k - 1 over the whole vector")
        order = np.argsort(sectors, kind="stable")
        starts = np.cumsum(counts) - counts
        gathered = np.empty(size)

        def per_sector(values, *ufuncs):
            np.take(values, order, out=gathered, mode="clip")
            return [ufunc.reduceat(gathered, starts) for ufunc in ufuncs]
    x = np.ones(size)
    scratch = np.empty(size)

    def inner(a, b):
        # sum of weights * a * b per sector, multiplied in that order; None is unit weights
        if weights is None:
            np.multiply(a, b, out=scratch)
        else:
            np.multiply(weights, a, out=scratch)
            np.multiply(scratch, b, out=scratch)
        return per_sector(scratch, np.add)[0]

    def normalize(v):
        norms = np.sqrt(inner(v, v))
        spread = norms if sectors is None else np.take(norms, sectors, out=gathered, mode="clip")
        np.divide(v, spread, out=x)

    iterations = 0
    converged = False
    lower = upper = None
    while iterations < max_iter:
        iterations += 1
        y = apply(x)
        np.multiply(x, shift, out=scratch)
        np.add(y, scratch, out=y)
        np.divide(y, x, out=scratch)
        low, high = (r.tolist() for r in per_sector(scratch, np.minimum, np.maximum))
        # x > 0, so an inf or NaN anywhere in y reaches a ratio extreme
        if not all(map(math.isfinite, low + high)):
            raise ArithmeticError("power iteration produced non-finite values")
        rayleigh = (inner(x, y) / inner(x, x)).tolist()
        for lo, r, hi in zip(low, rayleigh, high):
            slack = 1e-11 * max(1.0, abs(r))
            if not (lo - slack <= r <= hi + slack):
                raise ArithmeticError("Rayleigh quotient escaped the ratio bracket")
        lower = low if lower is None else list(map(max, lower, low))
        upper = high if upper is None else list(map(min, upper, high))
        top = upper.index(max(upper))
        bottom, ceiling, estimate = max(lower), upper[top], rayleigh[top]
        if history is not None:
            history.append((iterations, bottom - shift, ceiling - shift, estimate - shift))
        if ceiling - bottom <= tol * max(1.0, abs(estimate)):
            converged = True
            break
        normalize(y)
    bracket = SpectralBracket(
        lower=bottom - shift,
        upper=ceiling - shift,
        rayleigh=estimate - shift,
        iterations=iterations,
        shift=shift,
        converged=converged,
    )
    normalize(x)
    if sectors is not None:
        x[sectors != top] = 0.0
    return bracket, x


def power_method(matrix, weights=None, shift: float = 1.0, tol: float = 1e-12,
                 max_iter: int = 1_000_000, history: list | None = None):
    """Bracket the spectral radius of a nonnegative weighted-self-adjoint matrix.

    `matrix` is a dense ndarray or scipy sparse matrix; `weights` the inner
    product weights (ones when omitted).  `tol` is relative bracket width.
    A reducible matrix is stepped whole, with ratios, norms and Rayleigh
    quotients taken per connected component, so `iterations` and
    `max_iter` count joint steps.  Returns (SpectralBracket, eigenvector
    estimate on the dominant component, zero elsewhere).
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    dense = not sparse.issparse(matrix)
    mat = np.asarray(matrix, dtype=np.float64) if dense else matrix.tocsr()
    m = mat.shape[0]
    if mat.shape != (m, m):
        raise ValueError("matrix must be square")
    _check_iteration(shift, tol, max_iter)
    minval = mat.min() if dense else (mat.data.min() if mat.nnz else 0.0)
    if minval < 0:
        raise ValueError("matrix must be nonnegative")
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    if w is not None and (w.shape != (m,) or (w <= 0).any()):
        raise ValueError("weights must be positive and match the matrix size")

    # labelled from a CSR copy of the nonzeros: scipy converts a dense
    # graph through float64 and index copies of twice its size
    n_comp, labels = connected_components(sparse.csr_matrix(mat), directed=False)
    return _iterate(mat.__matmul__, w, m, shift, tol, max_iter, history,
                    labels if n_comp > 1 else None)


def operator_power_method(apply, size: int, shift: float = 1.0, tol: float = 1e-12,
                          max_iter: int = 1_000_000, history: list | None = None,
                          sectors: np.ndarray | None = None):
    """Bracket the spectral radius of a symmetric nonnegative operator.

    `apply` maps a float64 vector of length `size` to the operator's product
    with it, for an operator never materialized as a matrix; the product
    may be a buffer of `apply`'s own, which the step overwrites.  `sectors`,
    int labels 0 to k - 1 over the vector, name the invariant blocks of a
    block-diagonal operator; ratio extremes, Rayleigh quotients and norms
    are then taken per sector.  Without them the caller guarantees
    irreducibility.  Arguments and result are otherwise those of
    `power_method`, with unit weights.
    """
    if size < 1:
        raise ValueError("operator size must be positive")
    _check_iteration(shift, tol, max_iter)
    return _iterate(apply, None, size, shift, tol, max_iter, history, sectors)
