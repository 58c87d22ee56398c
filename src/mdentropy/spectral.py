"""Shifted power iteration with certified spectral-radius brackets.

For a nonnegative matrix A that is self-adjoint under a weighted inner
product <x, y> = sum_i w_i x_i y_i, iterating y = (A + rI) x from a
positive vector gives at every step the two-sided bound

    min_i y_i / x_i  <=  rho(A) + r  <=  max_i y_i / x_i

with the minimum nondecreasing and the maximum nonincreasing over
iterations, so the running bracket certifies the radius no matter where
the iteration stops.  The shift r > 0 removes the period-two oscillation
of bipartite matrices.  Reducible matrices are handled by iterating each
connected component separately and taking the componentwise maximum of
the brackets: on a direct sum, a single positive vector would pin the
lower ratio to the weakest component forever.

`power_method` takes the matrix itself (dense or sparse), so it can find
the components.  `operator_power_method` runs the same iteration on an
operator given only by its product, such as the site sweep of the full
transfer matrix; it iterates a single vector, which is sound only for an
irreducible operator.

Brackets are computed in float64 from exact integer entries;
certification is up to roundoff in entries and products, not interval
arithmetic.  All reductions use fixed-order numpy sums, so results do not
depend on BLAS thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components


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


def _iterate(apply, weights, shift, tol, max_iter, history, component):
    x = np.ones(len(weights))
    lower = -math.inf
    upper = math.inf
    rayleigh = math.nan
    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        y = apply(x) + shift * x
        if not np.all(np.isfinite(y)):
            raise ArithmeticError("power iteration produced non-finite values")
        ratios = y / x
        low = float(ratios.min())
        high = float(ratios.max())
        rayleigh = float(np.sum(weights * x * y) / np.sum(weights * x * x))
        slack = 1e-11 * max(1.0, abs(rayleigh))
        if not (low - slack <= rayleigh <= high + slack):
            raise ArithmeticError("Rayleigh quotient escaped the ratio bracket")
        lower = max(lower, low)
        upper = min(upper, high)
        if history is not None:
            history.append((component, iterations, lower - shift, upper - shift,
                            rayleigh - shift))
        if upper - lower <= tol * max(1.0, abs(rayleigh)):
            converged = True
            break
        x = y / math.sqrt(float(np.sum(weights * y * y)))
    bracket = SpectralBracket(
        lower=lower - shift,
        upper=upper - shift,
        rayleigh=rayleigh - shift,
        iterations=iterations,
        shift=shift,
        converged=converged,
    )
    return bracket, x / math.sqrt(float(np.sum(weights * x * x)))


def power_method(matrix, weights=None, shift: float = 1.0, tol: float = 1e-12,
                 max_iter: int = 1_000_000, history: list | None = None):
    """Bracket the spectral radius of a nonnegative weighted-self-adjoint matrix.

    `matrix` is a dense ndarray or scipy sparse matrix; `weights` the inner
    product weights (ones when omitted).  `tol` is relative bracket width.
    Returns (SpectralBracket, eigenvector estimate).
    """
    dense = not sparse.issparse(matrix)
    mat = np.asarray(matrix, dtype=np.float64) if dense else matrix.tocsr()
    m = mat.shape[0]
    if mat.shape != (m, m):
        raise ValueError("matrix must be square")
    if shift <= 0:
        raise ValueError("shift must be positive")
    minval = mat.min() if dense else (mat.data.min() if mat.nnz else 0.0)
    if minval < 0:
        raise ValueError("matrix must be nonnegative")
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (m,) or (w <= 0).any():
        raise ValueError("weights must be positive and match the matrix size")

    pattern = sparse.csr_matrix(mat != 0) if dense else mat
    n_comp, labels = connected_components(pattern, directed=False)

    brackets = []
    vectors = []
    indices = []
    total_iterations = 0
    for c in range(n_comp):
        idx = np.flatnonzero(labels == c)
        sub = mat[np.ix_(idx, idx)] if dense else mat[idx][:, idx]
        bracket, vec = _iterate(sub.__matmul__, w[idx], shift, tol, max_iter,
                                history, c)
        total_iterations += bracket.iterations
        brackets.append(bracket)
        vectors.append(vec)
        indices.append(idx)

    # rho(A) is the max over components; lower bounds max out as well
    best = max(range(n_comp), key=lambda c: brackets[c].upper)
    rho_lower = max(b.lower for b in brackets)
    rho_upper = max(b.upper for b in brackets)
    rayleigh = brackets[best].rayleigh
    converged = rho_upper - rho_lower <= tol * max(1.0, rho_upper + shift)
    vector = np.zeros(m)
    vector[indices[best]] = vectors[best]
    result = SpectralBracket(
        lower=rho_lower,
        upper=rho_upper,
        rayleigh=rayleigh,
        iterations=total_iterations,
        shift=shift,
        converged=converged,
    )
    return result, vector


def operator_power_method(apply, size: int, shift: float = 1.0, tol: float = 1e-12,
                          max_iter: int = 1_000_000, history: list | None = None):
    """Bracket the spectral radius of a symmetric nonnegative operator.

    `apply` maps a float64 vector of length `size` to the operator's product
    with it, for an operator never materialized as a matrix.  Its
    components cannot be split, so the caller guarantees irreducibility:
    from one positive start vector the ratio bracket then closes on the
    radius.  Arguments and result are those of `power_method`, with unit
    weights.
    """
    if size < 1:
        raise ValueError("operator size must be positive")
    if shift <= 0:
        raise ValueError("shift must be positive")
    return _iterate(apply, np.ones(size), shift, tol, max_iter, history, 0)
