"""Shifted power iteration with certified spectral-radius brackets.

For a nonnegative matrix A and a positive vector x, the Collatz-Wielandt
bounds

    min_i (A x)_i / x_i  <=  rho(A)  <=  max_i (A x)_i / x_i

hold with no inner product at all.  Iterating y = (A + rI) x from the
all-ones vector keeps x positive, so the running maximum of the lower
ends and minimum of the upper ends certify rho(A) + r no matter where
the iteration stops.  The shift r > 0 removes the period-two oscillation
of bipartite matrices.  On a direct sum, a single positive vector would
pin the lower ratio to the weakest block forever; but each block's
ratios bracket its own radius, and the largest of those is rho(A), so
the bracket is [max of the blocks' lower ends, max of their upper ends].
The estimate is the Rayleigh quotient <x, y> / <x, x> of the block with
the largest upper end, a mean of its ratios y_i / x_i with weights x_i^2,
so it lies inside that block's own bracket.  Another block's lower end
can still set the bracket's bottom above it, so the estimate is clamped
into the bracket.

`operator_power_method` is the one driver.  It takes an operator given
only by its product, such as the site sweep of the full transfer matrix,
and block labels from the caller.  `power_method` is its front for a
matrix (dense or sparse): it labels the blocks, the connected
components, with scipy, imported when it is called.  All blocks step
together over one vector, with ratio extremes, inner products and norms
reduced per block, so `iterations` counts joint steps; the vector
returned is zero outside the block of the largest upper end.

A step allocates nothing of the operator's size itself: it works through
numpy `out=` arguments on the iterate x, preallocated, the image y, which
is the array `apply` returns, and one preallocated scratch block for the
shift term, the ratios y / x and the inner-product terms.  The step adds
the shift into y in place, so `apply` may return its own buffer (the
site sweep does) or a fresh product (a matrix does), as long as it is
not x; the next call may overwrite it.  A vector of 2^m > `_BLOCK` =
2^14 entries without sectors is stepped block by block: each block gets
its shift, its ratio extremes and its sums of x y, x x and y y while it
is in cache, and then y is divided by its norm into x.  The block sums
are added by halving, s = s[0::2] + s[1::2]: numpy's pairwise sum splits
a power-of-two run of 128 or more entries into halves, so this is its
sum of the whole vector bit for bit, and so are the brackets.  The
scratch block takes 128 KiB where a whole scratch vector took 8 B per
mask, which pays for the sweep's transposed copy (see `matchcount`): a
monomer-dimer bracket holds three vectors of its size, x and the sweep's
two layouts.  Sectored operators and vectors of other sizes run as one
block, reduced as a whole.  Sectors add one buffer, into which `take`
gathers each sector's entries, in stable-sort order, for `reduceat`, and
spread the sector norms over the labels in chunks of `_SPREAD_CHUNK` =
2^12 entries, so numpy's intp copy of the int8 labels stays small.
Non-finite values are caught on the ratio extremes instead of a pass
over y: x stays positive, so an inf or NaN anywhere in y reaches the
minimum or the maximum of y / x, and the step raises ArithmeticError.

Brackets are computed in float64 from exact integer entries;
certification is up to roundoff in entries and products, not interval
arithmetic.  All reductions use fixed-order numpy sums, so results do not
depend on BLAS thread counts.

SHIFT is the shift r, and TOL and MAX_ITER the default relative width
that ends a bracket and step cap, which `bounds` and the CLI flags read,
so a bound and a direct `transfer_log_radius` call share cache entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL, SHIFT, MAX_ITER = 1e-12, 1.0, 1_000_000
# entries per block of a step, and per chunk of a sector-norm spread
_BLOCK = 1 << 14
_SPREAD_CHUNK = 1 << 12


@dataclass
class SpectralBracket:
    """Certified interval around a spectral radius (shift already removed);
    `transfer_log_radius` returns one whose ends and estimate are logs."""

    lower: float
    upper: float
    rayleigh: float
    iterations: int
    converged: bool

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _fold(terms: np.ndarray) -> np.ndarray:
    """The per-block rows of a step as one: minima, maxima, then sums added by halving."""
    if len(terms) == 1:
        return terms[0]
    sums = terms[:, 2:]
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return np.concatenate([terms[:, :1].min(axis=0), terms[:, 1:2].max(axis=0), sums[0]])


def power_method(matrix, tol: float = TOL, max_iter: int = MAX_ITER, history: list | None = None):
    """Bracket the spectral radius of a nonnegative matrix.

    `matrix` is a dense ndarray or scipy sparse matrix; `tol` is relative
    bracket width.  The matrix front of `operator_power_method`, with the
    connected components as sectors: a reducible matrix is stepped whole,
    so `iterations` and `max_iter` count joint steps.  Returns
    (SpectralBracket, eigenvector estimate on the dominant component,
    zero elsewhere).
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    dense = not sparse.issparse(matrix)
    mat = np.asarray(matrix, dtype=np.float64) if dense else matrix.tocsr()
    m = mat.shape[0]
    if mat.shape != (m, m):
        raise ValueError("matrix must be square")
    minval = mat.min() if dense else (mat.data.min() if mat.nnz else 0.0)
    if minval < 0:
        raise ValueError("matrix must be nonnegative")
    # labelled from a CSR copy of the nonzeros: scipy converts a dense
    # graph through float64 and index copies of twice its size
    n_comp, labels = connected_components(sparse.csr_matrix(mat), directed=False)
    return operator_power_method(mat.__matmul__, m, tol, max_iter, history,
                                 labels if n_comp > 1 else None)


def operator_power_method(apply, size: int, tol: float = TOL, max_iter: int = MAX_ITER,
                          history: list | None = None, sectors: np.ndarray | None = None):
    """Bracket the spectral radius of a nonnegative operator.

    `apply` maps a float64 vector of length `size` to the operator's product
    with it, for an operator never materialized as a matrix; the product
    may be a buffer of `apply`'s own, which the step overwrites.  `sectors`,
    int labels 0 to k - 1 over the vector, name the invariant blocks of a
    block-diagonal operator; ratio extremes, Rayleigh quotients and norms
    are then taken per sector.  Without them the caller guarantees
    irreducibility.  Arguments and result are otherwise those of
    `power_method`.
    """
    if size < 1:
        raise ValueError("operator size must be positive")
    # a NaN or negative tol never meets the width test and runs to max_iter
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    # `gather` lays values out for `reduce`, which reduces them per sector into out
    if sectors is None:
        def gather(values):
            return values

        def reduce(ufunc, values, out):
            ufunc.reduce(values, out=out, keepdims=True)
    else:
        sectors = np.asarray(sectors)
        # kind, shape and sign first: bincount raises its own errors on them
        if not (np.can_cast(sectors.dtype, np.intp) and sectors.shape == (size,)
                and sectors.min() >= 0 and (counts := np.bincount(sectors)).all()):
            raise ValueError("sector labels must be 0, 1, ..., k - 1 over the whole vector")
        order = np.argsort(sectors, kind="stable")
        starts = np.cumsum(counts) - counts
        gathered = np.empty(size)
        # labels spread in chunks, so numpy's intp copy of them stays small
        spread = [(sectors[start:start + _SPREAD_CHUNK], gathered[start:start + _SPREAD_CHUNK])
                  for start in range(0, size, _SPREAD_CHUNK)]

        def gather(values):
            return np.take(values, order, out=gathered, mode="clip")

        def reduce(ufunc, values, out):
            ufunc.reduceat(values, starts, out=out)
    x = np.ones(size)
    # a power-of-two vector without sectors steps in blocks, whose sums add
    # up by halving as numpy's pairwise sum does; see the module notes
    block = _BLOCK if sectors is None and size > _BLOCK and not size & size - 1 else size
    scratch = np.empty(block)
    # per block, per sector: ratio minima and maxima, then sums of x y, x x and y y
    terms = np.empty((size // block, 5, 1 if sectors is None else len(starts)))
    blocks = [(slice(start, start + block), x[start:start + block], *row)
              for start, row in zip(range(0, size, block), terms)]

    def normalize(v, squares):
        norms = np.sqrt(squares)
        if sectors is not None:
            for labels, out in spread:
                np.take(norms, labels, out=out, mode="clip")
            norms = gathered
        np.divide(v, norms, out=x)

    lower = upper = None
    for iterations in range(1, max_iter + 1):
        y = apply(x)
        for part, xb, least, most, xy, xx, yy in blocks:
            yb = y[part]
            np.multiply(xb, SHIFT, out=scratch)
            np.add(yb, scratch, out=yb)
            np.divide(yb, xb, out=scratch)
            ratios = gather(scratch)
            reduce(np.minimum, ratios, least)
            reduce(np.maximum, ratios, most)
            for out, a, b in ((xy, xb, yb), (xx, xb, xb), (yy, yb, yb)):
                np.multiply(a, b, out=scratch)
                reduce(np.add, gather(scratch), out)
        low, high, xy, xx, yy = _fold(terms).tolist()
        # x > 0, so an inf or NaN anywhere in y reaches a ratio extreme
        if not all(map(math.isfinite, low + high)):
            raise ArithmeticError("power iteration produced non-finite values")
        rayleigh = [a / b for a, b in zip(xy, xx)]
        for lo, r, hi in zip(low, rayleigh, high):
            slack = 1e-11 * max(1.0, abs(r))
            if not (lo - slack <= r <= hi + slack):
                raise ArithmeticError("Rayleigh quotient escaped the ratio bracket")
        lower = low if lower is None else list(map(max, lower, low))
        upper = high if upper is None else list(map(min, upper, high))
        top = upper.index(max(upper))
        bottom, ceiling = max(lower), upper[top]
        estimate = min(max(rayleigh[top], bottom), ceiling)
        bracket = SpectralBracket(bottom - SHIFT, ceiling - SHIFT, estimate - SHIFT, iterations,
                                  ceiling - bottom <= tol * max(1.0, abs(estimate)))
        if history is not None:
            history.append((iterations, bracket.lower, bracket.upper, bracket.rayleigh))
        if bracket.converged:
            normalize(x, xx)
            break
        normalize(y, yy)
    if sectors is not None:
        x[sectors != top] = 0.0
    return bracket, x
