"""Exact cover counts for every vertex subset of a cross-section, and the transfer sweep.

A cover of a subset U of section points places on each point of U either a
monomer, half of a dimer lying on an adjacency edge inside U (counted with
edge multiplicity), or half of a dimer protruding out of the section
through one of the point's protrusion slots.  Dimer-only tables drop the
monomer option.  A point covered alone (a monomer or a protruding dimer)
carries the weight `monomer_ok + slots(v)`; an edge {v, w} carries its
multiplicity.

The transfer matrix M of a section has rows and columns indexed by subset
masks; entry (S, T) counts covers of the complement of S | T and is zero
when S and T intersect.  Its product with a vector is the subset
convolution

    (M x)(S) = sum over T inside the complement U of S of c(U - T) x(T)

with c the cover counts.  A `SweepOperator` evaluates it from the pieces
alone.  It copies x reversed into its buffer u, so u(S) = x(full - S), and
places every piece P once, downward: a point piece at v adds weight *
u(S | v) into each u(S) with v outside S, an edge adds mult * u(S | v | w)
into each u(S) missing both ends.  Each update reads only entries it does
not write and the updates commute, so afterwards u(S) sums c(R) * x(full -
S - R) over the subsets R of the complement of S, which is (M x)(S): the
product comes out in natural order after one piece per site and edge,
O(n * deg * 2^n) vectorized additions.  A trailing batch axis, x of shape
(2^n, B), applies M to B columns in one sweep.  The cover table is one
such product: (M e0)(S) = entry(S, 0) = c(full - S), so `CoverTable`
reads its counts off the image of the indicator e0 of the empty mask,
reversed.  Placing a piece upward on x itself, weight * x(T) into each
x(T | v), makes entry for entry the additions that placing it downward
makes on x reversed.  So M = R U for R the reversal and U the upward
placement, as well as M = D R for D the downward one, and M^2 = (D R)(R
U) = D U: `square` places every piece upward on a plain copy of x and
then downward, the additions of `op(op(x))` in the same order, so the
same bits, with no reversed copy between.

`piece_views` builds the (target, source, factor) views of every piece on
one of the operator's buffers, the target viewing the masks without the
piece and the source the same masks with it, and `run_updates` adds
factor * source into target for each, in order.  An operator makes its buffer and views
once, for brackets and traces that apply M many times; `sweep_apply` is a
one-shot call.  The dtype of x decides the arithmetic: float64 for
spectral brackets, int64 for exact traces, boundary quadratic forms and
tables, Python integers (object dtype) for the reference
`transfer.matvec_exact` and for tables past int64.

Each update works on a strided view whose last axis is a contiguous run
of B << v elements.  numpy's ufunc loop copies a strided operand through
its buffer when the run is shorter than about half the buffer size, 8192
elements by default, so at n = 17 a float64 update at bits 3-11 (runs of
8 to 2048) took 0.09-0.28 ms against 0.03 ms at bits 12 and up.  The
update loop therefore runs with the buffer size set to `_UPDATE_BUFSIZE`
= 512 elements: runs of 256 and more become one strided add each, and
shorter runs are buffered in smaller blocks.  Per update at n = 17,
default -> 512: bit 4 0.20 -> 0.16 ms, bit 6 0.17 -> 0.11, bit 8 0.12 ->
0.08, bits 10-11 0.09-0.10 -> 0.03-0.04.  A whole float64 sweep (median
of five best-of-7 rounds, best of 3 at 22 points) fell from 3.3 to 2.3 ms
at (17,), 2.5 to 2.0 at (4, 4), 32 to 30 at (20,) and 238 to 201 at
(22,); at 24 points, where every update streams the whole array, it
stays at about 1.4 s.  Sizes 128, 256, 1024 and 2048 were each slower
than 512 at 17 points.  The scope is safe: the buffer size belongs to
numpy's error state context, which `np.errstate` restores on exit or
exception (numpy 2.0 and later) and which is per thread or task, so
callers keep their own buffer size and error state.  Inside it run only
elementwise adds and multiplies, in the same piece order, whose result
per element does not depend on how numpy blocks the loop, so every dtype
gives the same bits; no reduction runs there.

A run of at most `_COLUMN_RUN` = 4 elements is updated one column at a
time, each column one long 1-D strided add: at n = 17 bit 1 takes 0.09
ms and bit 2 0.14 ms instead of 0.6-0.9 and 0.47 whole, at either buffer
size.  The cutoff is measured: at numpy's default buffer size a run of 4
by columns also won at 20 points (1.7 against 3.5 ms) and tied at 22 (12
against 13 ms) and 24 (55 against 53-71 ms).  Under the 512 buffer a run
of 8 takes 0.20 ms by columns against 0.27 ms buffered at n = 17, and
whole sweeps with the cutoff at 8 win at (13,), (17,) and (4, 4) but
lose at (20,) (31-33 against 28-31 ms) and (22,) (245-271 against
214-256 ms), because every column pass streams the whole array; so the
cutoff stays at 4.  The columns see the same additions in the same piece
order, so the results are bit-identical in every dtype, with or without
a batch axis.  An update of fewer than `_COLUMN_MIN_SIZE` = 1024
elements stays whole: there the per-column call costs more than the rows
it saves (a 6-point float64 sweep took 79 us by columns against 58 us
whole), and from about 11 points up the columns win.

Two layouts.  The update of a piece whose lower end is v has runs of B
<< v elements, so the low bits are the slow ones: at (17,), each update
timed alone, the pieces whose lower end is bit 0-7 took about 0.98 ms of a
1.27 ms sweep.  An operator whose buffer holds 64 KiB to 1 MiB in rows
(one mask's batch) of at most 256 B (`_SPLIT_BYTES`, `_SPLIT_ROW_BYTES`;
13 to 17 points for one vector of 8-byte entries, fewer with a short
batch) therefore places the low group, the pieces whose lower end is
below k = n // 2 (`split_bit`), on a second buffer holding the masks as
(2^k, 2^(n-k)[, B]): mask bit v < k sits at bit v + n - k of its index
there and bit v >= k at v - k, so a point piece of the low group has
runs of B << (v + n - k), and an edge (v, w) with w >= k runs of B << (w
- k).  A call copies x into that buffer reversed and transposed, places
the low group, copies the array back transposed into the natural buffer
and places the remaining pieces there.  Any other operator has an empty
low group, no second buffer and no copy back: it copies x reversed into
its buffer and places every piece there.  The canonical piece order is
the low group first, then the rest, each in piece order (points by bit,
then edges as listed).  Integer dtypes give the same values in any
order; a float64 sweep of 13-17 points moves by at most a few ulps
against the one-layout order (relative differences up to 5.8e-16), and
every CLI output compared with the one-layout sweep (`table --which 1|3
--max-size 17`, `--which 2 --max-size 15`, `--which 4 --max-size 16`,
three `bounds` and seven `beta` sections of 15-19 points) was
byte-identical.

The rule is measured on a two-core VM with 2 MiB of L2 per core, as the
median of eleven interleaved rounds, in ms.  One float64 sweep, one
layout -> two: (13,) 0.135 -> 0.106, (16,) 0.71 -> 0.50, (17,) 1.52 ->
1.14, (4, 4) 1.23 -> 0.71, (8, 2) 1.11 -> 0.90, (5, 3) 0.63 -> 0.45.
int64 batches of 512 KiB, repeated calls: rows of 4 to 32 entries gained
18-40% ((14,) with four columns 0.78 -> 0.47), rows of 64 entries 11%
((10,) 0.26 -> 0.23), and rows of 78 and 128 lost 8%; an operator used
once, as an exact trace uses one per block, also pays for the fresh
second buffer, and the 78-column trace of the (10,) orbits took 1.50 ->
1.83 ms, hence the row limit.  At 2 MiB, where the two buffers no longer
fit that cache together and each transposed copy takes about 1 ms, the
split is a wash or a loss: (18,) 3.8-4.0 -> 4.0-4.4, (9, 2) 6.6 -> 7.2,
(6, 3) even, (3, 3, 2) 7.8 -> 6.0, and a batch of 512 columns over 9
points 1.37 -> 1.71; past it the split loses, (19,) 12.0 -> 15.1, (20,)
22.8 -> 30.9, (5, 4) 34 -> 40.  Below 64 KiB a float64 sweep called
repeatedly gained too, 10-18% at 10-12 points; whether the brackets and
one-shot tables of that size gain as a whole is not measured, so the rule
starts at 13 points.

Counts are exact.  The table is accumulated in int64 only when the
product over points v of max(1, weight of v + the multiplicities of the
edges from v to higher points) is below 2^63.  That product bounds every
count: the lowest point of a subset U is covered alone or by an edge to
a higher point of U, so c(U) is at most that point's factor times the
largest count of a smaller subset, and every factor is at least 1 (a
point with no choice at all makes c(U) zero).  The partial sums, which
only grow, never exceed the final counts.  Otherwise the table is
accumulated in Python integers (object dtype).  Either way `counts` is
the sweep's image reversed, a read-only view.  The 24-point (4, 3, 2)
torus table, with a 46-bit bound, is built in int64.

A section kind fixes which dimers are admissible by one mode per
direction (see `lattice`): the box kind tiles every direction (tilings),
the torus kind wraps every direction, the mixed kind wraps the first and
protrudes through the rest, and the protruding kind protrudes through
every direction.  For a 1-D section the mixed kind has no remaining
directions, so it coincides with the torus kind.
"""

from __future__ import annotations

import enum
import sys
from math import prod

import numpy as np

from .lattice import PROTRUDE, TILE, WRAP, LatticeShape, check_memory, section_geometry

_INT64_LIMIT = 1 << 63
# pieces whose contiguous run (the last axis of the update) holds at most
# _COLUMN_RUN elements are placed one column at a time, unless the update
# covers fewer than _COLUMN_MIN_SIZE elements; see the module notes
_COLUMN_RUN = 4
_COLUMN_MIN_SIZE = 1 << 10
# numpy's ufunc buffer size, in elements, while pieces are placed
_UPDATE_BUFSIZE = 512
# an operator places the pieces whose lower end is below n // 2 on a
# transposed copy when its buffer holds _SPLIT_BYTES, both ends included,
# in rows (one mask's batch) of at most _SPLIT_ROW_BYTES; see the module notes
_SPLIT_BYTES = (1 << 16, 1 << 20)
_SPLIT_ROW_BYTES = 256


class SectionKind(enum.Enum):
    BOX = "box"
    TORUS = "torus"
    MIXED = "mixed"
    PROTRUDING = "protruding"


# the mode of each kind's first direction and of the rest
_KIND_MODES = {
    SectionKind.BOX: (TILE, TILE),
    SectionKind.TORUS: (WRAP, WRAP),
    SectionKind.MIXED: (WRAP, PROTRUDE),
    SectionKind.PROTRUDING: (PROTRUDE, PROTRUDE),
}


def kind_modes(kind: SectionKind, d: int) -> tuple[str, ...]:
    """The mode of each of the d directions of a section kind."""
    if not isinstance(kind, SectionKind):
        raise ValueError(f"unknown section kind {kind!r}")
    first, rest = _KIND_MODES[kind]
    return tuple(first if k == 0 else rest for k in range(d))


def section_config(shape: LatticeShape, kind: SectionKind) -> tuple[tuple, tuple[int, ...]]:
    """Edges and protrusion slots realizing a section kind; see `section_geometry`."""
    return section_geometry(shape, kind_modes(kind, len(shape.dims)))


def exact_dtype(bound: int):
    """Dtype for nonnegative integers at most `bound`: int64 below 2^63, else object."""
    return np.int64 if bound < _INT64_LIMIT else object


def split_bit(shape: tuple[int, ...], itemsize: int) -> int:
    """Bit k below which a sweep over arrays of `shape` with `itemsize`-byte entries
    places pieces on its transposed copy; 0 if it places every piece in one layout."""
    row = itemsize * prod(shape[1:])
    n = shape[0].bit_length() - 1
    split = _SPLIT_BYTES[0] <= row << n <= _SPLIT_BYTES[1] and row <= _SPLIT_ROW_BYTES
    return n // 2 if split else 0


def piece_views(z: np.ndarray, pieces) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """(target, source, factor) views of z for every piece, in piece order.

    `z` has a leading axis of 2^n masks and an optional trailing batch
    axis.  `pieces` holds (p, q, factor), p <= q the bits of z's mask
    index that the piece covers: one point covered alone when p == q,
    else an edge.  `target` views the entries whose masks miss the piece
    and `source` the same masks with it added.  A large update with a
    short contiguous run is split into one view pair per column; see the
    module notes.
    """
    b = z.size // z.shape[0]
    views = []
    for p, q, factor in pieces:
        if p == q:
            axis = z.reshape(-1, 2, b << p)
            views += _by_columns(axis[:, 0], axis[:, 1], factor)
        else:
            pair = z.reshape(-1, 2, 1 << (q - p - 1), 2, b << p)
            views += _by_columns(pair[:, 0, :, 0], pair[:, 1, :, 1], factor)
    return views


def _by_columns(target: np.ndarray, source: np.ndarray, factor: int):
    run = target.shape[-1]
    if run <= _COLUMN_RUN and target.size >= _COLUMN_MIN_SIZE:
        return [(target[..., j], source[..., j], factor) for j in range(run)]
    return [(target, source, factor)]


def run_updates(updates) -> None:
    """target += factor * source for each (target, source, factor), in order."""
    # the buffer size belongs to the errstate context, which restores the
    # caller's on exit (numpy >= 2.0); see the module notes
    with np.errstate():
        np.setbufsize(_UPDATE_BUFSIZE)
        for target, source, factor in updates:
            _add_scaled(target, source, factor)


def _add_scaled(target: np.ndarray, source: np.ndarray, factor: int) -> None:
    target += source if factor == 1 else factor * source


class SectionPieces:
    """The pieces from which covers of one section configuration are built.

    `point_weights[v]` counts the ways to cover v alone, `edges` holds
    the edge pieces (v, w, multiplicity), and `pieces` both in piece
    order, as (v, w, factor) with w = v for a point covered alone; that
    is all the sweep reads, so no cover count is computed here.
    """

    def __init__(self, shape: LatticeShape, kind: SectionKind, dimer_only: bool = False):
        self.shape = shape
        self.kind = kind
        self.dimer_only = bool(dimer_only)
        self.edges, self.slots = section_config(shape, kind)
        # ways to cover a point alone: a monomer (unless dimer-only) or a
        # dimer through one of its protrusion slots
        self.point_weights = tuple(
            (0 if self.dimer_only else 1) + s for s in self.slots
        )
        self.pieces = tuple((v, v, weight) for v, weight in enumerate(self.point_weights)
                            if weight) + tuple(self.edges)
        self.full = (1 << shape.n) - 1

    @property
    def count_bound(self) -> int:
        """A bound on every cover count: the product over points of max(1, the
        point's weight plus the multiplicities of its edges to higher points);
        see the module notes."""
        choices = list(self.point_weights)
        for v, _, mult in self.edges:
            choices[v] += mult
        return prod(max(1, c) for c in choices)


class CoverTable(SectionPieces):
    """Cover counts for all 2^n subsets of one section configuration.

    Predicts 24 B per mask: the sweep's buffer, which holds the indicator
    it starts from, its transposed copy at 13 to 17 points, a half-size
    `factor * source` temporary and the views; in object dtype also 2 s,
    s the size of an int as large as the bound.  Traced peaks: 8.0-8.2 B
    per mask on unit-factor tables from 18 points, 12.0-12.1 B with
    weighted pieces (protruding (5, 4) and (6, 3)); 16.4 B and 20.3-21.3
    B on tables that split ((16,); protruding (4, 4) and (7, 2)).
    """

    def __init__(self, shape: LatticeShape, kind: SectionKind, dimer_only: bool = False):
        super().__init__(shape, kind, dimer_only)
        self.counts = self._build()

    def _build(self) -> np.ndarray:
        bound = self.count_bound
        dtype = exact_dtype(bound)
        ints = 0 if dtype is np.int64 else 2 * sys.getsizeof(bound)
        check_memory((24 + ints) << self.shape.n, f"a {self.shape.n}-point cover table")
        sweep = SweepOperator(self, (self.full + 1,), dtype)
        sweep.buffer.fill(0)
        # e0 reversed, so the call's reversed copy of it is the buffer itself
        sweep.buffer[-1] = 1
        counts = sweep(sweep.buffer[::-1])[::-1]
        counts.flags.writeable = False
        return counts

    def _check_mask(self, mask: int) -> None:
        if not 0 <= mask <= self.full:
            raise ValueError(f"mask {mask:#x} outside the {self.shape.n}-point section")

    def count(self, mask: int) -> int:
        """Covers of the subset given by `mask`."""
        self._check_mask(mask)
        return int(self.counts[mask])

    def entry(self, s: int, t: int) -> int:
        """Transfer matrix entry: covers of the complement of s | t, 0 on overlap."""
        self._check_mask(s)
        self._check_mask(t)
        if s & t:
            return 0
        return int(self.counts[self.full ^ (s | t)])


class SweepOperator:
    """The transfer matrix of a section, applied to arrays of one shape and dtype.

    `shape` is (2^n,) or, for a batch of B vectors, (2^n, B).  A call
    returns the operator's buffer holding M x (see the module notes),
    valid until the next call.  x may be that buffer itself, so
    `op(op(x))` is M^2 x: `np.copyto` copies a source that overlaps its
    destination before writing.  `square(x)` is the same M^2 x without
    that copy.  Only the pieces of `pieces` are read, so
    a `SectionPieces` serves as well as a `CoverTable`.  An operator of
    `split_bit` k > 0 holds a second, transposed buffer for the pieces
    whose lower end is below k.
    """

    def __init__(self, pieces: SectionPieces, shape: tuple[int, ...], dtype):
        self.shape = tuple(shape)
        if len(self.shape) not in (1, 2) or self.shape[0] != pieces.full + 1:
            raise ValueError(f"array of shape {self.shape} does not match {pieces.full + 1} masks")
        self.buffer = np.empty(self.shape, dtype=dtype)
        n = pieces.full.bit_length()
        k = split_bit(self.shape, self.buffer.itemsize)
        self._low, rest = [], pieces.pieces
        if k:
            def at(v):  # the bit of a mask index at which mask bit v sits when transposed
                return v + n - k if v < k else v - k

            low = [(min(at(v), at(w)), max(at(v), at(w)), factor)
                   for v, w, factor in rest if v < k]
            rest = [piece for piece in rest if piece[0] >= k]
            # masks as (high bits, low bits[, batch]) in the buffer, (low, high[, batch]) here
            self._blocks = (1 << n - k, 1 << k) + self.shape[1:]
            self._transposed = np.empty((1 << k, 1 << n - k) + self.shape[1:], dtype=dtype)
            self._low = piece_views(self._transposed.reshape(self.shape), low)
        self._rest = piece_views(self.buffer, rest)
        self._upward = tuple([(source, target, factor) for target, source, factor in views]
                             for views in (self._low, self._rest))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self._check(x)
        return self._place(x[::-1], self._low, self._rest)

    def square(self, x: np.ndarray) -> np.ndarray:
        """M^2 x in the operator's buffer, bit for bit `op(op(x))` without numpy's
        copy of the buffer handed back: x is copied in unreversed and the
        pieces are placed upward (target and source swapped), then
        downward; see the module notes."""
        self._check(x)
        self._place(x, *self._upward)
        return self._place(None, self._low, self._rest)

    def _check(self, x: np.ndarray) -> None:
        if x.shape != self.shape:
            raise ValueError(f"array of shape {x.shape} does not match the operator's {self.shape}")

    def _place(self, x: np.ndarray | None, low, rest) -> np.ndarray:
        """Copy x into the buffer (None: it is there already) and run the updates low and
        rest, low on the transposed copy."""
        if self._low:
            source = self.buffer if x is None else x
            np.copyto(self._transposed, source.reshape(self._blocks).swapaxes(0, 1))
            run_updates(low)
            np.copyto(self.buffer.reshape(self._blocks), self._transposed.swapaxes(0, 1))
        elif x is not None:
            np.copyto(self.buffer, x)
        run_updates(rest)
        return self.buffer


def sweep_apply(pieces: SectionPieces, x: np.ndarray) -> np.ndarray:
    """Transfer matrix of `pieces` times x, in a new array.

    `x` has shape (2^n,) or, for a batch of B vectors, (2^n, B); the result
    has its shape and dtype, so float64 input gives a float64 product and
    object input an exact integer one.  A one-shot `SweepOperator`.
    """
    x = np.asarray(x)
    return SweepOperator(pieces, x.shape, x.dtype)(x)
