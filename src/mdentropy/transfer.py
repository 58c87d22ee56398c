"""Exact powers of the transfer operator, and its orbit quotient.

The full transfer matrix M of a section configuration, whose entry (S, T)
counts covers of the complement of S | T, is applied by the site sweep of
`matchcount` (`SweepOperator`, and its one-shot `sweep_apply`) from the
section's pieces alone.  `matvec_exact` is the sweep on Python integers,
the exact reference for every faster product.

Every exact power goes through one closing routine, `_close`: M is
symmetric, so c^T M^t c = <M^a c, M^b c> with a = t // 2 and b = t - a,
and `_close` sums w * <M^a c, M^b c> over blocks of columns c with a
sweeps, one more when b > a, and one dot per column.  `full_trace_power`
feeds it the basis columns e_r, weighted by orbit size, at t = q, so a
trace sweeps ceil(q / 2) times; tr(M^0) = 2^n and tr(M) = c(full) come
off the table, since only the empty mask is disjoint from itself.
`quadratic_form_count`, the entry (M^e)[0, 0], feeds it the one column
x = M e0, the cover counts reversed, at t = e - 2, the one int64 copy of
counts (it is swept in place).  Their time is bounded by predicted work,
not points: ceil(t / 2) sweeps over every column, each placing every
piece on at most 2^n entries per residue, must stay within
`SWEEP_WORK_MAX` element updates.

Both run on int64.  R, the sum of all counts (`row_sum`), is row 0's sum
and the largest row sum, so entries of M^k e_r are at most R^k, and
entries of M^k x at most R^(k+1); every term is nonnegative, so each
partial sum of a sweep or a dot is at most the value it adds up to.
While R^q < 2^63 (R^e for a form) everything therefore runs in plain
int64, the dot's products and partial sums included.  Otherwise the
columns are int64 residues modulo a few pairwise coprime moduli p from
`residue_moduli`, with factor bound max(R, 2^31): a sweep of residues
below p sums terms up to (p - 1) R < 2^63, each product of two residues
in the dot is below 2^62 and is reduced modulo p at once, and the 2^n
reduced products sum below 2^(31 + n), inside int64 for n <= 32, far
past the memory budget.  The moduli are taken until their product
exceeds W R^q, W the weights' total (1 for a form), and the count is
rebuilt by Chinese remaindering.

Folding columns over the mask orbits of a group that preserves the matrix
gives the quotient

    q[a][b] = sum over T in orbit b of entry(rep_a, T)

which keeps the spectral radius of the full matrix and is self-adjoint
under the orbit-size weighted inner product: w_a * q[a][b] = w_b * q[b][a].
M(gS, gT) = c(g(full - S - T)), so a group preserves M exactly when the
counts are constant on its orbits; the quotient and the orbit-weighted
trace refuse other orbits with ValueError.

The quotient and the float64 sparse form of the full matrix are kept as
references for the sweep's products: both read the cover counts entry by
entry through `disjoint_pairs`, which lists every pair (S, T) of
disjoint masks for given rows S in bounded blocks of numpy arrays, about
3^n / |G| pairs for the quotient and 3^n for the full matrix.  The
quotient adds counts into (representative, orbit of T) in int64, and
refuses a table whose counts sum to 2^63 or more, since that sum bounds
every row sum (torus tables inside the budget sum to 22-31 bits).  Its
entries must stay below 2^53, since they are iterated in float64, and so
must every count the sparse form stores.  `full_matrix_sparse` is the
module's only use of scipy and imports it when called, so the sweep and
the quotient load without it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING

import numpy as np

from .lattice import CapacityError, check_memory
from .matchcount import CoverTable, SweepOperator, exact_dtype, split_bit, sweep_apply
from .symmetry import OrbitSpace

if TYPE_CHECKING:
    from scipy import sparse

# element updates of one exact power's sweeps, which bound its time, not
# its memory: the unfolded (14,) torus trace at q = 2 predicts 7.5e9 and
# took 3.8-3.9 s on a two-core VM
SWEEP_WORK_MAX = 2 * 10**10
_FLOAT_EXACT_LIMIT = 1 << 53
_BLOCK_ENTRIES = 1 << 20
# pairs per block of `disjoint_pairs`; each pair takes some 30 bytes of
# temporaries in its callers, so a block stays near 2 MB
_PAIR_BLOCK = 1 << 16


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


def disjoint_pairs(rows: np.ndarray, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair (i, T) with T inside the complement of S = rows[i], in blocks.

    `rows` holds masks over n points.  Yields (index, t) int32 arrays of
    row indices and masks, of at most max(2^16, 2^n) pairs each; within
    one row the masks T ascend.  Rows are taken by their number k of free
    points (points outside S), so each block holds rows with 2^k pairs
    apiece, and T is expanded one free point at a time: the point stays
    outside S | T or joins T.  Points of S are never visited.
    """
    comp = ((1 << n) - 1) ^ np.asarray(rows, dtype=np.int32)
    free = sum((comp >> v) & 1 for v in range(n))
    for k in range(n + 1):
        members = np.flatnonzero(free == k).astype(np.int32)
        step = max(1, _PAIR_BLOCK >> k)
        for start in range(0, len(members), step):
            index = members[start:start + step]
            spare = comp[index]
            t = np.zeros((len(index), 1), dtype=np.int32)
            for _ in range(k):
                point = spare & -spare
                spare ^= point
                t = np.concatenate([t, t | point[:, None]], axis=1)
            yield np.repeat(index, 1 << k), t.ravel()


def _check_orbits(table: CoverTable, orbits: OrbitSpace) -> None:
    """ValueError unless the counts are constant on the orbits, so their group preserves M."""
    if orbits.n != table.shape.n:
        raise ValueError("orbit space and cover table disagree on point count")
    if not np.array_equal(table.counts[orbits.reps][orbits.orbit_of], table.counts):
        raise ValueError("cover counts are not constant on the orbits, "
                         "so their group does not preserve the transfer matrix")


def build_quotient(table: CoverTable, orbits: OrbitSpace) -> QuotientMatrix:
    """Fold the full transfer matrix of `table` over mask orbits.

    The orbits must come from a group of automorphisms of the table's
    matrix (ValueError otherwise); the rigid motions of the section torus
    qualify for the torus kind, which is the kind spectral radii are
    computed from.  CapacityError if the counts sum to 2^63 or more.

    Predicts 8 * m^2 + 8 * 2^n + 64 * max(2^16, 2^n) bytes for m orbits:
    the int64 entries, `row_sum` temporaries or object counts as int64,
    and a `disjoint_pairs` block.
    """
    n = table.shape.n
    check_memory(8 * orbits.size ** 2 + (8 << n) + 64 * max(_PAIR_BLOCK, 1 << n),
                 f"a {orbits.size}-orbit quotient")
    # an entry is at most its row sum, and R, row 0's, is the largest
    if row_sum(table) >> 63:
        raise CapacityError("cover counts sum past int64 range")
    _check_orbits(table, orbits)
    counts = table.counts.astype(np.int64, copy=False)
    reps = np.array(orbits.reps, dtype=np.int32)
    size = orbits.size
    entries = np.zeros((size, size), dtype=np.int64)
    for index, t in disjoint_pairs(reps, n):
        np.add.at(entries.reshape(-1), index.astype(np.intp) * size + orbits.orbit_of[t],
                  counts[table.full ^ (reps[index] | t)])
    if entries.max() >= _FLOAT_EXACT_LIMIT:
        raise CapacityError("quotient entry exceeds exact float64 range")
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


def matvec_exact(table: CoverTable, x: list[int]) -> list[int]:
    """Exact product of the full transfer matrix with an integer vector."""
    return sweep_apply(table, np.array(x, dtype=object)).tolist()


def row_sum(table: CoverTable) -> int:
    """R, the sum of all counts, exact: int64 counts as their high and low 32 bits."""
    counts = table.counts
    if counts.dtype == object:
        return sum(counts)  # adds machine-size ints in C, unlike an object `.sum()`
    return (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())


def residue_moduli(bound: int, row_sum: int) -> list[int]:
    """Pairwise coprime moduli whose product exceeds `bound`; empty below 2^63.

    Each p lies in [2^(b-1), 2^b), b = 63 - bits(row_sum): it adds at least
    b - 1 bits and (p - 1) * row_sum < 2^63.  Candidates descend, kept when
    coprime to those before; CapacityError if too few fit (row_sum >= 2^61).
    """
    if exact_dtype(bound) is np.int64:
        return []
    b = 63 - row_sum.bit_length()
    moduli, product = [], 1
    for p in range((1 << b) - 1, (1 << b - 1) - 1, -1) if b >= 2 else ():
        if gcd(p, product) == 1:
            moduli.append(p)
            product *= p
            if product > bound:
                return moduli
    raise CapacityError(f"no int64 moduli cover {bound.bit_length()} bits at row sum {row_sum}")


def _plan(table: CoverTable, power: int, weights: list[int],
          t: int) -> tuple[int, np.ndarray]:
    """Columns per block and int64 moduli for a weighted sum of entries of M^power.

    With R the sum of all counts, F = max(R, 2^31), W the weights' total
    and B = power * bits(R), a column takes k = 1 int64 entry if B <= 63,
    else k = ceil((B + bits(W)) / (62 - bits(F))) residues: each modulus
    adds at least 62 - bits(F) bits.  k comes from bit lengths, so two
    checks run before W R^power is formed.  24 B per entry of a block of
    at most max(2^20, k * 2^n) entries must fit the budget: the block, the
    operator's buffer, which takes the dot's products, and piece-update
    temporaries; 8 B more per entry if the operator holds a transposed
    copy (`split_bit`).  The work of closing one column per weight at `t`,
    ceil(t / 2) sweeps of k residues, each placing P pieces on at most
    2^n entries, must stay within `SWEEP_WORK_MAX`.  No moduli while
    R^power < 2^63.
    """
    n = table.shape.n
    r, total = row_sum(table), sum(weights)
    factor = max(r, 1 << 31)
    bits = power * r.bit_length()
    k = 1 if bits <= 63 else -(-(bits + total.bit_length()) // max(62 - factor.bit_length(), 1))
    width = max(1, (_BLOCK_ENTRIES >> n) // k)
    columns = k * min(width, len(weights))
    transposed = 8 * columns << n if split_bit((1 << n, columns), 8) else 0
    check_memory((24 * columns << n) + transposed, f"M^{power} over {n} points on {k} int64 residues")
    work = -(-t // 2) * k * len(weights) * len(table.pieces) << n
    if work > SWEEP_WORK_MAX:
        raise CapacityError(f"M^{t} over {n} points predicts {work:.1e} element updates; "
                            f"the limit is {SWEEP_WORK_MAX:.0e}")
    moduli = residue_moduli(total * r ** power, factor) if r ** power >> 63 else []
    return width, np.array(moduli, dtype=np.int64)


def _sweep(sweep: SweepOperator, z: np.ndarray, moduli: np.ndarray, out=None) -> np.ndarray:
    """M z, reduced modulo each p on residues, into `out` or else the operator's buffer."""
    y = sweep(z.reshape(sweep.shape)).reshape(z.shape)
    out = y if out is None else out
    if moduli.size:
        return np.remainder(y, moduli, out=out)
    np.copyto(out, y)  # returns at once when out is the buffer itself
    return out


def _crt(residues, moduli: np.ndarray) -> int:
    """The integer below the moduli's product with these residues; residues[0] if none."""
    if not moduli.size:
        return int(residues[0])
    total, product = 0, 1
    for p, residue in zip(moduli.tolist(), residues):
        total += product * ((int(residue) - total) * pow(product, -1, p) % p)
        product *= p
    return total


def _close(table: CoverTable, blocks, power: int, moduli: np.ndarray) -> int:
    """Exact sum of w * <M^a c, M^b c> over the columns c of every block.

    a = power // 2 and b = power - a.  `blocks` yields (z, weights): z of
    shape (2^n, columns, k), reduced modulo each of the k moduli (k = 1
    and no moduli in plain int64), and one weight per column.  Each block
    is swept a times in place, once more into the operator's buffer when
    b > a, and closed with one product per entry, reduced at once, and
    one sum per column.
    """
    a, b = power // 2, power - power // 2
    sums = np.zeros(moduli.size or 1, dtype=object)
    sweep = None
    for z, weights in blocks:
        if b and (sweep is None or sweep.buffer.size != z.size):
            sweep = None  # frees the last block's buffer before the next is allocated
            sweep = SweepOperator(table, (len(z), z.size // len(z)), np.int64)
        for _ in range(a):
            _sweep(sweep, z, moduli, out=z)
        v = _sweep(sweep, z, moduli) if b > a else z
        np.multiply(z, v, out=v)
        if moduli.size:
            np.remainder(v, moduli, out=v)
        sums += np.array(weights, dtype=object) @ v.sum(axis=0).astype(object)
        del z, v  # freed before the next block is allocated
    return _crt(sums, moduli)


def full_trace_power(table: CoverTable, q: int, orbits: OrbitSpace | None = None) -> int:
    """Exact trace of the q-th power of the full transfer matrix.

    With an orbit space supplied, only one diagonal entry per orbit is
    computed and weighted by the orbit size; the diagonal of a power is
    constant on orbits because the group conjugates the matrix to itself,
    and orbits of a group that does not are refused with ValueError.
    tr(M) = c(full), as only the empty mask, an orbit of its own, meets
    itself, so q <= 1 is admitted at any size; from q = 2 the basis
    columns go to `_close` in blocks of `_plan`, which bounds their work.
    """
    n = table.shape.n
    if q < 0:
        raise ValueError("power must be nonnegative")
    if orbits is not None:
        _check_orbits(table, orbits)
    if q == 0:
        return 1 << n
    if q == 1:
        return table.count(table.full)
    reps = list(orbits.reps) if orbits is not None else list(range(1 << n))
    weights = list(orbits.sizes) if orbits is not None else [1] * (1 << n)
    width, moduli = _plan(table, q, weights, q)

    def blocks():
        for start in range(0, len(reps), width):
            rows = reps[start:start + width]
            z = np.zeros((1 << n, len(rows), moduli.size or 1), dtype=np.int64)
            z[rows, np.arange(len(rows))] = 1
            yield z, weights[start:start + width]
            del z  # so only one block is alive at a time

    return _close(table, blocks(), q, moduli)


def quadratic_form_count(table: CoverTable, exponent: int) -> int:
    """Exact x^T M^(exponent-2) x with boundary vector x[s] = entry(s, 0).

    The boundary vector closes both ends of a stack of `exponent` layers
    with no dimer leaving through the stacking direction, so the result
    counts covers of the section extended by a tiled layer direction.
    x = M e0 is the counts reversed, so this is (M^exponent)[0, 0], the
    one column x through `_close` at exponent - 2.  Predicts 24 k * 2^n
    bytes, 32 k * 2^n if the operator holds a transposed copy, and
    ceil(exponent / 2 - 1) * k * P * 2^n element updates, P the pieces, R
    the sum of all counts and B = exponent * bits(R): k = 1 if B <= 63,
    else k = ceil((B + 1) / (62 - max(bits(R), 32))) residues.
    """
    if exponent < 2:
        raise ValueError("quadratic form needs at least two layers")
    _, moduli = _plan(table, exponent, [1], exponent - 2)
    x = table.counts[::-1].astype(np.int64).reshape(-1, 1, 1)
    x = x % moduli if moduli.size else x
    return _close(table, [(x, [1])], exponent - 2, moduli)


def full_matrix_sparse(table: CoverTable) -> sparse.csr_matrix:
    """Full transfer matrix as float64 CSR, for spectral cross-checks.

    Predicts 48 B per disjoint pair, 3^n of them: row, column and value in
    blocks (16 B), concatenated (16 B) and in CSR (12 B).
    """
    from scipy import sparse

    n = table.shape.n
    check_memory(48 * 3**n, f"the {n}-point sparse full matrix")
    # every count c(U) is the entry (complement of U, 0)
    if table.counts.max() >= _FLOAT_EXACT_LIMIT:
        raise CapacityError("entry exceeds exact float64 range")
    rows, cols, data = [], [], []
    # every mask is a row, so a row index is its mask S
    for s, t in disjoint_pairs(np.arange(table.full + 1), n):
        c = table.counts[table.full ^ (s | t)].astype(np.float64)
        keep = np.flatnonzero(c)
        rows.append(s[keep])
        cols.append(t[keep])
        data.append(c[keep])
    mat = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(table.full + 1, table.full + 1), dtype=np.float64,
    )
    return mat.tocsr()
