"""The pairwise win-count kernel, in numpy, and the names the benchmark's
tracer wraps.

Every kernel is a deterministic transform of its inputs (randomness is
always drawn by the caller). Callers look the kernels up as attributes
of this module (``_accel.pair_counts``), so a profiler can wrap them in
place. ACTIVE_IMPL names the implementation for run metadata.

pair_counts merges the faces of two dice with one float sort per pair:
each face carries the die it came from in its lowest mantissa bit, so
the sorted row gives the win count as the sum of the positions of one
die's faces. numpy sorts float64 rows with SIMD at a few ns a face,
about ten times less than a binary search or a stable argsort costs per
face. The label moves a face by at most one ulp, so the merge is exact
unless two faces share a value once the bit is cleared; only those
rows (continuous dice almost never hold one) are counted again by
binary search.

Scratch is the work-array arena of the continuous dice kernel: the
sampler's normals, spectrum and faces, the normal CDF's temporaries and
pair_counts' merged keys are views into one reusable byte buffer, so a
chunk of dice allocates nothing once the buffer has grown. The arena is
a stack: a function takes its output first, then its temporaries inside
a ``with scratch:`` frame, which gives them back when it ends. When the
outermost frame ends, the buffer grows to the most bytes the frame held
at once, up to the arena's limit; a take that does not fit is a fresh
array, so demand above the limit allocates as if there were no arena.
Each thread running the dice kernel keeps one arena of at most
experiments.DICE_SCRATCH_BYTES (2 MiB, 128 bytes per face of the chunk
budget), so an arena is never shared between threads. The kernel's
helper thread, which draws the next chunk's normals of the Gaussian
models, touches no arena: it writes only into a normals buffer that the
calling thread keeps beside its arena. A function given no arena makes a
throwaway one whose takes are all fresh arrays, and runs the same code.
"""

import math

import numpy as np

ACTIVE_IMPL = "python"

_LABEL = np.uint64(1)
# Takes start on 64-byte boundaries.
_ALIGN = 64
_EMPTY = np.empty(0, dtype=np.uint8)


class Scratch:
    """A stack of work arrays in one reusable buffer of at most limit
    bytes (module docstring). limit 0 makes a throwaway arena: every take
    is a fresh array. Not thread-safe: one thread uses an arena."""

    def __init__(self, limit: int = 0):
        self.limit = limit
        self._buffer = _EMPTY
        # Bytes in use, counting takes that did not fit, and the most in
        # use at once since the outermost frame began.
        self._top = 0
        self._peak = 0
        self._frames = []

    def take(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """An uninitialised C-contiguous array of this shape and dtype,
        valid until the frame that took it ends."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        start = self._top
        self._top += -(-nbytes // _ALIGN) * _ALIGN
        self._peak = max(self._peak, self._top)
        if self._top > self._buffer.size:
            return np.empty(shape, dtype)
        return self._buffer[start:start + nbytes].view(dtype).reshape(shape)

    def __enter__(self):
        self._frames.append(self._top)
        return self

    def __exit__(self, *exc):
        self._top = self._frames.pop()
        if not self._frames:
            grow = min(self._peak, self.limit)
            if grow > self._buffer.size:
                self._buffer = np.empty(grow, dtype=np.uint8)
            self._peak = self._top
        return False


def pair_counts(a, b, scratch=None):
    """Win/tie counts for equal-shape float64 face arrays, the dice along
    their last axis in any face order: wins = #{(i,j): a_i > b_j} and
    ties = #{(i,j): a_i == b_j}. Returns (wins, ties): ints for 1-D faces,
    int64 arrays over the leading axes otherwise. The merged keys are
    taken from scratch, a Scratch (a throwaway one when None).

    Each row of a and its row of b are written into one row of 2n keys,
    a's faces with the lowest mantissa bit set and b's with it cleared,
    and the keys are sorted as floats. With the bit cleared, the keys
    fall into buckets that are disjoint intervals ordered as the faces
    are, except that the buckets of -0.0 and +0.0 compare equal as
    floats. So when no two sorted neighbours are equal as floats once the
    bit is cleared, the faces are distinct, the sort orders them as their
    values do, and a face of a at position p stands above the p - k faces
    of b before it, k being the faces of a before it: the wins are the
    sum of a's positions less n(n-1)/2, and there are no ties. Any equal
    neighbours (equal faces, faces one ulp apart, or two faces among ±0
    and ±5e-324) send the row to a left and a right binary search of a's
    sorted faces in b's. The same float comparison makes a -0.0 face
    safe without folding it into +0.0 first.
    """
    if scratch is None:
        scratch = Scratch()
    n = a.shape[-1]
    a2, b2 = a.reshape(-1, n), b.reshape(-1, n)
    with scratch:
        keys = scratch.take((a2.shape[0], 2 * n), np.uint64)
        np.bitwise_or(a2.view(np.uint64), _LABEL, out=keys[:, :n])
        np.bitwise_and(b2.view(np.uint64), ~_LABEL, out=keys[:, n:])
        merged = keys.view(np.float64)
        merged.sort(axis=-1)
        from_a = np.bitwise_and(keys, _LABEL, out=scratch.take(keys.shape,
                                                               np.uint64))
        wins = from_a.view(np.int64) @ np.arange(2 * n) - n * (n - 1) // 2
        keys ^= from_a
        # One flat comparison; a match across the end of row r (its last
        # key against row r + 1's first) only sends row r to the exact
        # search. A set, not np.unique, whose first call imports numpy.ma.
        flat = merged.ravel()
        equal = np.equal(flat[1:], flat[:-1],
                         out=scratch.take((flat.size - 1,), np.bool_))
        tied_rows = set((np.flatnonzero(equal) // (2 * n)).tolist())
    ties = np.zeros(a2.shape[0], dtype=np.int64)
    for r in tied_rows:
        x, y = np.sort(a2[r]), np.sort(b2[r])
        lo = y.searchsorted(x, side="left").sum()
        wins[r] = lo
        ties[r] = y.searchsorted(x, side="right").sum() - lo
    wins = wins.reshape(a.shape[:-1])
    ties = ties.reshape(a.shape[:-1])
    if a.ndim == 1:
        return int(wins), int(ties)
    return wins, ties


def mcmc_pair_transfer(faces, ii, jj, uu):
    """The retired pair-transfer MCMC step: the discrete sampler draws
    exact dice by last-face rejection, so nothing in the package calls it.
    The name stays only because the benchmark's tracer (perfbench/spans.py)
    wraps it on every traced run; it goes once the tracer stops doing so."""
    raise NotImplementedError("the pair-transfer MCMC step is retired")
