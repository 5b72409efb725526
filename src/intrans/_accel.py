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
"""

import numpy as np

ACTIVE_IMPL = "python"

_LABEL = np.uint64(1)


def pair_counts(a, b):
    """Win/tie counts for equal-shape float64 face arrays, the dice along
    their last axis in any face order: wins = #{(i,j): a_i > b_j} and
    ties = #{(i,j): a_i == b_j}. Returns (wins, ties): ints for 1-D faces,
    int64 arrays over the leading axes otherwise.

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
    n = a.shape[-1]
    a2, b2 = a.reshape(-1, n), b.reshape(-1, n)
    keys = np.empty((a2.shape[0], 2 * n), dtype=np.uint64)
    np.bitwise_or(a2.view(np.uint64), _LABEL, out=keys[:, :n])
    np.bitwise_and(b2.view(np.uint64), ~_LABEL, out=keys[:, n:])
    merged = keys.view(np.float64)
    merged.sort(axis=-1)
    from_a = keys & _LABEL
    wins = from_a.view(np.int64) @ np.arange(2 * n) - n * (n - 1) // 2
    keys ^= from_a
    # One flat comparison; a match across the end of row r (its last key
    # against row r + 1's first) only sends row r to the exact search.
    # A set, not np.unique, whose first call imports numpy.ma.
    flat = merged.ravel()
    ties = np.zeros(a2.shape[0], dtype=np.int64)
    for r in set((np.flatnonzero(flat[1:] == flat[:-1]) // (2 * n)).tolist()):
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
