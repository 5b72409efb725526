"""The pairwise win-count kernel, in numpy, and the names the benchmark's
tracer wraps.

Every kernel is a deterministic transform of its inputs (randomness is
always drawn by the caller). Callers look the kernels up as attributes
of this module (``_accel.pair_counts``), so a profiler can wrap them in
place. ACTIVE_IMPL names the implementation for run metadata.
"""

import numpy as np

ACTIVE_IMPL = "python"


def pair_counts(a_sorted, b_sorted):
    """Win/tie counts for equal-shape face arrays sorted along their last
    axis, by binary search of each row of a in its row of b.

    Returns (wins, ties) with wins = #{(i,j): a_i > b_j} and
    ties = #{(i,j): a_i == b_j}: ints for 1-D faces, int64 arrays over
    the leading axes otherwise.
    """
    n = a_sorted.shape[-1]
    a, b = a_sorted.reshape(-1, n), b_sorted.reshape(-1, n)
    lo = np.empty(a.shape, dtype=np.int64)
    hi = np.empty(a.shape, dtype=np.int64)
    for r in range(a.shape[0]):
        lo[r] = b[r].searchsorted(a[r], side="left")
        hi[r] = b[r].searchsorted(a[r], side="right")
    wins = lo.sum(axis=1).reshape(a_sorted.shape[:-1])
    ties = (hi - lo).sum(axis=1).reshape(a_sorted.shape[:-1])
    if a_sorted.ndim == 1:
        return int(wins), int(ties)
    return wins, ties


def mcmc_pair_transfer(faces, ii, jj, uu):
    """The retired pair-transfer MCMC step: the discrete sampler draws
    exact dice by last-face rejection, so nothing in the package calls it.
    The name stays only because the benchmark's tracer (perfbench/spans.py)
    wraps it on every traced run; it goes once the tracer stops doing so."""
    raise NotImplementedError("the pair-transfer MCMC step is retired")
