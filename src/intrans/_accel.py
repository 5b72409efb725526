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
    """Win/tie counts for sorted face arrays.

    Returns (wins, ties) with wins = #{(i,j): a_i > b_j} and
    ties = #{(i,j): a_i == b_j}.
    """
    lo = np.searchsorted(b_sorted, a_sorted, side="left")
    hi = np.searchsorted(b_sorted, a_sorted, side="right")
    return int(lo.sum()), int((hi - lo).sum())


def mcmc_pair_transfer(faces, ii, jj, uu):
    """Run sum-preserving pair-transfer moves on an integer face vector.

    faces is modified in place. Step t resamples the pair (ii[t], jj[t])
    uniformly among all integer splits of their current sum that keep both
    coordinates in [1, n]. uu[t] in [0, 1) selects the split.

    The package no longer calls this: the discrete sampler draws exact
    dice by last-face rejection. It stays only because the benchmark's
    tracer (perfbench/spans.py) wraps it by name on every traced run, and
    goes once the benchmark stops doing so.
    """
    n = faces.shape[0]
    for t in range(ii.shape[0]):
        i = ii[t]
        j = jj[t]
        s = faces[i] + faces[j]
        lo = s - n if s - n > 1 else 1
        hi = n if n < s - 1 else s - 1
        x = lo + int(uu[t] * (hi - lo + 1))
        if x > hi:  # u*width can round up to width at the very top of [0,1)
            x = hi
        faces[i] = x
        faces[j] = s - x
