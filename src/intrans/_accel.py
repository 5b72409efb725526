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
    """The retired pair-transfer MCMC step: the discrete sampler draws
    exact dice by last-face rejection, so nothing in the package calls it.
    The name stays only because the benchmark's tracer (perfbench/spans.py)
    wraps it on every traced run; it goes once the tracer stops doing so."""
    raise NotImplementedError("the pair-transfer MCMC step is retired")
