"""Seeded category counts held to recorded literals, so a change that
moves the draws of a family shows in the test suite, not only in a
hand comparison of CLI outputs.

Each case runs estimate_categories on two blocks of trials, the second
partial, and holds the run's accepted count and the sha256 of its
per-category counts (little-endian int64) to the values recorded with
numpy 2.4.6. The counts depend on numpy's Generator algorithms
(binomial, multinomial), whose streams numpy may change in a feature
release, so on another numpy major.minor version the cases are skipped
with a message naming the recorded version; a change that moves draws
on purpose records the new values here and says why.
"""

import hashlib

import numpy as np
import pytest

from intrans.mc import BLOCK_SIZE, ExperimentSpec, estimate_categories

RECORDED_WITH = "2.4.6"

# (family, params, conditioning, accepted, sha256 of the counts[:16])
PINS = {
    "election-k3-close": ("election_outcomes", {"n": 301}, {"d": 3},
                          27, "49136b3845b96680"),
    "election-k4-subset": ("election_outcomes", {"n": 301, "k": 4},
                           {"d": 5, "subset": [1, 5]},
                           311, "0c47f8c108c216c2"),
    "election-k5-close": ("election_outcomes", {"n": 301, "k": 5},
                          {"d": 21}, 641, "67c52ba5f1da2ba4"),
    # more close values than a block has trials: no stage-1 table
    "election-huge-n": ("election_outcomes", {"n": 10 ** 8 + 1},
                        {"d": 9001}, 1184, "2bb4e7f2124051dd"),
    "election-k5": ("election_outcomes", {"n": 301, "k": 5}, None,
                    4196, "6af0eb6772a567b1"),
    "triplet-paradox": ("triplet_paradox", {"n": 303}, None,
                        4196, "4beaf8765cacb582"),
    "triplet-noise": ("triplet_noise", {"n": 303, "rho": 0.9}, None,
                      4196, "5141ea4df5bc6b46"),
    "triplet-paradox-close": ("triplet_paradox", {"n": 303}, {"d": 9},
                              437, "abdae442315df196"),
    "triplet-noise-close": ("triplet_noise", {"n": 303, "rho": 0.9},
                            {"d": 9}, 794, "9e629b61809aa329"),
}


@pytest.mark.skipif(
    np.__version__.split(".")[:2] != RECORDED_WITH.split(".")[:2],
    reason="counts recorded with numpy %s" % RECORDED_WITH)
@pytest.mark.parametrize("case", sorted(PINS))
def test_seeded_counts_are_pinned(case):
    family, params, conditioning, accepted, digest = PINS[case]
    counts = estimate_categories(ExperimentSpec(
        family=family, params=params, trials=BLOCK_SIZE + 100, seed=31,
        conditioning=conditioning))
    got = hashlib.sha256(
        np.asarray(counts.counts, dtype="<i8").tobytes()).hexdigest()
    assert (counts.accepted, got[:16]) == (accepted, digest), \
        counts.counts.tolist()
