"""Seeded category counts held to recorded literals, so a change that
moves the draws of a family shows in the test suite, not only in a
hand comparison of CLI outputs.

Each case runs estimate_categories on two blocks of trials, the second
partial, and holds the run's accepted count and the sha256 of its
per-category counts (little-endian int64) to the values recorded with
numpy 2.4.6. Every case runs at one and at two workers
(INTRANS_THREADS), which must give the same counts. The counts depend on
numpy's Generator algorithms (binomial, multinomial, normal) and, for
stationary dice, its FFT, which numpy may change in a feature release,
so on another numpy major.minor version the cases are skipped with a
message naming the recorded version; a change that moves draws on
purpose records the new values here and says why.
"""

import hashlib

import numpy as np
import pytest

from intrans.mc import BLOCK_SIZE, ExperimentSpec, estimate_categories

RECORDED_WITH = "2.4.6"

# (family, params, conditioning, accepted, sha256 of the counts[:16])
PINS = {
    "election-k2": ("election_outcomes", {"n": 301, "k": 2}, None,
                    4196, "9a1644e65a4df36c"),
    "election-k2-close": ("election_outcomes", {"n": 301, "k": 2},
                          {"d": 3}, 738, "341ddbc68cd9b389"),
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


# dice_triples params and the sha256 of the counts[:16]; every triple is
# accepted.
DICE_PINS = {
    "dice-discrete": ({"model": "discrete", "n": 20}, "1badef2d008c9a9b"),
    "dice-conditioned-uniform": ({"model": "conditioned", "dist": "uniform",
                                  "n": 20}, "a82d61bac899993c"),
    "dice-conditioned-gaussian": ({"model": "conditioned",
                                   "dist": "gaussian", "n": 20},
                                  "37b2ba4c91791266"),
    "dice-conditioned-shifted-exp": ({"model": "conditioned",
                                      "dist": "shifted-exp", "n": 20},
                                     "6a4929bd9b34684e"),
    "dice-iid-gaussian": ({"model": "iid", "dist": "gaussian", "n": 20},
                          "c6547c7209d1f4dd"),
    "dice-stationary": ({"model": "stationary", "hurst": 0.75, "n": 32},
                        "c38fbdb233907f02"),
}

# The dice-continuous benchmark's two commands at seed 31: 40 triples, in
# 2 chunks at n=200 and 4 at n=512. With two workers the dice kernel's
# helper thread draws the normals of the n=512 block's last three chunks;
# the n=200 block's second chunk is too small to hand over. Recorded
# before the helper existed.
CHUNKED_DICE_PINS = {
    "dice-gaussian-n200": ({"model": "conditioned", "dist": "gaussian",
                            "n": 200}, "4f538430055f0469"),
    "dice-stationary-n512": ({"model": "stationary", "hurst": 0.75,
                              "n": 512}, "e1d5642938433b97"),
}

recorded_numpy = pytest.mark.skipif(
    np.__version__.split(".")[:2] != RECORDED_WITH.split(".")[:2],
    reason="counts recorded with numpy %s" % RECORDED_WITH)


def _fingerprint(family, params, conditioning=None, trials=BLOCK_SIZE + 100):
    """The accepted count and the digest prefix of a seeded run, by
    default of two blocks."""
    counts = estimate_categories(ExperimentSpec(
        family=family, params=params, trials=trials, seed=31,
        conditioning=conditioning))
    got = hashlib.sha256(
        np.asarray(counts.counts, dtype="<i8").tobytes()).hexdigest()
    return (counts.accepted, got[:16]), counts.counts.tolist()


@recorded_numpy
@pytest.mark.parametrize("case", sorted(PINS))
def test_seeded_counts_are_pinned(case, monkeypatch):
    family, params, conditioning, accepted, digest = PINS[case]
    for threads in ("1", "2"):
        monkeypatch.setenv("INTRANS_THREADS", threads)
        got, counts = _fingerprint(family, params, conditioning)
        assert got == (accepted, digest), (threads, counts)


@recorded_numpy
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(DICE_PINS))
def test_seeded_dice_counts_are_pinned(case, threads, monkeypatch):
    monkeypatch.setenv("INTRANS_THREADS", threads)
    params, digest = DICE_PINS[case]
    got, counts = _fingerprint("dice_triples", params)
    assert got == (BLOCK_SIZE + 100, digest), counts


@recorded_numpy
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CHUNKED_DICE_PINS))
def test_seeded_chunked_dice_counts_are_pinned(case, threads, monkeypatch):
    monkeypatch.setenv("INTRANS_THREADS", threads)
    params, digest = CHUNKED_DICE_PINS[case]
    got, counts = _fingerprint("dice_triples", params, trials=40)
    assert got == (40, digest), counts
