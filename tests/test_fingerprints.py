"""Seeded category counts held to recorded literals, so a change that
moves the draws of a family shows in the test suite, not only in a
hand comparison of CLI outputs.

Each case runs estimate_categories on two blocks of trials, the second
partial, and holds the run's accepted count and the sha256 of its
per-category counts (little-endian int64) to the values recorded with
numpy 2.4.6. Every such case runs at one and at two workers
(INTRANS_THREADS), which must give the same counts. The CLI cases hold
the digests of the two files a seeded run writes, at the default worker
count. The counts depend on numpy's Generator algorithms (binomial,
multinomial, normal) and, for stationary dice, its FFT, which numpy may
change in a feature release, so on another numpy major.minor version the
cases are skipped with a message naming the recorded version; a change
that moves draws on purpose records the new values here and says why.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from intrans.cli import main
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
# accepted. The lattice and the conditioned uniform and shifted-exp pins
# were recorded again when the last-face samplers began to keep every
# accepted candidate of a rejection batch, which moved all their draws.
DICE_PINS = {
    "dice-discrete": ({"model": "discrete", "n": 20}, "9823b82e2765088b"),
    "dice-conditioned-uniform": ({"model": "conditioned", "dist": "uniform",
                                  "n": 20}, "a61b3c07bd251ff2"),
    "dice-conditioned-gaussian": ({"model": "conditioned",
                                   "dist": "gaussian", "n": 20},
                                  "37b2ba4c91791266"),
    "dice-conditioned-shifted-exp": ({"model": "conditioned",
                                      "dist": "shifted-exp", "n": 20},
                                     "e570c8e9b3e8fe4b"),
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

# Stationary dice at H=0.25, n=512: 200 triples in 20 chunks, whose counts
# are [0, 0, 22, 178, 0, ...]. 22 triples have one pair whose win
# direction disagrees with its CDF-sum direction, so a wrong agreement bit
# of a stationary pair moves them; the H=0.75 pin above puts all its 40
# triples in one category.
AGREEMENT_DICE_PINS = {
    "dice-stationary-n512-h025": ({"model": "stationary", "hurst": 0.25,
                                   "n": 512}, 200, "41cf4e71da74e2ea"),
}

# Lattice dice at n=250, the dice-lattice benchmark's size: 200 triples
# in 10 chunks of at most 21, whose counts are [151, 0, 0, 0, 47, 0, 0, 0,
# 0, 2, 0, 0]. The CLI pin below scores one triple, and its files did not
# move when every lattice draw did.
LATTICE_DICE_PINS = {
    "dice-discrete-n250": ({"model": "discrete", "n": 250}, 200,
                           "1b1c502bcd02882a"),
}

# The CLI's two files at seed 31 for the three benchmark workloads'
# commands (dice-lattice with one triple), a conditioned triplet run and
# conditioned elections at k = 2, 4 (one pair left out by --subset-excl)
# and 5: the sha256 of the CSV with its wall_time_ms column blanked, and
# of the sidecar without wall_time_ms, workers (the host's thread
# setting) and numpy_version (whose patch level the version skip
# ignores), re-dumped as the CLI dumps it.
CLI_PINS = {
    "dice-gaussian-n200": (("dice", "--model", "conditioned", "--dist",
                            "gaussian", "--n", "200", "--triples", "40"),
                           "1e04bfbf9c9d6504", "dc1b462b8911ef33"),
    "dice-stationary-n512": (("dice", "--model", "stationary", "--hurst",
                              "0.75", "--n", "512", "--triples", "40"),
                             "9147080a70227300", "d764534c918435d5"),
    "elections-close": (("elections", "--n", "301", "--d", "3", "--trials",
                         "4096"), "2f5cbad2185c30e5", "c656c7d835cf5678"),
    "triplet-close": (("triplet", "--n", "303", "--d", "9", "--trials",
                       "4096"), "ef89876e9f0a0d23", "9a09ce7d4f198901"),
    "dice-lattice-n250": (("dice", "--model", "discrete", "--n", "250",
                           "--triples", "1"),
                          "1f8d406170fd2a80", "34fdbffc231bd2ae"),
    "elections-k2-close": (("elections", "--k", "2", "--n", "301", "--d",
                            "3", "--trials", "4096"),
                           "05edcd7408231837", "e5563b7d1c043871"),
    "elections-k4-subset": (("elections", "--k", "4", "--n", "301", "--d",
                             "11", "--subset-excl", "2", "--trials",
                             "4096"),
                            "2912a393c6bb79fd", "eac4ceca53592a83"),
    "elections-k5-close": (("elections", "--k", "5", "--n", "301", "--d",
                            "21", "--trials", "4096"),
                           "66b1c421ce8f3c26", "3db89250b80d98bb"),
}

# The sidecar of each CLI_PINS run as written, byte for byte: the sha256
# of its text with the values of wall_time_ms, workers and numpy_version
# replaced by 0, so its indent, key order, float text and final newline
# are held too.
CLI_SIDECAR_PINS = {
    "dice-gaussian-n200": "244521973e3feeca",
    "dice-lattice-n250": "510641e40035846c",
    "dice-stationary-n512": "52e0f60efa22bc3d",
    "elections-close": "b099938da15200e4",
    "elections-k2-close": "75bd27f2abef7033",
    "elections-k4-subset": "ff3aa3acee3f0b52",
    "elections-k5-close": "0e67cc39e54552ee",
    "triplet-close": "01360f47c57171d3",
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


@recorded_numpy
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(AGREEMENT_DICE_PINS))
def test_seeded_dice_agreement_counts_are_pinned(case, threads, monkeypatch):
    monkeypatch.setenv("INTRANS_THREADS", threads)
    params, trials, digest = AGREEMENT_DICE_PINS[case]
    got, counts = _fingerprint("dice_triples", params, trials=trials)
    assert got == (trials, digest), counts


@recorded_numpy
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(LATTICE_DICE_PINS))
def test_seeded_lattice_dice_counts_are_pinned(case, threads, monkeypatch):
    monkeypatch.setenv("INTRANS_THREADS", threads)
    params, trials, digest = LATTICE_DICE_PINS[case]
    got, counts = _fingerprint("dice_triples", params, trials=trials)
    assert got == (trials, digest), counts


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@recorded_numpy
@pytest.mark.parametrize("case", sorted(CLI_PINS))
def test_cli_output_files_are_pinned(case, tmp_path):
    argv, csv_digest, meta_digest = CLI_PINS[case]
    out = tmp_path / "run.csv"
    assert main([*argv, "--seed", "31", "--out", str(out)]) == 0
    lines = out.read_bytes().decode().split("\r\n")
    csv_text = "\r\n".join(line.rpartition(",")[0] + "," if line else line
                            for line in lines)
    raw_meta = (tmp_path / "run.csv.meta.json").read_bytes().decode()
    meta = json.loads(raw_meta)
    for key in ("wall_time_ms", "workers", "numpy_version"):
        del meta[key]
    meta_text = json.dumps(meta, indent=2, sort_keys=True)
    assert (_digest(csv_text), _digest(meta_text)) == (csv_digest,
                                                       meta_digest), (
        csv_text, meta_text)
    masked = re.sub(r'^(  "(?:wall_time_ms|workers|numpy_version)": )'
                    r'[^,\n]*', r"\g<1>0", raw_meta, flags=re.MULTILINE)
    assert _digest(masked) == CLI_SIDECAR_PINS[case], masked
