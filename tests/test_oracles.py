"""The oracles themselves: independence from the package, and the fast
exact laws against brute-force enumeration where both can run."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import (
    close_election_law,
    election_outcome_distribution,
    kalai_majority_exact,
    triplet_paradox_exact,
)


def test_oracles_import_nothing_from_intrans():
    tree = ast.parse(Path(oracles.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules
    assert [m for m in modules if m.split(".")[0] == "intrans"] == []


def _kalai_by_enumeration(g, n):
    """1/4 (1 - 3 E[g(x) g(y)]) summed over every vote vector x and every
    flip pattern, a pattern with k flips weighted (1/3)^k (2/3)^(n-k)."""
    cube = np.array(list(itertools.product((1, -1), repeat=n)))
    flipped = (cube == -1).sum(axis=1)
    weight = (1.0 / 3.0) ** flipped * (2.0 / 3.0) ** (n - flipped)
    gy = g((cube[:, None, :] * cube[None, :, :]).reshape(-1, n))
    corr = g(cube) @ gy.reshape(len(cube), len(cube)) @ weight / len(cube)
    return 0.25 * (1.0 - 3.0 * corr)


def _majority(rows):
    return np.sign(rows.sum(axis=1))


def _triplet_composition(rows):
    return np.sign(np.sign(rows.reshape(len(rows), -1, 3).sum(axis=2))
                   .sum(axis=1))


def test_kalai_oracle_matches_enumeration():
    assert kalai_majority_exact(3, 1.0 / 3.0) == pytest.approx(
        1.0 / 18.0, abs=1e-12)
    assert kalai_majority_exact(5, 1.0 / 3.0) == pytest.approx(
        5.0 / 72.0, abs=1e-12)
    for n in (3, 5):
        assert _kalai_by_enumeration(_majority, n) == pytest.approx(
            kalai_majority_exact(n, 1.0 / 3.0), abs=1e-12)
    # Three triplets: majority of three maj3 values, each flipped with
    # probability 10/27 when its triple is 1/3-flipped.
    assert _kalai_by_enumeration(_triplet_composition, 9) == pytest.approx(
        kalai_majority_exact(3, 10.0 / 27.0), abs=1e-12)


def test_close_election_law_matches_enumeration():
    law, accept = close_election_law(25, 3)
    exact, exact_accept = election_outcome_distribution(25, d=3)
    assert set(law) == set(exact)
    for idx, p in exact.items():
        assert law[idx] == pytest.approx(float(p), abs=1e-12)
    assert accept == pytest.approx(float(exact_accept), abs=1e-12)


def test_close_election_law_at_n301():
    law, accept = close_election_law(301, 3)
    for idx in (0, 1, 3, 4, 6, 7):
        assert law[idx] == pytest.approx(0.1262145, abs=5e-8)
    for idx in (2, 5):
        assert law[idx] == pytest.approx(0.1213566, abs=5e-8)
    assert accept == pytest.approx(0.0077745, abs=5e-8)
    assert 1.0 - law[2] - law[5] == pytest.approx(0.7572869, abs=5e-8)


def test_triplet_paradox_exact_matches_enumeration():
    """m=1 with no binding margin is the three-voter cycle rate 1/18;
    m=2 at d=2 against all 6^6 ranking profiles of six voters."""
    assert triplet_paradox_exact(1, 3) == (Fraction(1, 18), 1)
    cyclic = [tuple(1 if p.index(a) < p.index(b) else -1
                    for a, b in ((0, 1), (1, 2), (2, 0)))
              for p in itertools.permutations(range(3))]
    hits = accepted = 0
    for profile in itertools.product(cyclic, repeat=6):
        votes = np.array(profile)
        if np.abs(votes.sum(axis=0)).max() > 2:
            continue
        accepted += 1
        f = np.sign(np.sign(votes.reshape(2, 3, 3).sum(axis=1)).sum(axis=0))
        hits += bool((f == f[0]).all() and f[0] != 0)
    assert triplet_paradox_exact(2, 2) == (Fraction(hits, accepted),
                                           Fraction(accepted, 6 ** 6))
