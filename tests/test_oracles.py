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
    close_election_law_by_split,
    election_margin_law,
    election_outcome_distribution,
    enumerate_discrete_dice,
    kalai_majority_exact,
    lattice_multisets,
    lattice_triple_law,
    noise_vote_law,
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


@pytest.mark.parametrize("n,d", [(1, 1), (3, 1), (5, 1), (7, 1), (9, 3),
                                 (11, 1), (11, 5)])
def test_split_close_law_matches_margin_dp(n, d):
    """The split k=3 law against the exact margin dynamic program."""
    law, accept = close_election_law_by_split(n, d)
    exact, exact_accept = election_margin_law(n, 3, d)
    assert set(law) == set(exact)
    for idx, p in exact.items():
        assert law[idx] == pytest.approx(float(p), rel=1e-13)
    assert accept == pytest.approx(float(exact_accept), rel=1e-13)


def test_split_close_law_matches_box_sum_at_n301():
    law, accept = close_election_law_by_split(301, 3)
    ref, ref_accept = close_election_law(301, 3)
    assert set(law) == set(ref)
    for idx, p in ref.items():
        assert law[idx] == pytest.approx(p, rel=1e-12)
    assert accept == pytest.approx(ref_accept, rel=1e-12)


def test_split_close_law_rejects_even_n():
    with pytest.raises(ValueError):
        close_election_law_by_split(6, 2)


def test_election_margin_law_matches_enumeration():
    """k=3 against the composition enumeration, conditioned on every
    pair, on a subset of the pairs and not at all; k=4, n=5, d=1
    pinned."""
    assert election_margin_law(5, 3, 1) == election_outcome_distribution(
        5, d=1)
    assert election_margin_law(7, 3) == election_outcome_distribution(7)
    for n, subset in ((5, [0]), (7, [1, 2]), (7, [2, 0])):
        assert election_margin_law(n, 3, 1, subset) == (
            election_outcome_distribution(n, d=1, subset=subset))
    law, accept = election_margin_law(5, 4, 1)
    assert float(accept) == pytest.approx(0.1019362, abs=5e-8)
    assert len(law) == 64 and sum(law.values()) == 1


def test_noise_vote_law_endpoints():
    """rho=0 is three fair coins; rho=1 is three copies of one."""
    assert set(noise_vote_law(0).values()) == {Fraction(1, 8)}
    assert noise_vote_law(1) == {
        v: Fraction(1, 2) if len(set(v)) == 1 else 0
        for v in itertools.product((1, -1), repeat=3)}
    assert sum(noise_vote_law(Fraction(2, 5)).values()) == 1


def test_triplet_paradox_exact_noise_matches_enumeration():
    """m=2 at d=2 and rho=2/5 against all 8^6 vote-pattern profiles of
    six voters, each weighted by its product of pattern probabilities;
    m=3 at d=1 pinned."""
    law = noise_vote_law(Fraction(2, 5))
    patterns = np.array(list(law), dtype=np.int8)
    scaled = np.array([int(p * 1000) for p in law.values()],
                      dtype=np.int64)
    profiles = np.indices((8,) * 6).reshape(6, -1).T
    votes = patterns[profiles]
    weight = scaled[profiles].prod(axis=1)
    close = np.abs(votes.sum(axis=1)).max(axis=1) <= 2
    f = np.sign(np.sign(votes.reshape(-1, 2, 3, 3).sum(axis=2)).sum(axis=1))
    hit = close & (f == f[:, :1]).all(axis=1) & (f[:, 0] != 0)
    accepted, hits = int(weight[close].sum()), int(weight[hit].sum())
    assert triplet_paradox_exact(2, 2, Fraction(2, 5)) == (
        Fraction(hits, accepted), Fraction(accepted, 1000 ** 6))
    hit3, accept3 = triplet_paradox_exact(3, 1, Fraction(2, 5))
    assert float(hit3) == pytest.approx(0.256952, abs=5e-7)
    assert float(accept3) == pytest.approx(0.123117, abs=5e-7)


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


def test_lattice_triple_law_matches_enumeration():
    """n=4, against all 44^3 ordered triples of the 44 ordered dice, each
    margin counted face pair by face pair."""
    dice = np.array(enumerate_discrete_dice(4))
    h, weights = lattice_multisets(4)
    assert len(h) == 5 and weights.sum() == len(dice) == 44
    margins = np.sign(dice[:, None, :, None]
                      - dice[None, :, None, :]).sum(axis=(-1, -2))
    a, b, c = np.meshgrid(*3 * [np.arange(len(dice))], indexing="ij")
    triple = np.stack([margins[a, b], margins[b, c], margins[c, a]])
    cycle = (triple > 0).all(axis=0) | (triple < 0).all(axis=0)
    tied = (triple == 0).sum(axis=0)
    intransitive, tie_law = lattice_triple_law(4)
    assert intransitive == pytest.approx(cycle.mean(), abs=1e-12)
    np.testing.assert_allclose(
        tie_law, np.bincount(tied.ravel(), minlength=4) / tied.size,
        rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, intransitive, has_tie, pair_ties", [
    (5, 0.032600, 0.882748, 0.656106),
    (6, 0.058364, 0.769238, 0.491029),
    (7, 0.088916, 0.644134, 0.356578),
    (8, 0.118212, 0.523062, 0.255547),
])
def test_lattice_triple_law_table(n, intransitive, has_tie, pair_ties):
    """The multiset counts N and the class law at n=5..8 (four decimals of
    an earlier computation); a given pair ties with chance E[#tied]/3."""
    h, weights = lattice_multisets(n)
    assert len(h) == {5: 12, 6: 32, 7: 94, 8: 289}[n]
    assert (h.sum(axis=1) == n).all()
    assert (h @ np.arange(1, n + 1) == n * (n + 1) // 2).all()
    p_intransitive, tie_law = lattice_triple_law(n)
    assert p_intransitive == pytest.approx(intransitive, abs=5e-7)
    assert 1.0 - tie_law[0] == pytest.approx(has_tie, abs=5e-7)
    assert tie_law @ np.arange(4) / 3 == pytest.approx(pair_ties, abs=5e-7)
