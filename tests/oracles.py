"""Independent reference implementations used as test oracles.

Everything here is deliberately written with a different algorithm than
the package: brute-force loops instead of sorted counting, exhaustive
enumeration instead of sampling, subset dynamic programming instead of
branch and bound, quadrature instead of series, and arbitrary-precision
arithmetic instead of float tricks. Agreement between the two routes is
the point; nothing in this module may import from intrans internals
beyond plain data types.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import ndtr


# ------------------------------------------------------------- dice


def brute_pair_counts(a, b):
    """(wins, losses, ties) for die a against die b by the O(n^2) loop."""
    wins = losses = ties = 0
    for x in a:
        for y in b:
            if x > y:
                wins += 1
            elif x < y:
                losses += 1
            else:
                ties += 1
    return wins, losses, ties


def enumerate_discrete_dice(n):
    """All ordered face tuples in {1..n}^n with the conditioned sum
    n(n+1)/2. Exponential; intended for n <= 5."""
    target = n * (n + 1) // 2
    out = []

    def extend(prefix, total):
        depth = len(prefix)
        rest = n - depth
        lo, hi = total + rest, total + rest * n
        if not lo <= target <= hi:
            return
        if rest == 0:
            out.append(tuple(prefix))
            return
        for face in range(1, n + 1):
            prefix.append(face)
            extend(prefix, total + face)
            prefix.pop()

    extend([], 0)
    return out


def discrete_face_marginal(n):
    """Exact law of one face of a die uniform on {1..n}^n given the sum
    n(n+1)/2, as probabilities of faces 1..n: P(face = k) is proportional
    to the chance that the other n-1 i.i.d. uniform faces sum to
    n(n+1)/2 - k. That sum's law is built by n-1 convolutions with the
    uniform law on {1..n}, each a windowed difference of cumulative sums."""
    law = np.array([1.0])  # sum of zero faces; index = sum - #faces
    for _ in range(n - 1):
        cs = np.cumsum(np.concatenate([np.zeros(n), law, np.zeros(n - 1)]))
        law = (cs[n:] - cs[:-n]) / n
    rest = n * (n + 1) // 2 - np.arange(1, n + 1) - (n - 1)
    p = law[rest]
    return p / p.sum()


def slab_rejection_faces(n, sampler, rng, tol=0.01, draws=1):
    """Iid face vectors accepted when |sum| <= tol, without recentering:
    the distributional oracle for the exact-hyperplane sampler. sampler
    maps (rng, size) to iid draws."""
    rows = []
    while len(rows) < draws:
        x = sampler(rng, n)
        if abs(float(x.sum())) <= tol:
            rows.append(np.asarray(x, dtype=np.float64))
    return np.stack(rows)


# ------------------------------------------------------- tournaments


def held_karp_min_reversals(adj):
    """Minimum edge reversals to a transitive tournament by DP over
    vertex subsets: dp[S] = best back-edge count with S as the top of
    the ranking, extending one vertex at a time."""
    adj = np.asarray(adj, dtype=bool)
    k = adj.shape[0]
    beats_mask = [0] * k
    for v in range(k):
        for u in range(k):
            if adj[v, u]:
                beats_mask[v] |= 1 << u
    dp = [math.inf] * (1 << k)
    dp[0] = 0
    for s in range(1 << k):
        if dp[s] is math.inf:
            continue
        for v in range(k):
            bit = 1 << v
            if s & bit:
                continue
            # v joins below everything in s: each u in s that v beats is
            # an edge pointing up the ranking and must be reversed.
            cost = dp[s] + bin(beats_mask[v] & s).count("1")
            if cost < dp[s | bit]:
                dp[s | bit] = cost
    return int(dp[(1 << k) - 1])


def brute_cyclic_triangles(adj):
    adj = np.asarray(adj, dtype=bool)
    k = adj.shape[0]
    count = 0
    for i, j, l in itertools.combinations(range(k), 3):
        if (adj[i, j] and adj[j, l] and adj[l, i]) or \
           (adj[j, i] and adj[l, j] and adj[i, l]):
            count += 1
    return count


# --------------------------------------------------------- elections


def brute_margins(positions, pairs):
    """Pairwise margins of a ranking profile by explicit voter loops."""
    margins = []
    for a, b in pairs:
        m = 0
        for row in positions:
            m += 1 if row[a] < row[b] else -1
        margins.append(m)
    return margins


def election_outcome_distribution(n_voters, d=None, subset=None):
    """Exact conditional distribution of the 3-candidate tournament
    outcome under impartial culture, by enumerating voter-count
    compositions over the 6 rankings with multinomial weights.

    Returns ({category_index: Fraction}, acceptance Fraction) where the
    category index sets bit 2^(2-p) when the lex-earlier candidate wins
    pair p, matching the election_outcomes family.
    """
    perms = list(itertools.permutations(range(3)))
    pair_list = [(0, 1), (0, 2), (1, 2)]
    contrib = []
    for perm in perms:
        pos = {c: i for i, c in enumerate(perm)}
        contrib.append(tuple(1 if pos[i] < pos[j] else -1
                             for (i, j) in pair_list))
    check = range(3) if subset is None else sorted(set(subset))
    dist = {}
    total = Fraction(0)
    denom = Fraction(6) ** n_voters
    for cuts in itertools.combinations(range(n_voters + 5), 5):
        counts = []
        prev = -1
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(n_voters + 5 - prev - 1)
        margins = [sum(counts[r] * contrib[r][p] for r in range(6))
                   for p in range(3)]
        if d is not None and max(abs(margins[p]) for p in check) > d:
            continue
        weight = Fraction(math.factorial(n_voters))
        for c in counts:
            weight /= math.factorial(c)
        weight /= denom
        idx = sum((1 << (2 - p)) for p in range(3) if margins[p] > 0)
        dist[idx] = dist.get(idx, Fraction(0)) + weight
        total += weight
    return {k: v / total for k, v in dist.items()}, total


def iid_triple_class_distribution(n):
    """Exact (transitive, intransitive, tied) probabilities for a triple
    of independent n-face dice with a continuous face law, by enumerating
    the equally likely interleavings of the 3n order statistics."""
    labels = (0,) * n + (1,) * n + (2,) * n
    orders = set(itertools.permutations(labels))
    cls_counts = [0, 0, 0]
    for order in orders:
        ranks = {0: [], 1: [], 2: []}
        for rank, die in enumerate(order):
            ranks[die].append(rank)

        def margin(a, b):
            wins = sum(1 for x in ranks[a] for y in ranks[b] if x > y)
            return 2 * wins - n * n

        m_ab, m_bc, m_ca = margin(0, 1), margin(1, 2), margin(2, 0)
        if m_ab == 0 or m_bc == 0 or m_ca == 0:
            cls_counts[2] += 1
        elif (m_ab > 0) == (m_bc > 0) == (m_ca > 0):
            cls_counts[1] += 1
        else:
            cls_counts[0] += 1
    total = len(orders)
    return tuple(Fraction(c, total) for c in cls_counts)


# ---------------------------------------------------------- analysis


def gauss_hermite_phi_product(rho, nodes=96):
    """E[Phi(X) Phi(Y)] for correlated standard Gaussians by tensor-grid
    Gauss-Hermite quadrature (probabilists' weights)."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    grid_x = x[:, None]
    grid_y = rho * grid_x + math.sqrt(1.0 - rho * rho) * x[None, :]
    vals = ndtr(grid_x) * ndtr(grid_y)
    return float(w @ vals @ w / (2.0 * math.pi))


def identity_partial_sum_mp(kind, Q, dps=60):
    """The four series partial sums in arbitrary precision."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for q in range(Q + 1):
            c = mpmath.binomial(2 * q, q)
            if kind == "quarter":
                term = c / ((2 * q + 1) * mpmath.power(2, 2 * q)
                            * 2 * mpmath.pi)
            elif kind == "ramanujan_pi":
                term = c / ((2 * q + 1) * mpmath.power(2, 2 * q - 1))
            elif kind == "newton_pi":
                term = 3 * c / ((2 * q + 1) * mpmath.power(2, 4 * q))
            elif kind == "sixth":
                term = c / ((2 * q + 1) * mpmath.power(2, 4 * q)
                            * 2 * mpmath.pi)
            else:
                raise ValueError(kind)
            total += term
        return float(total)


def hermite_inner_products(max_degree, nodes=160):
    """Gram matrix of the probabilists' Hermite polynomials under the
    standard Gaussian, via quadrature; the oracle for orthogonality and
    the (m!) normalization."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    cols = []
    for m in range(max_degree + 1):
        coeffs = np.zeros(m + 1)
        coeffs[m] = 1.0
        cols.append(np.polynomial.hermite_e.hermeval(x, coeffs))
    cols = np.stack(cols)
    return (cols * w) @ cols.T / math.sqrt(2.0 * math.pi)


def conditioned_gaussian_cov(n):
    """Exact covariance matrix of n iid standard Gaussians conditioned on
    a zero sum: (I - J/n)."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


# ----------------------------------------------------------- triplets


def table1_by_direct_count():
    """Joint tallies of (w_ab, w_bc) for one three-voter triplet, counted
    over the 216 equally likely ranking assignments, with the per-voter
    sign pairs expanded from the six strict orders of three candidates."""
    sign_pairs = []
    for order in itertools.permutations((0, 1, 2)):
        pos = {c: i for i, c in enumerate(order)}
        sign_pairs.append((1 if pos[0] < pos[1] else -1,
                           1 if pos[1] < pos[2] else -1))
    counts = {}
    for trio in itertools.product(sign_pairs, repeat=3):
        w_ab = sum(p[0] for p in trio)
        w_bc = sum(p[1] for p in trio)
        counts[(w_ab, w_bc)] = counts.get((w_ab, w_bc), 0) + 1
    return {key: Fraction(val, 216) for key, val in counts.items()}


def t_rho_noisy_copy_mc(votes, rho, copies, rng):
    """E[f(noisy copy)] for the triplet-majority rule by direct noisy
    resampling of the vote vector (flip probability (1-rho)/2)."""
    votes = np.asarray(votes)
    m = votes.size // 3
    flips = rng.random((copies, votes.size)) < (1.0 - rho) / 2.0
    noisy = np.where(flips, -votes, votes)
    w = noisy.reshape(copies, m, 3).sum(axis=2)
    f = np.sign(np.sign(w).sum(axis=1))
    return float(f.mean()), float(f.std(ddof=1) / math.sqrt(copies))


def triplet_paradox_by_profiles(n_votes, d, trials, rng):
    """Close-election paradox frequency computed the slow way: explicit
    uniform rankings per voter, explicit cyclic vote vectors, explicit
    triplet majorities. Returns (hits, accepted)."""
    hits = accepted = 0
    m = n_votes // 3
    for _ in range(trials):
        ranks = np.argsort(rng.random((n_votes, 3)), axis=1)
        pos = np.argsort(ranks, axis=1)
        x_ab = np.where(pos[:, 0] < pos[:, 1], 1, -1)
        x_bc = np.where(pos[:, 1] < pos[:, 2], 1, -1)
        x_ca = np.where(pos[:, 2] < pos[:, 0], 1, -1)
        margins = (int(x_ab.sum()), int(x_bc.sum()), int(x_ca.sum()))
        if d is not None and max(abs(v) for v in margins) > d:
            continue
        accepted += 1
        fs = []
        for x in (x_ab, x_bc, x_ca):
            w = x.reshape(m, 3).sum(axis=1)
            fs.append(int(np.sign(np.sign(w).sum())))
        if fs[0] == fs[1] == fs[2]:
            hits += 1
    return hits, accepted


def orthant_probability_mc(corr, draws, rng):
    """P[all coordinates positive] for a centered Gaussian vector with
    the given correlation matrix, by direct sampling."""
    chol = np.linalg.cholesky(np.asarray(corr, dtype=np.float64))
    z = rng.standard_normal((draws, chol.shape[0])) @ chol.T
    hits = int(np.count_nonzero((z > 0).all(axis=1)))
    p = hits / draws
    return p, math.sqrt(p * (1.0 - p) / draws)
