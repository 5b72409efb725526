"""Independent reference implementations used as test oracles.

Everything here is deliberately written with a different algorithm than
the package: brute-force loops instead of sorted counting, exhaustive
enumeration instead of sampling, subset dynamic programming instead of
branch and bound, quadrature instead of series, and arbitrary-precision
arithmetic instead of float tricks. Agreement between the two routes is
the point; nothing in this module imports from intrans (a test parses
this file to hold it to that).
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


def lattice_multisets(n):
    """The multisets of {1..n} of size n with sum n(n+1)/2, as an (N, n)
    array of face counts (column k counts face k+1), and the number of
    ordered dice n!/prod c! of each."""
    target = n * (n + 1) // 2
    rows = []

    def extend(counts, size, total):
        face = len(counts) + 1
        if face > n:
            if size == n and total == target:
                rows.append(list(counts))
            return
        for c in range(n - size + 1):
            if total + c * face > target:
                break
            counts.append(c)
            extend(counts, size + c, total + c * face)
            counts.pop()

    extend([], 0, 0)
    weights = [math.factorial(n) // math.prod(math.factorial(c) for c in row)
               for row in rows]
    return np.array(rows), np.array(weights)


def lattice_triple_law(n):
    """Exact law of three independent lattice dice (uniform on {1..n}^n
    given the sum n(n+1)/2): (P(intransitive), tie_law), where tie_law[k]
    is the chance that exactly k of the three pairs tie.

    Over the multisets, M = H S H^T holds every margin (H the face
    counts, S_xy = sign(x - y)); with D = diag(w) the multiset
    probabilities, B = [M > 0] and T = [M = 0], P(intransitive) =
    2 tr((DB)^3). Inclusion-exclusion over the three pairs, which pairwise
    share a die, gives tie_law from t1 = w^T T w, t2 = sum_b w_b (Tw)_b^2
    and t3 = tr((DT)^3). Intended for n <= 10."""
    h, weights = lattice_multisets(n)
    faces = np.arange(n)
    M = h @ np.sign(faces[:, None] - faces[None, :]) @ h.T
    w = weights / weights.sum()
    DB = w[:, None] * (M > 0)
    DT = w[:, None] * (M == 0)
    intransitive = 2.0 * float(np.trace(DB @ DB @ DB))
    Tw = (M == 0) @ w
    t1, t2 = float(w @ Tw), float(w @ (Tw * Tw))
    t3 = float(np.trace(DT @ DT @ DT))
    tie_law = np.array([0.0, 3 * t1 - 6 * t2 + 3 * t3, 3 * t2 - 3 * t3, t3])
    tie_law[0] = 1.0 - tie_law[1:].sum()
    return intransitive, tie_law


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


def random_tournament(k, rng):
    """Orientation vector over the lex pairs (itertools.combinations
    order) of a uniformly random tournament on k vertices: each pair's
    first vertex wins with probability 1/2, independently."""
    y = np.where(rng.random(k * (k - 1) // 2) < 0.5, 1, -1)
    return y.astype(np.int8)


def transitive_tournament(k, order=None):
    """Orientation vector over the lex pairs of the transitive tournament
    in which earlier vertices of order (default 0..k-1) beat later ones."""
    rank = {v: r for r, v in enumerate(range(k) if order is None else order)}
    return np.array([1 if rank[i] < rank[j] else -1
                     for i, j in itertools.combinations(range(k), 2)],
                    dtype=np.int8)


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


def close_election_law(n_voters, d):
    """The same conditional outcome law as election_outcome_distribution,
    in floats and fast enough for n in the hundreds: for each box point
    s of margins (ab, ac, bc) in [-d, d]^3 with the voters' parity, take
    every value of the first two ranking counts and solve the 4x4 system
    (three margins plus the total, determinant 8) for the other four;
    keep the non-negative integer solutions and sum their multinomial
    weights in log space.

    Returns ({category_index: float}, acceptance float), indexed like
    election_outcome_distribution.
    """
    from scipy.special import gammaln, logsumexp

    pair_list = [(0, 1), (0, 2), (1, 2)]
    signs = np.array([[1 if perm.index(i) < perm.index(j) else -1
                       for i, j in pair_list]
                      for perm in itertools.permutations(range(3))])
    system = np.vstack([signs.T, np.ones(6, dtype=np.int64)])
    free, solved = system[:, :2], system[:, 2:]
    det = int(round(np.linalg.det(solved)))
    adjugate = np.rint(np.linalg.inv(solved) * det).astype(np.int64)
    u, v = np.triu_indices(n_voters + 1)
    v = v - u  # now every (u, v) with u + v <= n_voters, once
    base = free @ np.vstack([u, v])
    log_norm = math.lgamma(n_voters + 1) - n_voters * math.log(6)
    box = [m for m in range(-d, d + 1) if (m - n_voters) % 2 == 0]
    logs = {}
    for s in itertools.product(box, repeat=3):
        scaled = adjugate @ (np.array([*s, n_voters])[:, None] - base)
        ok = ((scaled % det == 0) & (scaled >= 0)).all(axis=0)
        counts = np.vstack([u[ok], v[ok], scaled[:, ok] // det])
        idx = sum((1 << (2 - p)) for p in range(3) if s[p] > 0)
        logs.setdefault(idx, []).append(
            log_norm - gammaln(counts + 1).sum(axis=0))
    by_idx = {k: logsumexp(np.concatenate(parts))
              for k, parts in logs.items()}
    log_total = logsumexp(list(by_idx.values()))
    return ({k: math.exp(lw - log_total) for k, lw in by_idx.items()},
            math.exp(log_total))


def _centred_binomial_pmf(trials, values):
    """P(2 Bin(trials, 1/2) - trials = v) at each integer v of values."""
    values = np.asarray(values)
    heads2 = values + trials
    ok = (heads2 % 2 == 0) & (np.abs(values) <= trials)
    log_pmf = [math.lgamma(trials + 1) - math.lgamma(h + 1)
               - math.lgamma(trials - h + 1) - trials * math.log(2)
               for h in (heads2[ok] // 2).tolist()]
    pmf = np.zeros(values.shape)
    pmf[ok] = np.exp(log_pmf)
    return pmf


def close_election_law_by_split(n_voters, d):
    """The conditional outcome law of close_election_law for odd n, in
    O(W d) by splitting each voter's ranking of (a, b, c) in two: the
    fair sign s of a against b, and the place of c (top, middle or
    bottom, uniform and independent of s).

    With M the middle voters, x the sum of s over them, y the sum of s
    over the other n - M, and z their bottoms less their tops, the
    margins are ab = x + y, ac = z + x and bc = z - x. M is Bin(n, 1/3)
    and, given M, x, y and z are independent centred binomials (x over M
    fair signs, y and z over n - M). "Every margin within d" is
    |x + y| <= d and |x| + |z| <= d; for each (M, x) the y and z parts
    are differences of cumulative sums over |y| <= 2d and |z| <= d. M
    runs over the W values within 14 standard deviations of n/3.

    Returns ({category_index: float}, acceptance float), indexed like
    election_outcome_distribution.
    """
    if n_voters % 2 == 0:
        raise ValueError("n_voters must be odd: no margin may tie")
    grid = np.arange(-2 * d - 1, 2 * d + 2)  # the y and z values used

    def between(cum, lo, hi):
        """P(lo <= v <= hi) from cum[i] = P(v < grid[i]), elementwise."""
        lo = np.clip(lo - grid[0], 0, grid.size)
        hi = np.clip(hi - grid[0] + 1, 0, grid.size)
        return np.where(hi > lo, cum[hi] - cum[np.minimum(lo, hi)], 0.0)

    law = np.zeros(8)
    # M outside 14 sd of n/3 has probability below 2 exp(-2 (14 sd)^2 / n)
    # = 2 exp(-87) by Hoeffding, far under a double's rounding of the law.
    mean, sd = n_voters / 3.0, math.sqrt(2.0 * n_voters / 9.0)
    lo_m = max(0, math.floor(mean - 14 * sd))
    hi_m = min(n_voters, math.ceil(mean + 14 * sd))
    for m in range(lo_m, hi_m + 1):
        x = np.arange(-d, d + 1)
        px = _centred_binomial_pmf(m, x)
        x, px = x[px > 0], px[px > 0]
        if not x.size:
            continue
        log_pm = (math.lgamma(n_voters + 1) - math.lgamma(m + 1)
                  - math.lgamma(n_voters - m + 1) - m * math.log(3)
                  - (n_voters - m) * math.log(1.5))
        weight = math.exp(log_pm) * px
        cum = np.concatenate(
            ([0.0], np.cumsum(_centred_binomial_pmf(n_voters - m, grid))))
        ab = {1: between(cum, 1 - x, d - x), 0: between(cum, -d - x, -1 - x)}
        ax, room = np.abs(x), d - np.abs(x)
        inner = np.minimum(ax - 1, room)
        # c's part: z above |x| sets ac and bc, below -|x| neither, and
        # |z| < |x| sets ac when x > 0 and bc when x < 0.
        parts = ((3, between(cum, ax + 1, room)),
                 (0, between(cum, -room, -ax - 1)),
                 (np.where(x > 0, 2, 1), between(cum, -inner, inner)))
        for bit, py in ab.items():
            for idx, pz in parts:
                np.add.at(law, 4 * bit + np.broadcast_to(idx, x.shape),
                          weight * py * pz)
    total = float(law.sum())
    return ({k: float(p / total) for k, p in enumerate(law) if p > 0},
            total)


def election_margin_law(n_voters, k, d=None, subset=None):
    """Exact tournament outcome law of a k-candidate impartial-culture
    election, conditioned on the margins of the lex pairs in subset
    (every pair when None) being at most d, by
    dynamic programming over voters: a map from the margin vector over
    the lex pairs to the integer number of ranking sequences reaching
    it, one voter (k! rankings) at a time.

    Returns ({category_index: Fraction}, acceptance Fraction), the index
    setting bit 2^(P-1-p) when the lex-earlier candidate wins pair p of
    P, as election_outcome_distribution does for k=3.
    """
    pair_list = list(itertools.combinations(range(k), 2))
    steps = []
    for perm in itertools.permutations(range(k)):
        pos = {c: i for i, c in enumerate(perm)}
        steps.append(tuple(1 if pos[i] < pos[j] else -1
                           for i, j in pair_list))
    check = range(len(pair_list)) if subset is None else sorted(set(subset))
    ways = {(0,) * len(pair_list): 1}
    for _ in range(n_voters):
        step = {}
        for margins, count in ways.items():
            for signs in steps:
                key = tuple(m + s for m, s in zip(margins, signs))
                step[key] = step.get(key, 0) + count
        ways = step
    dist = {}
    for margins, count in ways.items():
        if d is not None and max(abs(margins[p]) for p in check) > d:
            continue
        idx = sum(1 << (len(pair_list) - 1 - p)
                  for p, m in enumerate(margins) if m > 0)
        dist[idx] = dist.get(idx, 0) + count
    total = sum(dist.values())
    return ({idx: Fraction(c, total) for idx, c in dist.items()},
            Fraction(total, math.factorial(k) ** n_voters))


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


def hermite_variance_series_mp(n, hurst, Q, dps=40):
    """(Var W, one third of the cyclic-sum variance) for two, resp.
    three, independent stationary Gaussian dice with fBm-increment
    correlations: the paper's Hermite series summed term by term through
    q = Q in arbitrary precision.

    Var W = sum_q c_q sum_{u,v} (n-|u|)(n-|v|) (rho(u)+rho(v))^{2q+1} with
    c_q = d_{2q+1}^2 (2q+1)! = C(2q,q) / ((2q+1) 4^q 2 pi). The cyclic
    series sums c_q sum_{v=1}^{2q} C(2q+1,v) S_v S_{2q+1-v} over q >= 1,
    S_p = n 2^{-p} + R_p with R_p the power sum over nonzero lags.
    The parts that hold only lag zero converge like q^{-3/2}, so they
    enter in closed form: the u = v = 0 cell of Var W is n^2/4 (the
    quarter identity), and the pure n^2 part of the cyclic series is
    n^2/12 (the quarter identity less the sixth). What is left converges
    geometrically, as |rho(u)| < 1/2 off lag zero."""
    with mpmath.workdps(dps):
        h2 = 2 * mpmath.mpf(hurst)

        def rho(k):
            k = abs(k)
            return (abs(k + 1) ** h2 + abs(k - 1) ** h2 - 2 * k ** h2) / 4

        # Lags |u| < n folded onto u >= 0: weight (n-u), multiplicity 2
        # off lag zero.
        folded = [((1 if u == 0 else 2) * (n - u), rho(u)) for u in range(n)]
        coef = [mpmath.binomial(2 * q, q)
                / ((2 * q + 1) * mpmath.power(4, q) * 2 * mpmath.pi)
                for q in range(Q + 1)]
        var_w = mpmath.mpf(n) ** 2 / 4
        for i, (wu, ru) in enumerate(folded):
            for j, (wv, rv) in enumerate(folded):
                if i == j == 0:
                    continue
                x = ru + rv
                x2, power, cell = x * x, x, mpmath.mpf(0)
                for c in coef:
                    cell += c * power
                    power *= x2
                var_w += wu * wv * cell

        R = [mpmath.fsum(w * r ** p for w, r in folded[1:])
             for p in range(2 * Q + 2)]
        half = [mpmath.power(2, -p) for p in range(2 * Q + 2)]
        var_diff = mpmath.mpf(n) ** 2 / 12
        for q in range(1, Q + 1):
            m = 2 * q + 1
            binom = mpmath.mpf(1)
            inner = mpmath.mpf(0)
            for v in range(1, m):
                binom = binom * (m - v + 1) / v
                inner += binom * (n * (half[v] * R[m - v]
                                       + half[m - v] * R[v])
                                  + R[v] * R[m - v])
            var_diff += coef[q] * inner
        return float(var_w), float(var_diff)


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


def maj_vector(rows):
    """Plain majority of each row of a +-1 matrix with an odd column
    count: the aggregator the Kalai tests feed the package."""
    return np.sign(np.asarray(rows).sum(axis=-1)).astype(np.int8)


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


def noise_vote_law(rho):
    """The 8 vote patterns (ab, bc, ca) of one correlated-noise voter
    with their Fraction probabilities: a hidden fair sign s, and each
    vote equal to s with probability (1 + rho) / 2, independently."""
    agree = (1 + Fraction(rho)) / 2
    law = {}
    for votes in itertools.product((1, -1), repeat=3):
        ups = votes.count(1)
        law[votes] = (agree ** ups * (1 - agree) ** (3 - ups)
                      + (1 - agree) ** ups * agree ** (3 - ups)) / 2
    return law


def triplet_paradox_exact(m, d, rho=None):
    """Exact close-election paradox law for m triplets of voters, as
    (P[the three triplet majorities agree | every margin is at most d],
    P[every margin is at most d]) in Fractions. Voters rank uniformly
    (6 cyclic vote patterns) when rho is None, else follow
    noise_vote_law(rho) at a rational rho (8 patterns). One triplet's
    voter-pattern profiles give the law of its three weights and their
    signs; m independent triplets are convolved one at a time."""
    if rho is None:
        voter = {}
        for perm in itertools.permutations(range(3)):
            pos = {c: i for i, c in enumerate(perm)}
            voter[tuple(1 if pos[a] < pos[b] else -1
                        for a, b in ((0, 1), (1, 2), (2, 0)))] = \
                Fraction(1, 6)
    else:
        voter = noise_vote_law(rho)
    one = {}
    for trio in itertools.product(voter, repeat=3):
        w = tuple(sum(v[p] for v in trio) for p in range(3))
        key = w + tuple(1 if x > 0 else -1 for x in w)
        one[key] = one.get(key, 0) + math.prod(voter[v] for v in trio)
    law = {(0,) * 6: Fraction(1)}
    for _ in range(m):
        step = {}
        for a, pa in law.items():
            for b, pb in one.items():
                key = tuple(x + y for x, y in zip(a, b))
                step[key] = step.get(key, 0) + pa * pb
        law = step
    accept = hit = Fraction(0)
    for key, p in law.items():
        if max(abs(x) for x in key[:3]) <= d:
            accept += p
            if all(x > 0 for x in key[3:]) or all(x < 0 for x in key[3:]):
                hit += p
    return hit / accept, accept


def kalai_majority_exact(n, flip):
    """Exact Kalai paradox probability 1/4 (1 - 3 E[maj(x) maj(y)]) of
    majority over n (odd) fair +-1 votes x, y flipping each vote of x
    independently with probability flip. a = #(+1 in x) ~ Bin(n, 1/2);
    given a, the +1 count of y is Bin(a, 1 - flip) convolved with
    Bin(n - a, flip). With m triplets and flip 10/27 it is the law of the
    triplet composition, since maj3 of a 1/3-flipped triple agrees with
    maj3 of the original with probability (1 + 7/27)/2."""
    from scipy.stats import binom

    agree = 0.0
    for a in range(n + 1):
        y_law = np.convolve(binom.pmf(np.arange(a + 1), a, 1.0 - flip),
                            binom.pmf(np.arange(n - a + 1), n - a, flip))
        same = y_law[n // 2 + 1:] if 2 * a > n else y_law[:n // 2 + 1]
        agree += binom.pmf(a, n, 0.5) * same.sum()
    return 0.25 * (1.0 - 3.0 * (2.0 * agree - 1.0))


def orthant_probability_mc(corr, draws, rng):
    """P[all coordinates positive] for a centered Gaussian vector with
    the given correlation matrix, by direct sampling."""
    chol = np.linalg.cholesky(np.asarray(corr, dtype=np.float64))
    z = rng.standard_normal((draws, chol.shape[0])) @ chol.T
    hits = int(np.count_nonzero((z > 0).all(axis=1)))
    p = hits / draws
    return p, math.sqrt(p * (1.0 - p) / draws)
