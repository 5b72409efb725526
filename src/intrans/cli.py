"""Command-line front end.

Four subcommands: `dice` samples triples and reports how often they are
intransitive and how often pairwise wins track the CDF-sum prediction;
`elections` estimates the tournament distribution of an impartial-culture
election, optionally conditioned on close margins; `triplet` runs the
majority-of-triplets paradox experiments; `verify` executes the built-in
exact-value and sampler self-checks.

Results go to a fixed-column CSV (stdout when --out is omitted) with a
JSON metadata sidecar next to the file. A JSON config file can supply any
flag; explicit flags win. Exit codes: 0 success, 1 numeric failure
(machine-readable JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.special import ndtr

from . import __version__
from ._accel import ACTIVE_IMPL
from .distributions import DISTRIBUTIONS, get_distribution
from .errors import IntransError
from .gaussian import (
    CorrelationKernel,
    beta_constant,
    dist_constants,
    identity_partial_sum,
    pair_prob_asymptotic,
    phi_product_expectation,
    s_kernel,
    variance_W_series,
    variance_diff_series,
)
from .mc import ExperimentSpec, estimate_categories, estimate_probability, resolve_workers
from .triplets import (
    alpha_rho,
    alpha_star,
    noise_covariance_by_enumeration,
    noise_covariance_matrix,
    orthant3,
    table1_joint,
    triplet_covariances,
)

CSV_COLUMNS = ("experiment_id", "subcommand", "model", "n", "k", "d",
               "hurst", "rho", "trials", "accepted", "statistic",
               "estimate", "stderr", "seed", "wall_time_ms")


def _experiment_id(spec: ExperimentSpec) -> str:
    return hashlib.sha256(spec.to_json().encode()).hexdigest()[:12]


def _write_rows(out: Optional[str], rows: list, meta: dict) -> None:
    if out is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
        return
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    with open(out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _row(experiment_id, subcommand, statistic, estimate, stderr, *,
         model="", n="", k="", d="", hurst="", rho="", trials="",
         accepted="", seed="", wall_time_ms=""):
    return (experiment_id, subcommand, model, n, k, d, hurst, rho,
            trials, accepted, statistic, repr(float(estimate)),
            repr(float(stderr)), seed, wall_time_ms)


def _meta(spec: ExperimentSpec, experiment_id: str, subcommand: str,
          accepted: int, wall_time_ms: float) -> dict:
    return {
        "experiment_id": experiment_id,
        "subcommand": subcommand,
        "spec": json.loads(spec.to_json()),
        "accepted": accepted,
        "wall_time_ms": wall_time_ms,
        "workers": resolve_workers(spec.workers),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "acceleration": ACTIVE_IMPL,
    }


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  fields: tuple) -> None:
    """Fill unset flags from the JSON config document, if given."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        parser.error("cannot read config file: %s" % e)
    if not isinstance(doc, dict):
        parser.error("config file must hold a JSON object")
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest not in fields:
            parser.error("unknown config key %r" % key)
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _require(args, parser, *names):
    for name in names:
        if getattr(args, name, None) is None:
            parser.error("missing required value --%s"
                         % name.replace("_", "-"))


def _fill_defaults(args, defaults: dict) -> None:
    for name, value in defaults.items():
        if getattr(args, name, None) is None:
            setattr(args, name, value)


def _validate_choice(parser, name, value, choices) -> None:
    if value not in choices:
        parser.error("--%s must be one of %s, got %r"
                     % (name, "/".join(sorted(choices)), value))


# ---------------------------------------------------------------- dice


def _cmd_dice(args, parser) -> int:
    _apply_config(args, parser, ("model", "dist", "n", "hurst", "triples",
                                 "seed", "out", "method"))
    _fill_defaults(args, {"model": "conditioned", "dist": "uniform",
                          "method": "auto", "seed": 0})
    _require(args, parser, "n", "triples")
    _validate_choice(parser, "model", args.model,
                     ("discrete", "conditioned", "stationary", "iid"))
    _validate_choice(parser, "dist", args.dist, tuple(DISTRIBUTIONS))
    _validate_choice(parser, "method", args.method,
                     ("auto", "circulant", "cholesky"))
    n = int(args.n)
    model = args.model
    if model == "conditioned" and n < 2:
        parser.error("--n must be at least 2 for the conditioned model")
    if model == "stationary" and args.hurst is None:
        parser.error("--hurst is required for the stationary model")
    params = {"model": model, "n": n}
    if model in ("conditioned", "iid"):
        params["dist"] = args.dist
    if model == "stationary":
        params["hurst"] = float(args.hurst)
        params["method"] = args.method
    spec = ExperimentSpec(family="dice_triples", params=params,
                          trials=int(args.triples), seed=int(args.seed))
    from .experiments import summarize_dice_categories

    counts = estimate_categories(spec)
    summary = summarize_dice_categories(counts)
    exp_id = _experiment_id(spec)
    common = dict(model=model, n=n, trials=spec.trials,
                  accepted=counts.accepted, seed=spec.seed,
                  hurst=(params.get("hurst", "")),
                  wall_time_ms=round(counts.wall_time_ms, 3))
    rows = [
        _row(exp_id, "dice", "intransitive_fraction",
             summary["intransitive_fraction"],
             summary["intransitive_stderr"], **common),
        _row(exp_id, "dice", "agreement_rate", summary["agreement_rate"],
             summary["agreement_stderr"], **common),
    ]
    _write_rows(args.out, rows,
                _meta(spec, exp_id, "dice", counts.accepted,
                      counts.wall_time_ms))
    return 0


# ----------------------------------------------------------- elections


def _parse_subset_excl(raw, k: int, parser) -> Optional[int]:
    if raw is None:
        return None
    text = str(raw)
    try:
        if "," in text:
            i, j = sorted(int(part) for part in text.split(","))
            if not 0 <= i < j < k:
                raise ValueError
            index = i * (2 * k - i - 1) // 2 + (j - i - 1)
        else:
            index = int(text)
    except ValueError:
        parser.error("--subset-excl expects a lex pair index or 'i,j'")
    if not 0 <= index < k * (k - 1) // 2:
        parser.error("--subset-excl pair index out of range")
    return index


def _cmd_elections(args, parser) -> int:
    _apply_config(args, parser, ("k", "n", "d", "subset_excl", "trials",
                                 "seed", "out"))
    _fill_defaults(args, {"k": 3, "seed": 0})
    _require(args, parser, "n", "trials")
    n, k = int(args.n), int(args.k)
    if n % 2 == 0:
        parser.error("--n must be odd so pairwise ties cannot happen")
    excl = _parse_subset_excl(args.subset_excl, k, parser)
    conditioning = None
    if args.d is not None:
        d = int(args.d)
        if d < 1:
            parser.error("--d must be a positive margin bound")
        conditioning = {"event": "close", "d": d}
        if excl is not None:
            n_pairs = k * (k - 1) // 2
            conditioning["subset"] = [i for i in range(n_pairs)
                                      if i != excl]
    elif excl is not None:
        parser.error("--subset-excl only makes sense with --d")
    spec = ExperimentSpec(family="election_outcomes",
                          params={"n": n, "k": k}, trials=int(args.trials),
                          seed=int(args.seed), conditioning=conditioning)
    from .experiments import (
        condorcet_probability,
        outcome_categories,
        transitive_probability,
    )

    counts = estimate_categories(spec)
    exp_id = _experiment_id(spec)
    n_pairs = k * (k - 1) // 2
    common = dict(model="impartial", n=n, k=k,
                  d=("" if args.d is None else int(args.d)),
                  trials=spec.trials, accepted=counts.accepted,
                  seed=spec.seed, wall_time_ms=round(counts.wall_time_ms, 3))
    rows = []
    meta_cats = outcome_categories(k)
    for idx in range(1 << n_pairs):
        est = counts.proportion(idx)
        bits = "".join("1" if v > 0 else "0" for v in meta_cats[idx][0])
        rows.append(_row(exp_id, "elections", "outcome_" + bits,
                         est.estimate, est.stderr, **common))
    for name, fn in (("transitive", transitive_probability),
                     ("condorcet_winner", condorcet_probability)):
        p, se = fn(counts, k)
        rows.append(_row(exp_id, "elections", name, p, se, **common))
    _write_rows(args.out, rows,
                _meta(spec, exp_id, "elections", counts.accepted,
                      counts.wall_time_ms))
    return 0


# ------------------------------------------------------------- triplet


def _cmd_triplet(args, parser) -> int:
    _apply_config(args, parser, ("mode", "n", "rho", "d", "trials",
                                 "seed", "out"))
    _fill_defaults(args, {"mode": "sum", "seed": 0})
    _require(args, parser, "n", "trials")
    _validate_choice(parser, "mode", args.mode, ("sum", "noise"))
    n = int(args.n)
    if n < 3 or n % 3 != 0 or (n // 3) % 2 == 0:
        parser.error("--n must be a multiple of 3 with an odd number of "
                     "triplets")
    if args.mode == "noise" and args.rho is None:
        parser.error("--rho is required for --mode noise")
    conditioning = None
    if args.d is not None:
        if int(args.d) < 1:
            parser.error("--d must be a positive margin bound")
        conditioning = {"event": "close", "d": int(args.d)}
    params = {"n": n}
    family = "triplet_paradox"
    rho = None
    if args.mode == "noise":
        rho = float(args.rho)
        params["rho"] = rho
        family = "triplet_noise"
    spec = ExperimentSpec(family=family, params=params,
                          trials=int(args.trials), seed=int(args.seed),
                          conditioning=conditioning)
    est = estimate_probability(spec)
    exp_id = _experiment_id(spec)
    common = dict(model=args.mode, n=n,
                  d=("" if args.d is None else int(args.d)),
                  rho=("" if rho is None else rho), seed=spec.seed)
    rows = [
        _row(exp_id, "triplet", "paradox_rate", est.estimate, est.stderr,
             trials=est.trials, accepted=est.accepted,
             wall_time_ms=round(est.wall_time_ms, 3), **common),
        _row(exp_id, "triplet", "alpha_star", alpha_star(), 0.0, **common),
    ]
    if rho is not None and 0.0 < rho < 1.0:
        rows.append(_row(exp_id, "triplet", "alpha_rho", alpha_rho(rho),
                         0.0, **common))
    _write_rows(args.out, rows,
                _meta(spec, exp_id, "triplet", est.accepted,
                      est.wall_time_ms))
    return 0


# -------------------------------------------------------------- verify


def _check(name, ok, detail):
    return (name, bool(ok), detail)


def _suite_identities() -> list:
    checks = []
    big_q = 10 ** 6
    tol = 3.0 / math.sqrt(big_q)
    val = identity_partial_sum("quarter", big_q)
    checks.append(_check("quarter_series_Q1e6", abs(val - 0.25) <= tol,
                         "sum=%.8f target=0.25 tol=%.1e" % (val, tol)))
    val = identity_partial_sum("ramanujan_pi", big_q)
    checks.append(_check("ramanujan_pi_Q1e6", abs(val - math.pi) <= tol,
                         "sum=%.8f target=pi tol=%.1e" % (val, tol)))
    val = identity_partial_sum("newton_pi", 30)
    checks.append(_check("newton_pi_Q30", abs(val - math.pi) <= 1e-10,
                         "err=%.2e (tol 1e-10)" % abs(val - math.pi)))
    val = identity_partial_sum("sixth", 30)
    checks.append(_check("sixth_series_Q30", abs(val - 1.0 / 6.0) <= 1e-12,
                         "err=%.2e (tol 1e-12)" % abs(val - 1.0 / 6.0)))
    return checks


def _suite_covariances() -> list:
    checks = []
    table = table1_joint()
    expected = ((1, 6, 12, 8), (6, 27, 36, 12), (12, 36, 27, 6),
                (8, 12, 6, 1))
    ok = all(table[i][j] == Fraction(expected[i][j], 216)
             for i in range(4) for j in range(4))
    checks.append(_check("table1_exact", ok,
                         "4x4 joint over denominator 216"))
    cov = triplet_covariances()
    checks.append(_check("cov_b_b", cov.cov_b_b == Fraction(-7, 27),
                         "Cov(B,B') = -7/27 exact match"))
    checks.append(_check("cov_a_a", cov.cov_a_a == Fraction(-1, 3),
                         "Cov(A,A') = -1/3 exact match"))
    checks.append(_check(
        "cov_a_b_same",
        cov.cov_a_b_same_sqrt3 == Fraction(1, 2),
        "Cov(A,B) same pair = sqrt(3)/2 exact match"))
    checks.append(_check(
        "cov_a_b_cross",
        cov.cov_a_b_cross_sqrt3 == Fraction(-1, 6),
        "Cov(A,B) cross pair = -1/(2 sqrt(3)) exact match"))
    checks.append(_check("var_a", cov.var_a == 1 and cov.var_b == 1,
                         "Var A = Var B = 1 exact match"))
    worst = 0.0
    for rho in (0.3, 0.8):
        delta = np.max(np.abs(noise_covariance_matrix(rho)
                              - noise_covariance_by_enumeration(rho)))
        worst = max(worst, float(delta))
    checks.append(_check("noise_cov_vs_enumeration", worst <= 1e-12,
                         "max |closed form - enumeration| = %.1e" % worst))
    return checks


def _suite_predictors() -> list:
    checks = []
    beta = beta_constant(CorrelationKernel.fbm(0.5))
    checks.append(_check("beta_iid_sixth", abs(beta - 1.0 / 6.0) <= 1e-12,
                         "beta(H=1/2)=%.15f target 1/6" % beta))
    val = pair_prob_asymptotic(get_distribution("uniform"), 100,
                               "joint_two_conditioned")
    target = 0.25 - 1.0 / 600.0
    checks.append(_check("uniform_joint_two_n100",
                         abs(val - target) <= 1e-12,
                         "p=%.12f target 1/4 - 1/(6n)" % val))
    expected_ab = {"uniform": (1.0 / math.sqrt(12.0), 0.5),
                   "gaussian": (0.5 / math.sqrt(math.pi), 0.5),
                   "shifted-exp": (0.25, 0.75)}
    worst = 0.0
    for name, (a, b) in expected_ab.items():
        consts = dist_constants(get_distribution(name))
        worst = max(worst, abs(consts.a - a), abs(consts.b - b))
    checks.append(_check("dist_constants_ab", worst <= 1e-9,
                         "max |A,B deviation| = %.1e over %s"
                         % (worst, sorted(expected_ab))))
    nodes, weights = np.polynomial.hermite_e.hermegauss(96)
    rho = 0.45
    x = nodes[:, None]
    y = rho * x + math.sqrt(1.0 - rho * rho) * nodes[None, :]
    integrand = ndtr(x) * ndtr(y)
    quad = float(weights @ integrand @ weights / (2.0 * math.pi))
    series = phi_product_expectation(rho)
    checks.append(_check("phi_product_rho_045",
                         abs(series - quad) <= 1e-8,
                         "series=%.12f quadrature=%.12f"
                         % (series, quad)))
    checks.append(_check("alpha_star",
                         abs(alpha_star() - 0.2323) <= 1e-3,
                         "alpha*=%.6f target 0.2323" % alpha_star()))
    checks.append(_check("orthant_third",
                         abs(orthant3(-1.0 / 27.0) - 0.1165) <= 1e-3,
                         "orthant=%.6f target 0.1165"
                         % orthant3(-1.0 / 27.0)))
    kernel = CorrelationKernel.fbm(0.25)
    ratios = [variance_diff_series(kernel, n) / variance_W_series(kernel, n)
              for n in (32, 64, 128)]
    checks.append(_check("variance_ratio_decreasing",
                         ratios[0] > ratios[1] > ratios[2],
                         "H=0.25 ratios " + ", ".join("%.4f" % r
                                                      for r in ratios)))
    return checks


def _suite_samplers() -> list:
    from .samplers import (
        sample_continuous_conditioned,
        sample_discrete_conditioned,
        sample_stationary_gaussian,
    )

    checks = []
    rng = np.random.default_rng(20260818)
    gauss = get_distribution("gaussian")
    draws = np.stack([sample_continuous_conditioned(3, gauss, rng).faces
                      for _ in range(4000)])
    var = float(draws.var(axis=0).mean())
    cov = float(np.cov(draws[:, 0], draws[:, 1])[0, 1])
    ok = abs(var - 2.0 / 3.0) <= 0.05 and abs(cov + 1.0 / 3.0) <= 0.05
    checks.append(_check("conditioned_gauss_n3_cov", ok,
                         "Var=%.3f (2/3), Cov=%.3f (-1/3)" % (var, cov)))
    sums = np.abs(draws.sum(axis=1))
    checks.append(_check("conditioned_sums_zero",
                         float(sums.max()) <= 1e-9 * 3,
                         "max |sum| = %.1e" % float(sums.max())))
    seqs = {}
    for _ in range(7000):
        die = sample_discrete_conditioned(3, rng)
        key = tuple(int(v) for v in die.faces)
        seqs[key] = seqs.get(key, 0) + 1
    freqs = np.array(sorted(seqs.values())) / 7000.0
    max_dev = float(np.max(np.abs(freqs - 1.0 / 7.0)))
    ok = len(seqs) == 7 and max_dev <= 0.03
    checks.append(_check("discrete_n3_uniform", ok,
                         "%d sequences, max dev %.3f vs 1/7"
                         % (len(seqs), max_dev)))
    kernel = CorrelationKernel.fbm(0.75)
    lag_target = float(s_kernel(1, 0.75))
    prods = {"circulant": None, "cholesky": None}
    for method in prods:
        vals = np.empty(20000)
        for i in range(vals.size):
            faces = sample_stationary_gaussian(6, kernel, rng,
                                               method=method).faces
            vals[i] = faces[0] * faces[1]
        prods[method] = (float(vals.mean()),
                         float(vals.std(ddof=1) / math.sqrt(vals.size)))
    for method, (mean, se) in prods.items():
        checks.append(_check("fbm_lag1_" + method,
                             abs(mean - lag_target) <= 4 * se,
                             "cov=%.4f target %.4f (se %.4f)"
                             % (mean, lag_target, se)))
    diff = abs(prods["circulant"][0] - prods["cholesky"][0])
    diff_se = math.hypot(prods["circulant"][1], prods["cholesky"][1])
    checks.append(_check("fbm_methods_agree", diff <= 4 * diff_se,
                         "|circulant - cholesky| = %.4f (se %.4f)"
                         % (diff, diff_se)))
    big = np.stack([sample_discrete_conditioned(250, rng).faces
                    for _ in range(20)])
    sums = big.sum(axis=1)
    ok = (np.all(sums == 250 * 251 // 2)
          and big.min() >= 1 and big.max() <= 250)
    checks.append(_check("discrete_n250_valid", ok,
                         "20 dice at n=250: sums %d..%d (31375), faces "
                         "%d..%d" % (sums.min(), sums.max(),
                                     big.min(), big.max())))
    return checks


_SUITES = {
    "identities": _suite_identities,
    "covariances": _suite_covariances,
    "predictors": _suite_predictors,
    "samplers": _suite_samplers,
}


def _cmd_verify(args, parser) -> int:
    checks = _SUITES[args.suite]()
    failures = 0
    for name, ok, detail in checks:
        print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
        failures += 0 if ok else 1
    print("%d/%d checks passed" % (len(checks) - failures, len(checks)))
    return 1 if failures else 0


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intrans",
        description="Intransitive dice and close-election experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dice = sub.add_parser("dice", help="sample dice triples")
    p_dice.add_argument("--model",
                        choices=("discrete", "conditioned", "stationary",
                                 "iid"),
                        help="sampling model (default conditioned)")
    p_dice.add_argument("--dist", choices=tuple(sorted(DISTRIBUTIONS)),
                        help="face distribution (default uniform)")
    p_dice.add_argument("--n", type=int, help="faces per die")
    p_dice.add_argument("--hurst", type=float,
                        help="Hurst index for the stationary model")
    p_dice.add_argument("--method",
                        choices=("auto", "circulant", "cholesky"),
                        help="stationary sampling path (default auto)")
    p_dice.add_argument("--triples", type=int,
                        help="number of independent triples")
    p_dice.add_argument("--seed", type=int)
    p_dice.add_argument("--out", help="CSV path (stdout when omitted)")
    p_dice.add_argument("--config", help="JSON config mirroring flags")
    p_dice.set_defaults(func=_cmd_dice)

    p_el = sub.add_parser("elections",
                          help="impartial-culture tournament distribution")
    p_el.add_argument("--k", type=int,
                      help="number of candidates, 2..5 (default 3)")
    p_el.add_argument("--n", type=int, help="number of voters (odd)")
    p_el.add_argument("--d", type=int,
                      help="closeness bound; omit for unconditioned")
    p_el.add_argument("--subset-excl", dest="subset_excl",
                      help="lex pair index or 'i,j' left out of the "
                           "closeness requirement")
    p_el.add_argument("--trials", type=int)
    p_el.add_argument("--seed", type=int)
    p_el.add_argument("--out", help="CSV path (stdout when omitted)")
    p_el.add_argument("--config", help="JSON config mirroring flags")
    p_el.set_defaults(func=_cmd_elections)

    p_tr = sub.add_parser("triplet",
                          help="majority-of-triplets paradox experiments")
    p_tr.add_argument("--mode", choices=("sum", "noise"),
                      help="voter model (default sum)")
    p_tr.add_argument("--n", type=int,
                      help="votes per pair (multiple of 3, odd triplets)")
    p_tr.add_argument("--rho", type=float,
                      help="vote correlation for --mode noise")
    p_tr.add_argument("--d", type=int,
                      help="closeness bound; omit for unconditioned")
    p_tr.add_argument("--trials", type=int)
    p_tr.add_argument("--seed", type=int)
    p_tr.add_argument("--out", help="CSV path (stdout when omitted)")
    p_tr.add_argument("--config", help="JSON config mirroring flags")
    p_tr.set_defaults(func=_cmd_triplet)

    p_ver = sub.add_parser("verify", help="run built-in self checks")
    p_ver.add_argument("--suite", required=True,
                       choices=tuple(sorted(_SUITES)))
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    subparser = parser
    try:
        return args.func(args, subparser)
    except (IntransError, FloatingPointError, np.linalg.LinAlgError) as e:
        payload = {"error": type(e).__name__, "message": str(e)}
        for attr in ("attempts", "accepted", "minor_order", "rho",
                     "observed_rate", "floor", "probe_trials"):
            if hasattr(e, attr):
                payload[attr] = getattr(e, attr)
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
