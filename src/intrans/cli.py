"""Command-line front end.

Four subcommands: `dice` samples triples and reports how often they are
intransitive and how often pairwise wins track the CDF-sum prediction;
`elections` estimates the tournament distribution of an impartial-culture
election, optionally conditioned on close margins; `triplet` runs the
majority-of-triplets paradox experiments; `verify` executes the built-in
exact-value and sampler self-checks.

The three run subcommands share --config, --seed and --out, and one
writer: results go to a fixed-column CSV (stdout when --out is omitted or
`-`) with a JSON metadata sidecar next to the file. A `--config FILE`
JSON object is read once and its keys become `--key=value` flags placed
right after the subcommand, so argparse checks them exactly like flags,
an explicit flag (it comes later) wins, and a null value leaves its
flag unset. Flags and keys must be spelled out in full. Exit codes: 0
success, 1 failure during a run (machine-readable JSON on stderr), 2
usage error, including every value the experiment family rejects
and every key it does not take, so a flag the chosen model ignores (--rho
without --mode noise, --hurst without --model stationary, --dist with
--model discrete or stationary, --subset-excl without --d).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import stat
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import __version__
from .distributions import DISTRIBUTIONS, get_distribution, normal_cdf
from .errors import IntransError, InvalidInputError
from .experiments import (
    _outcome_indexes,
    lag_products,
    outcome_categories,
    summarize_dice_categories,
)
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
from .mc import (
    BLOCK_SIZE,
    STREAM_SCHEME,
    ExperimentSpec,
    estimate_categories,
    estimate_probability,
    resolve_workers,
)
from .samplers import (
    lex_pair_index,
    sample_continuous_conditioned,
    sample_discrete_conditioned,
)
from .triplets import (
    alpha_rho,
    alpha_star,
    noise_covariance_by_enumeration,
    noise_covariance_matrix,
    orthant3,
    table1_joint,
    triplet_covariances,
)

# The columns a subcommand fills itself, between the run's identity and
# its results.
_FIXED_COLUMNS = ("model", "n", "k", "d", "hurst", "rho")
CSV_COLUMNS = ("experiment_id", "subcommand", *_FIXED_COLUMNS, "trials",
               "accepted", "statistic", "estimate", "stderr", "seed",
               "wall_time_ms")


@contextlib.contextmanager
def _overwritten(path):
    """A text buffer written over path from its first byte on exit, by an
    exception too, in one open and write, not truncating path first (on
    ext4 that costs ~0.1 ms, most of a small write); then a regular file
    longer than the bytes written is cut at their length, so no old byte
    trails the new ones. A FIFO or a terminal is not cut."""
    buffer = io.StringIO(newline="")
    try:
        yield buffer
    finally:
        data = memoryview(buffer.getvalue().encode())
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            rest = data
            while rest:
                rest = rest[os.write(fd, rest):]
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)


def _csv_line(fields) -> str:
    """One CSV record as csv.writer writes it for fields that hold no ',',
    '"', '\r' or '\n', as no field of the CLI's does: None as an empty
    field, anything else as its str, each line ended by "\r\n"."""
    return ",".join(["" if v is None else str(v) for v in fields]) + "\r\n"


def _report(args, spec, result, fixed, measured, exact=()) -> int:
    """Write a run's CSV: one row per measured (statistic, estimate,
    stderr) of result, then one per exact (statistic, value), whose
    stderr is 0 and whose trials, accepted and wall_time_ms stay blank.
    fixed maps _FIXED_COLUMNS to the subcommand's values; a column it
    leaves out, or sets to None, stays blank. The CSV goes to stdout when
    --out is omitted or "-", else to the file --out with a .meta.json
    sidecar holding the spec and how the run was made. Both files are
    overwritten in place and cut to length (_overwritten), not truncated
    first."""
    spec_json = spec.to_json()
    exp_id = hashlib.sha256(spec_json.encode()).hexdigest()[:12]
    ident = (exp_id, args.command, *map(fixed.get, _FIXED_COLUMNS))
    wall_time_ms = round(result.wall_time_ms, 3)
    rows = [(*ident, result.trials, result.accepted, name, float(estimate),
             float(stderr), spec.seed, wall_time_ms)
            for name, estimate, stderr in measured]
    rows += [(*ident, None, None, name, float(value), 0.0, spec.seed, None)
             for name, value in exact]
    to_file = args.out not in (None, "-")
    with (_overwritten(args.out) if to_file
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(map(_csv_line, [CSV_COLUMNS, *rows]))
    if to_file:
        meta = {
            "experiment_id": exp_id,
            "subcommand": args.command,
            "spec": {field.name: getattr(spec, field.name)
                     for field in dataclasses.fields(spec)},
            "accepted": result.accepted,
            "wall_time_ms": result.wall_time_ms,
            "workers": resolve_workers(None),
            "block_size": BLOCK_SIZE,
            "stream_scheme": STREAM_SCHEME,
            "package_version": __version__,
            "numpy_version": np.__version__,
        }
        with _overwritten(args.out + ".meta.json") as fh:
            fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def _given(**flags) -> dict:
    """The flags that were given: every one whose value is not None."""
    return {key: value for key, value in flags.items() if value is not None}


def _closeness(**flags) -> Optional[dict]:
    """The closeness conditioning of the flags given; None when none is."""
    given = _given(**flags)
    return {"event": "close", **given} if given else None


def _make_spec(parser, family, params, trials, seed, conditioning=None):
    """The run's spec; a key or value its family rejects is a usage error."""
    try:
        return ExperimentSpec(family=family, params=params, trials=trials,
                              seed=seed, conditioning=conditioning)
    except InvalidInputError as e:
        parser.error(str(e))


# ---------------------------------------------------------------- dice


def _cmd_dice(args, parser) -> int:
    dist = args.dist or ("uniform" if args.model in ("conditioned", "iid")
                         else None)
    params = _given(model=args.model, n=args.n, dist=dist, hurst=args.hurst)
    spec = _make_spec(parser, "dice_triples", params, args.triples,
                      args.seed)
    counts = estimate_categories(spec)
    summary = summarize_dice_categories(counts)
    return _report(args, spec, counts,
                   dict(model=args.model, n=args.n, hurst=args.hurst),
                   [(name, summary[name], summary[stderr])
                    for name, stderr in (
                        ("intransitive_fraction", "intransitive_stderr"),
                        ("agreement_rate", "agreement_stderr"))])


# ----------------------------------------------------------- elections


def _subset_excluding(raw, k: int, parser) -> Optional[list]:
    """Every lex pair but the one --subset-excl names; None without it."""
    if raw is None:
        return None
    try:
        if "," in raw:
            i, j = sorted(int(part) for part in raw.split(","))
            if not 0 <= i < j < k:
                raise ValueError
            index = lex_pair_index(i, j, k)
        else:
            index = int(raw)
    except ValueError:
        parser.error("--subset-excl expects a lex pair index or 'i,j'")
    if not 0 <= index < k * (k - 1) // 2:
        parser.error("--subset-excl pair index out of range")
    return [i for i in range(k * (k - 1) // 2) if i != index]


@lru_cache(maxsize=None)
def _row_names(k: int) -> tuple:
    """The statistic names of a k-candidate election's rows: for each
    outcome in category order, outcome_ and one digit per lex pair, 1 when
    its earlier candidate wins; then transitive and condorcet_winner."""
    return (*("outcome_" + "".join("1" if v > 0 else "0" for v in signs)
              for signs, _, _ in outcome_categories(k)),
            "transitive", "condorcet_winner")


def _cmd_elections(args, parser) -> int:
    k = args.k
    subset = _subset_excluding(args.subset_excl, k, parser)
    spec = _make_spec(parser, "election_outcomes", {"n": args.n, "k": k},
                      args.trials, args.seed,
                      _closeness(d=args.d, subset=subset))
    counts = estimate_categories(spec)
    # The counts of each outcome, of the transitive outcomes and of those
    # with a Condorcet winner; then every share and Wald stderr at once, in
    # the operations of CategoryCounts.proportion, so the values are equal.
    tally = counts.counts.tolist()
    tally += [sum(tally[i] for i in picked) for picked in _outcome_indexes(k)]
    share = np.array(tally) / counts.accepted
    stderr = np.sqrt(share * (1.0 - share) / counts.accepted)
    return _report(args, spec, counts,
                   dict(model="impartial", n=args.n, k=k, d=args.d),
                   list(zip(_row_names(k), share, stderr)))


# ------------------------------------------------------------- triplet


def _cmd_triplet(args, parser) -> int:
    rho = args.rho
    family = "triplet_noise" if args.mode == "noise" else "triplet_paradox"
    spec = _make_spec(parser, family, _given(n=args.n, rho=rho),
                      args.trials, args.seed, _closeness(d=args.d))
    est = estimate_probability(spec)
    exact = [("alpha_star", alpha_star())]
    if rho is not None and 0.0 < rho < 1.0:
        exact.append(("alpha_rho", alpha_rho(rho)))
    return _report(args, spec, est,
                   dict(model=args.mode, n=args.n, d=args.d, rho=rho),
                   [("paradox_rate", est.estimate, est.stderr)], exact)


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
    val = pair_prob_asymptotic(get_distribution("uniform"), 100)
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
    integrand = normal_cdf(x) * normal_cdf(y)
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
    checks = []
    rng = np.random.default_rng(20260818)
    gauss = get_distribution("gaussian")
    draws = sample_continuous_conditioned(3, gauss, rng, 4000)
    var = float(draws.var(axis=0).mean())
    cov = float(np.cov(draws[:, 0], draws[:, 1])[0, 1])
    ok = abs(var - 2.0 / 3.0) <= 0.05 and abs(cov + 1.0 / 3.0) <= 0.05
    checks.append(_check("conditioned_gauss_n3_cov", ok,
                         "Var=%.3f (2/3), Cov=%.3f (-1/3)" % (var, cov)))
    sums = np.abs(draws.sum(axis=1))
    checks.append(_check("conditioned_sums_zero",
                         float(sums.max()) <= 1e-9 * 3,
                         "max |sum| = %.1e" % float(sums.max())))
    _, seqs = np.unique(sample_discrete_conditioned(3, rng, 7000), axis=0,
                        return_counts=True)
    max_dev = float(np.max(np.abs(seqs / 7000.0 - 1.0 / 7.0)))
    ok = seqs.size == 7 and max_dev <= 0.03
    checks.append(_check("discrete_n3_uniform", ok,
                         "%d sequences, max dev %.3f vs 1/7"
                         % (seqs.size, max_dev)))
    kernel = CorrelationKernel.fbm(0.75)
    lag_target = float(s_kernel(1, 0.75))
    circulant = lag_products(kernel, 6, [1], 20000, rng)[:, 0]
    # The independent route: the Cholesky factor of the n=6 Toeplitz
    # covariance times as many standard normals, drawn next.
    lags = np.arange(6)
    cov = kernel.values(lags)[np.abs(lags[:, None] - lags)]
    faces = rng.standard_normal((20000, 6)) @ np.linalg.cholesky(cov).T
    prods = {method: (float(vals.mean()),
                      float(vals.std(ddof=1) / math.sqrt(vals.size)))
             for method, vals in (("circulant", circulant),
                                  ("cholesky", faces[:, 0] * faces[:, 1]))}
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
    big = sample_discrete_conditioned(250, rng, 20)
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


# The --config option of the run subcommands. main also parses it alone,
# to find the file before the full parse.
_CONFIG = argparse.ArgumentParser(prog="intrans", add_help=False,
                                  allow_abbrev=False)
_CONFIG.add_argument("--config", metavar="FILE",
                     help="JSON object of flag values; explicit flags win")
# The options every run subcommand shares.
_RUN = argparse.ArgumentParser(add_help=False, parents=[_CONFIG],
                               allow_abbrev=False)
_RUN.add_argument("--seed", type=int, default=0)
_RUN.add_argument("--out", help="CSV path (stdout when omitted or -)")


# Each subcommand's parser by name, as build_parser made it.
_COMMANDS = {}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built once per process. Each subcommand's
    parser, kept in _COMMANDS, sets command, func and parser itself, so a
    run parsed by it alone reads as one parsed from the top."""
    parser = argparse.ArgumentParser(
        prog="intrans",
        description="Intransitive dice and close-election experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, parents=(_RUN,)):
        p = sub.add_parser(name, help=summary, parents=list(parents),
                           allow_abbrev=False)
        p.set_defaults(command=name, func=func, parser=p)
        _COMMANDS[name] = p
        return p

    p_dice = command("dice", _cmd_dice, "sample dice triples")
    p_dice.add_argument("--model", default="conditioned",
                        choices=("discrete", "conditioned", "stationary",
                                 "iid"),
                        help="sampling model (default conditioned)")
    p_dice.add_argument("--dist", choices=tuple(sorted(DISTRIBUTIONS)),
                        help="face distribution for --model conditioned "
                             "or iid (default uniform)")
    p_dice.add_argument("--n", type=int, required=True,
                        help="faces per die")
    p_dice.add_argument("--hurst", type=float,
                        help="Hurst index for the stationary model")
    p_dice.add_argument("--triples", type=int, required=True,
                        help="number of independent triples")

    p_el = command("elections", _cmd_elections,
                   "impartial-culture tournament distribution")
    p_el.add_argument("--k", type=int, default=3,
                      help="number of candidates, 2..5 (default 3)")
    p_el.add_argument("--n", type=int, required=True,
                      help="number of voters (odd)")
    p_el.add_argument("--d", type=int,
                      help="closeness bound; omit for unconditioned")
    p_el.add_argument("--subset-excl",
                      help="lex pair index or 'i,j' left out of the "
                           "closeness requirement")
    p_el.add_argument("--trials", type=int, required=True)

    p_tr = command("triplet", _cmd_triplet,
                   "majority-of-triplets paradox experiments")
    p_tr.add_argument("--mode", default="sum", choices=("sum", "noise"),
                      help="voter model (default sum)")
    p_tr.add_argument("--n", type=int, required=True,
                      help="votes per pair (multiple of 3, odd triplets)")
    p_tr.add_argument("--rho", type=float,
                      help="vote correlation for --mode noise")
    p_tr.add_argument("--d", type=int,
                      help="closeness bound; omit for unconditioned")
    p_tr.add_argument("--trials", type=int, required=True)

    p_ver = command("verify", _cmd_verify, "run built-in self checks",
                    parents=())
    p_ver.add_argument("--suite", required=True,
                       choices=tuple(sorted(_SUITES)))
    return parser


def _with_config(parser, argv: list) -> list:
    """argv with the --config file's keys inserted as --key=value flags
    right after the subcommand, so argparse converts and checks them like
    any flag and an explicit flag, coming later, wins. No parser abbreviates
    a flag, so argv names a file only in a token that is --config or starts
    with --config=, and without one argv is returned unparsed."""
    if not any(token == "--config" or token.startswith("--config=")
               for token in argv[1:]):
        return argv
    path = _CONFIG.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        parser.error("cannot read config file: %s" % e)
    if not isinstance(doc, dict):
        parser.error("config file must hold a JSON object")
    flags = []
    for key, value in doc.items():
        if key == "config":
            parser.error("a config file cannot name another config file")
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value,
                                                     (int, float, str)):
            parser.error("config key %r must hold a number or a string"
                         % key)
        flags.append("--%s=%s" % (key.replace("_", "-"), value))
    return argv[:1] + flags + argv[1:]


def _parse(argv: list) -> argparse.Namespace:
    """argv, with its --config flags, parsed once: by the parser of the
    subcommand its first token names, the parser the top-level one would
    hand the rest of argv to, else (no command, -h, a typo or an
    abbreviation) by the top-level parser."""
    parser = build_parser()
    argv = _with_config(parser, argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        # The error the top-level parser gives for them.
        parser.error("unrecognized arguments: %s" % " ".join(extra))
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args, args.parser)
    except (IntransError, FloatingPointError, np.linalg.LinAlgError,
            OSError) as e:
        payload = {"error": type(e).__name__, "message": str(e), **vars(e)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
