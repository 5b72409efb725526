"""End-to-end tests of the command-line interface: CSV shape, metadata
sidecars, config-file precedence, exit codes, and the verify suites.

Everything runs in process through main(argv); parser-level usage errors
surface as SystemExit(2) and numeric failures as exit code 1 with a JSON
payload on stderr.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest

import intrans
from intrans import cli
from intrans.cli import CSV_COLUMNS, build_parser, main
from intrans.mc import BLOCK_SIZE


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    return [dict(zip(CSV_COLUMNS, row)) for row in rows[1:]]


def _usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


# ----------------------------------------------------------------- dice


def test_dice_stdout_csv(capsys):
    code, out, _ = _run(capsys, ["dice", "--model", "iid", "--n", "2",
                                 "--triples", "500", "--seed", "3"])
    assert code == 0
    rows = _parse_csv(out)
    assert [r["statistic"] for r in rows] == ["intransitive_fraction",
                                              "agreement_rate"]
    for r in rows:
        assert r["subcommand"] == "dice"
        assert r["model"] == "iid"
        assert r["n"] == "2"
        assert r["trials"] == "500"
        assert r["accepted"] == "500"
        assert r["seed"] == "3"
        float(r["estimate"]), float(r["stderr"])
    # two-face dice cannot cycle, so the fraction is exactly zero
    assert float(rows[0]["estimate"]) == 0.0
    assert len({r["experiment_id"] for r in rows}) == 1


def test_out_dash_writes_stdout_and_no_files(capsys, tmp_path,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, ["triplet", "--n", "9", "--trials", "10",
                                 "--out", "-"])
    assert code == 0
    assert [r["statistic"] for r in _parse_csv(out)] == ["paradox_rate",
                                                        "alpha_star"]
    assert os.listdir(tmp_path) == []


def test_dice_out_file_with_meta_sidecar(tmp_path):
    out_path = tmp_path / "dice.csv"
    code = main(["dice", "--model", "conditioned", "--dist", "gaussian",
                 "--n", "4", "--triples", "300", "--seed", "11",
                 "--out", str(out_path)])
    assert code == 0
    rows = _parse_csv(out_path.read_text())
    assert len(rows) == 2
    meta = json.loads((tmp_path / "dice.csv.meta.json").read_text())
    assert meta["experiment_id"] == rows[0]["experiment_id"]
    assert meta["subcommand"] == "dice"
    assert meta["spec"]["family"] == "dice_triples"
    assert meta["spec"]["params"] == {"model": "conditioned", "n": 4,
                                      "dist": "gaussian"}
    assert meta["spec"]["trials"] == 300
    assert meta["accepted"] == 300
    assert meta["workers"] >= 1
    assert meta["package_version"] == intrans.__version__
    assert meta["block_size"] == BLOCK_SIZE == 4096
    assert "splitmix64(seed)" in meta["stream_scheme"]
    assert "[0, first trial of block, 0, 0]" in meta["stream_scheme"]
    # --dist is uniform when omitted, and only for the models that use it.
    for model, params in (("iid", {"model": "iid", "n": 4,
                                   "dist": "uniform"}),
                          ("discrete", {"model": "discrete", "n": 4})):
        assert main(["dice", "--model", model, "--n", "4", "--triples",
                     "5", "--out", str(out_path)]) == 0
        meta = json.loads((tmp_path / "dice.csv.meta.json").read_text())
        assert meta["spec"]["params"] == params


def test_dice_stationary_path(tmp_path):
    out_path = tmp_path / "st.csv"
    argv = ["dice", "--model", "stationary", "--n", "8", "--hurst", "0.75",
            "--triples", "50", "--seed", "1", "--out", str(out_path)]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "st.csv.meta.json").read_text())
    assert meta["spec"]["params"] == {"model": "stationary", "n": 8,
                                      "hurst": 0.75}
    rows = _parse_csv(out_path.read_text())
    assert rows[0]["hurst"] == "0.75"
    # The circulant embedding is the one stationary route; there is no
    # flag.
    _usage_error(argv + ["--method", "cholesky"])


# ------------------------------------------------------------ elections


def test_elections_stdout_rows(capsys):
    code, out, _ = _run(capsys, ["elections", "--n", "5", "--trials",
                                 "2000", "--seed", "1"])
    assert code == 0
    rows = _parse_csv(out)
    assert len(rows) == 10
    outcome_rows = [r for r in rows if r["statistic"].startswith("outcome_")]
    assert len(outcome_rows) == 8
    assert {r["statistic"] for r in outcome_rows} == {
        "outcome_" + format(i, "03b") for i in range(8)}
    assert sum(float(r["estimate"]) for r in outcome_rows) == pytest.approx(
        1.0, abs=1e-12)
    named = {r["statistic"]: r for r in rows}
    # three candidates: a Condorcet winner and transitivity coincide
    assert (named["transitive"]["estimate"]
            == named["condorcet_winner"]["estimate"])
    for r in rows:
        assert r["model"] == "impartial"
        assert r["k"] == "3"
        assert r["d"] == ""


def test_election_outcome_rows_are_exact_shares_with_wald_stderrs(capsys):
    code, out, _ = _run(capsys, ["elections", "--n", "301", "--d", "3",
                                 "--trials", "40960", "--seed", "5"])
    assert code == 0
    rows = [r for r in _parse_csv(out)
            if r["statistic"].startswith("outcome_")]
    assert len(rows) == 8
    accepted = int(rows[0]["accepted"])
    counts = []
    for r in rows:
        p = float(r["estimate"])
        count = round(p * accepted)
        assert abs(p * accepted - count) < 1e-6
        assert p == count / accepted
        assert float(r["stderr"]) == math.sqrt(p * (1.0 - p) / accepted)
        counts.append(count)
    assert sum(counts) == accepted
    assert min(counts) > 0


def test_elections_conditioning_and_subset_excl(tmp_path):
    out_path = tmp_path / "el.csv"
    code = main(["elections", "--n", "9", "--d", "1", "--subset-excl", "2",
                 "--trials", "4000", "--seed", "7", "--out", str(out_path)])
    assert code == 0
    meta = json.loads((tmp_path / "el.csv.meta.json").read_text())
    assert meta["spec"]["conditioning"] == {"event": "close", "d": 1,
                                            "subset": [0, 1]}
    rows = _parse_csv(out_path.read_text())
    assert int(rows[0]["accepted"]) < int(rows[0]["trials"])
    assert rows[0]["d"] == "1"
    # the same pair spelled as candidates: (1,2) is lex index 2
    code = main(["elections", "--n", "9", "--d", "1", "--subset-excl",
                 "1,2", "--trials", "10", "--seed", "7",
                 "--out", str(out_path)])
    assert code == 0
    meta = json.loads((tmp_path / "el.csv.meta.json").read_text())
    assert meta["spec"]["conditioning"]["subset"] == [0, 1]


# -------------------------------------------------------------- triplet


def test_triplet_sum_mode(capsys):
    code, out, _ = _run(capsys, ["triplet", "--n", "9", "--trials", "2000",
                                 "--seed", "2"])
    assert code == 0
    rows = _parse_csv(out)
    assert [r["statistic"] for r in rows] == ["paradox_rate", "alpha_star"]
    assert float(rows[1]["estimate"]) == pytest.approx(0.23231207,
                                                       abs=1e-6)
    assert rows[0]["model"] == "sum"
    assert rows[0]["rho"] == ""


def test_triplet_noise_mode_reports_alpha_rho(capsys):
    code, out, _ = _run(capsys, ["triplet", "--mode", "noise", "--n", "9",
                                 "--rho", "0.5", "--trials", "1000",
                                 "--seed", "2"])
    assert code == 0
    rows = _parse_csv(out)
    assert [r["statistic"] for r in rows] == ["paradox_rate", "alpha_star",
                                              "alpha_rho"]
    assert rows[0]["rho"] == "0.5"
    # degenerate correlation: no finite-rho prediction row
    code, out, _ = _run(capsys, ["triplet", "--mode", "noise", "--n", "9",
                                 "--rho", "1.0", "--trials", "100",
                                 "--seed", "2"])
    assert code == 0
    rows = _parse_csv(out)
    assert [r["statistic"] for r in rows] == ["paradox_rate", "alpha_star"]


def test_triplet_conditioned_accepts_fewer(capsys):
    code, out, _ = _run(capsys, ["triplet", "--n", "9", "--d", "1",
                                 "--trials", "3000", "--seed", "4"])
    assert code == 0
    rows = _parse_csv(out)
    assert int(rows[0]["accepted"]) < int(rows[0]["trials"])
    assert rows[0]["d"] == "1"


# ------------------------------------------------------- config handling


def test_config_supplies_missing_flags(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 9, "trials": 400, "seed": 5}))
    out_path = tmp_path / "t.csv"
    code = main(["triplet", "--config", str(config), "--out",
                 str(out_path)])
    assert code == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["spec"]["params"]["n"] == 9
    assert meta["spec"]["trials"] == 400
    assert meta["spec"]["seed"] == 5


def test_config_equals_form(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 9, "trials": 400, "seed": 5}))
    out_path = tmp_path / "t.csv"
    assert main(["triplet", "--config=%s" % config, "--out",
                 str(out_path)]) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["spec"]["params"]["n"] == 9
    assert meta["spec"]["trials"] == 400
    assert meta["spec"]["seed"] == 5


def test_explicit_flags_beat_config(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 9, "trials": 400, "seed": 5}))
    out_path = tmp_path / "t.csv"
    code = main(["triplet", "--config", str(config), "--n", "15",
                 "--out", str(out_path)])
    assert code == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["spec"]["params"]["n"] == 15
    assert meta["spec"]["trials"] == 400


def test_config_rejects_unknown_and_malformed(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"not_a_flag": 1}))
    _usage_error(["triplet", "--config", str(bogus), "--n", "9",
                  "--trials", "10"])
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    _usage_error(["triplet", "--config", str(broken), "--n", "9",
                  "--trials", "10"])
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    _usage_error(["triplet", "--config", str(listy), "--n", "9",
                  "--trials", "10"])
    _usage_error(["triplet", "--config", str(tmp_path / "missing.json"),
                  "--n", "9", "--trials", "10"])


@pytest.mark.parametrize("doc", [
    {"n": "abc"},          # not an int
    {"trials": 10.7},      # not an int either, as --trials 10.7 is not
    {"n": 9.0},
    {"mode": "bogus"},     # not one of the choices
    {"n": True},           # bools, lists and objects are not flag values
    {"trials": [10]},
    {"tri": 5},            # only abbreviates --triples
    {"config": "x"},
    {"rho": 0.4},          # a flag sum mode ignores
    # dice flags the chosen model ignores
    {"subcommand": "dice", "model": "discrete", "dist": "uniform"},
    {"subcommand": "dice", "model": "stationary", "hurst": 0.75,
     "dist": "gaussian"},
])
def test_config_values_are_checked_like_flags(tmp_path, doc):
    doc = dict(doc)
    command = doc.pop("subcommand", "triplet")
    size = "triples" if command == "dice" else "trials"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 9, size: 10, **doc}))
    _usage_error([command, "--config", str(config)])


def test_config_null_leaves_flag_unset(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 9, "trials": 50, "d": None}))
    out_path = tmp_path / "t.csv"
    assert main(["triplet", "--config", str(config), "--out",
                 str(out_path)]) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["spec"]["conditioning"] is None
    assert meta["spec"]["trials"] == 50


def test_abbreviated_flags_are_usage_errors():
    _usage_error(["triplet", "--n", "9", "--tri", "10"])


def _fresh_python(code, *argv):
    """stdout of `code` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(intrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          text=True, capture_output=True, check=True).stdout


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    code = ("import sys, intrans.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["elections", "--n", "301", "--d", "3", "--trials", "4096"],
    ["dice", "--model", "discrete", "--n", "20", "--triples", "3"],
], ids=["elections", "dice-discrete"])
def test_runs_without_a_cdf_do_not_load_scipy(tmp_path, argv):
    """Elections and lattice dice call no CDF, so a run of either in a
    fresh interpreter leaves scipy unimported and never builds the
    normal CDF table."""
    code = ("import sys; from intrans.cli import main; "
            "code = main(sys.argv[1:]); "
            "d = sys.modules.get('intrans.distributions'); "
            "built = d is not None and "
            "d._normal_cdf_table.cache_info().currsize > 0; "
            "print(code, 'scipy' in sys.modules, built)")
    out = _fresh_python(code, *argv, "--out", str(tmp_path / "run.csv"))
    assert out.split() == ["0", "False", "False"]


# One small run of every run subcommand path: its sampler and, for
# continuous dice, its face CDF.
RUN_PATHS = [
    ["elections", "--n", "301", "--d", "3", "--trials", "4096"],
    ["triplet", "--n", "9", "--trials", "50"],
    ["triplet", "--mode", "noise", "--n", "9", "--rho", "0.5", "--trials",
     "50"],
    ["dice", "--model", "discrete", "--n", "20", "--triples", "3"],
    ["dice", "--model", "conditioned", "--dist", "uniform", "--n", "20",
     "--triples", "3"],
    ["dice", "--model", "conditioned", "--dist", "gaussian", "--n", "20",
     "--triples", "3"],
    ["dice", "--model", "conditioned", "--dist", "shifted-exp", "--n", "20",
     "--triples", "3"],
    ["dice", "--model", "iid", "--dist", "gaussian", "--n", "20",
     "--triples", "3"],
    ["dice", "--model", "stationary", "--hurst", "0.75", "--n", "32",
     "--triples", "3"],
]


def test_no_run_subcommand_loads_scipy(tmp_path):
    """Every run path, continuous CDFs included, and every verify suite
    need only numpy, so all of them in one fresh interpreter leave scipy
    unimported."""
    code = ("import json, sys; from intrans.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(*codes, 'scipy' in sys.modules)")
    runs = [argv + ["--out", str(tmp_path / ("run%d.csv" % i))]
            for i, argv in enumerate(RUN_PATHS)]
    runs += [["verify", "--suite", suite] for suite in
             ("identities", "covariances", "predictors", "samplers")]
    # The verify suites print their checks first.
    out = _fresh_python(code, json.dumps(runs)).splitlines()[-1].split()
    assert out == ["0"] * len(runs) + ["False"]


def test_continuous_dice_runs_leave_numpy_ma_unloaded(tmp_path):
    """The win-count kernel collects the rows with equal neighbours in a
    set, not by np.unique, whose first call imports numpy.ma; so the
    continuous dice runs in one fresh interpreter leave numpy.ma
    unimported."""
    code = ("import json, sys; from intrans.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(*codes, 'numpy.ma' in sys.modules)")
    runs = [argv + ["--out", str(tmp_path / ("run%d.csv" % i))]
            for i, argv in enumerate(RUN_PATHS)
            if argv[0] == "dice" and argv[2] != "discrete"]
    out = _fresh_python(code, json.dumps(runs)).split()
    assert out == ["0"] * len(runs) + ["False"]


# ----------------------------------------------------------- exit codes


def test_usage_errors_exit_two():
    _usage_error(["dice", "--triples", "10"])
    _usage_error(["dice", "--model", "stationary", "--n", "8",
                  "--triples", "10"])
    _usage_error(["dice", "--model", "conditioned", "--n", "1",
                  "--triples", "10"])
    _usage_error(["elections", "--n", "4", "--trials", "10"])
    _usage_error(["elections", "--n", "5", "--d", "0", "--trials", "10"])
    _usage_error(["elections", "--n", "5", "--subset-excl", "1",
                  "--trials", "10"])
    _usage_error(["elections", "--n", "5", "--d", "1", "--subset-excl",
                  "x", "--trials", "10"])
    _usage_error(["elections", "--n", "5", "--d", "1", "--subset-excl",
                  "0,0", "--trials", "10"])
    _usage_error(["elections", "--n", "5", "--d", "1", "--subset-excl",
                  "7", "--trials", "10"])
    _usage_error(["triplet", "--n", "8", "--trials", "10"])
    _usage_error(["triplet", "--n", "12", "--trials", "10"])
    _usage_error(["triplet", "--mode", "noise", "--n", "9",
                  "--trials", "10"])
    # Values a family rejects when the spec is made: the CLI turns the
    # family's typed error into a usage error.
    _usage_error(["elections", "--n", "3", "--k", "6", "--trials", "10"])
    _usage_error(["triplet", "--mode", "noise", "--n", "9", "--rho", "1.5",
                  "--trials", "10"])
    _usage_error(["dice", "--model", "stationary", "--n", "8", "--hurst",
                  "1.5", "--triples", "10"])
    _usage_error(["dice", "--model", "discrete", "--n", "0", "--triples",
                  "10"])
    _usage_error(["elections", "--n", "5", "--trials", "0"])
    # A flag the chosen model ignores is an error, not silently dropped.
    _usage_error(["triplet", "--n", "33", "--trials", "100", "--rho", "0.4"])
    _usage_error(["dice", "--model", "conditioned", "--n", "10",
                  "--triples", "3", "--hurst", "0.3"])
    _usage_error(["dice", "--n", "10", "--triples", "3", "--hurst", "0.3"])
    _usage_error(["dice", "--model", "discrete", "--n", "10", "--triples",
                  "3", "--dist", "uniform"])
    _usage_error(["dice", "--model", "stationary", "--n", "8", "--hurst",
                  "0.75", "--triples", "3", "--dist", "gaussian"])
    _usage_error(["verify", "--suite", "bogus"])
    _usage_error(["nonsense"])


def test_ignored_flag_error_names_the_family_and_the_key(capsys):
    for argv, family, key in (
            (["dice", "--model", "discrete", "--n", "10", "--triples", "3",
              "--dist", "uniform"], "dice_triples", "dist"),
            (["triplet", "--n", "33", "--trials", "100", "--rho", "0.4"],
             "triplet_paradox", "rho"),
            (["elections", "--n", "5", "--subset-excl", "1", "--trials",
              "10"], "election_outcomes", "d")):
        _usage_error(argv)
        err = capsys.readouterr().err
        assert "%r" % family in err and "%r" % key in err


@pytest.mark.parametrize("argv, message", [
    (["elections", "--n", "5", "--subset-excl", "1", "--trials", "10"],
     "family 'election_outcomes' needs the conditioning key 'd'"),
    (["elections", "--n", "3", "--k", "2", "--d", "1", "--subset-excl", "0",
      "--trials", "10"], "the conditioning subset names no pair"),
], ids=["subset_without_d", "empty_subset"])
def test_conditioning_errors_name_what_is_wrong(capsys, argv, message):
    _usage_error(argv)
    assert message in capsys.readouterr().err


def test_sidecar_workers_is_the_thread_setting(tmp_path, monkeypatch):
    monkeypatch.setenv("INTRANS_THREADS", "3")
    out_path = tmp_path / "el.csv"
    assert main(["elections", "--n", "5", "--trials", "10",
                 "--out", str(out_path)]) == 0
    meta = json.loads((tmp_path / "el.csv.meta.json").read_text())
    assert meta["workers"] == 3
    assert "workers" not in meta["spec"]


def test_numeric_failures_exit_one_with_json(capsys):
    # A failure during the run, not a rejected value: at n=100001 no
    # trial is within d=1, so the acceptance floor aborts it.
    code, _, err = _run(capsys, ["elections", "--n", "100001", "--d", "1",
                                 "--trials", "10"])
    assert code == 1
    payload = json.loads(err.strip())
    assert payload["error"] == "AcceptanceFloorError"
    assert set(payload) == {"error", "message", "observed_rate", "floor",
                            "probe_trials"}
    assert payload["observed_rate"] == 0.0


@pytest.mark.parametrize("cap", ["abc", "0", "-3"])
def test_bad_thread_cap_exits_one_with_json(capsys, monkeypatch, cap):
    monkeypatch.setenv("INTRANS_THREADS", cap)
    code, _, err = _run(capsys, ["elections", "--n", "11", "--trials", "10"])
    assert code == 1
    payload = json.loads(err.strip())
    assert payload["error"] == "InvalidInputError"
    assert "INTRANS_THREADS" in payload["message"]



def test_unwritable_out_exits_one_with_json(capsys, tmp_path):
    out = tmp_path / "missing" / "x.csv"
    code, _, err = _run(capsys, ["elections", "--n", "5", "--trials", "10",
                                 "--out", str(out)])
    assert code == 1
    payload = json.loads(err.strip())
    assert payload["error"] == "FileNotFoundError"
    assert str(out) in payload["message"]
    assert not out.parent.exists()

def test_parser_is_built_once():
    assert build_parser() is build_parser()


# ---------------------------------------------------- in-place output


def _csv_without_wall_time(text):
    """The CSV's lines, each without its last column, wall_time_ms."""
    return [line.rpartition(",")[0] for line in text.split("\r\n")]


def _meta_without_wall_time(text):
    return re.sub(r'"wall_time_ms": [^,\n]*', '"wall_time_ms": 0', text)


def test_rerun_over_longer_files_leaves_a_fresh_runs_bytes(tmp_path):
    argv = ["triplet", "--mode", "noise", "--n", "9", "--rho", "0.5",
            "--trials", "500", "--seed", "4", "--out"]
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    assert main(argv + [str(fresh)]) == 0
    for path in (reused, tmp_path / "reused.csv.meta.json"):
        path.write_text("stale,row\r\n" * 400)
    assert main(argv + [str(reused)]) == 0
    for suffix, strip in (("", _csv_without_wall_time),
                          (".meta.json", _meta_without_wall_time)):
        new = (tmp_path / ("reused.csv" + suffix)).read_bytes().decode()
        old = (tmp_path / ("fresh.csv" + suffix)).read_bytes().decode()
        assert "stale" not in new
        assert strip(new) == strip(old)


def test_out_fifo_receives_the_whole_csv(tmp_path, capsys):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    argv = ["elections", "--n", "5", "--trials", "300", "--seed", "2"]
    assert main(argv + ["--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert main(argv) == 0
    assert (_csv_without_wall_time(received[0].decode())
            == _csv_without_wall_time(capsys.readouterr().out))
    meta = json.loads((tmp_path / "pipe.csv.meta.json").read_text())
    assert meta["subcommand"] == "elections"


def test_writer_failing_partway_leaves_no_old_tail(tmp_path, monkeypatch):
    out_path = tmp_path / "el.csv"
    out_path.write_text("stale,row\r\n" * 400)

    class FailingWriter:
        def __init__(self, fh):
            self.writer = csv.writer(fh)
            self.writerow = self.writer.writerow

        def writerows(self, rows):
            self.writer.writerow(next(iter(rows)))
            raise RuntimeError("disk gone")

    monkeypatch.setattr(cli, "csv", SimpleNamespace(writer=FailingWriter))
    with pytest.raises(RuntimeError, match="disk gone"):
        main(["elections", "--n", "5", "--trials", "300", "--seed", "2",
              "--out", str(out_path)])
    lines = out_path.read_bytes().decode().split("\r\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].split(",")[10] == "outcome_000"
    assert lines[2:] == [""]


# ------------------------------------------------------- reproducibility


def test_same_seed_reproduces_rows(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = main(["elections", "--n", "7", "--d", "1", "--trials",
                     "3000", "--seed", "21", "--out", str(path)])
        assert code == 0
    parsed = [_parse_csv(p.read_text()) for p in paths]
    for row_a, row_b in zip(*parsed):
        for column in CSV_COLUMNS:
            if column == "wall_time_ms":
                continue
            assert row_a[column] == row_b[column]
    metas = [json.loads((tmp_path / (p.name + ".meta.json")).read_text())
             for p in paths]
    assert metas[0]["experiment_id"] == metas[1]["experiment_id"]
    assert metas[0]["spec"] == metas[1]["spec"]


# ---------------------------------------------------------------- verify


@pytest.mark.parametrize("suite", ["identities", "covariances",
                                   "predictors", "samplers"])
def test_verify_suites_pass(capsys, suite):
    code, out, _ = _run(capsys, ["verify", "--suite", suite])
    assert code == 0
    lines = out.strip().splitlines()
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1].endswith("checks passed")
