"""End-to-end command-line behaviour: outputs, manifests, exit codes."""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import random
import subprocess
import sys
import warnings
from pathlib import Path
from string import Template

import pytest

from illnessdeath import (
    Cause,
    IllnessDeathRecord,
    ScenarioConfig,
    TransitionQuery,
    TruncationConfig,
    __version__,
    preset,
    read_cohort,
    run_monte_carlo,
    simulate_cohort,
    write_cohort,
)
from cohortgen import random_cohort
from illnessdeath import cli, estimators, inference
from illnessdeath._rng import streams
from illnessdeath.cli import build_parser, main
from illnessdeath.estimators import ESTIMATORS, Estimator


def _run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--output", str(out)])
    rows = []
    if out.exists():
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
    manifest_path = out.with_name(out.name + ".manifest.json")
    manifest = (
        json.loads(manifest_path.read_text()) if manifest_path.exists() else None
    )
    return code, rows, manifest, out


def _check_unwritable_output(tmp_path, capsys, *argv):
    """An --output in a missing directory exits 2 with the OS error, and no
    output or manifest is written; one whose manifest path is a directory,
    that is a directory itself, or whose writes fail (/dev/full, where there
    is one, or a write that fails midway once both files are open), exits 2
    as well, and leaves no file that was not there before."""
    missing = tmp_path / "no-such-dir"
    assert main([*argv, "--output", str(missing / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno")
    assert not missing.exists()
    (tmp_path / "blocked.csv.manifest.json").mkdir()
    (tmp_path / "folder").mkdir()
    full = [Path("/dev/full")] if Path("/dev/full").exists() else []
    for target in (tmp_path / "blocked.csv", tmp_path / "folder", *full):
        manifest = Path(f"{target}.manifest.json")
        before = target.exists(), manifest.exists()
        assert main([*argv, "--output", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno")
        assert (target.exists(), manifest.exists()) == before
    emit = cli._emit

    def full_disk(target, write, *args):
        def write_then_fail(handle):
            write(handle)
            raise OSError(errno.ENOSPC, "No space left on device")
        emit(target, write_then_fail, *args)

    target = tmp_path / "full.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_emit", full_disk)
        assert main([*argv, "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 28]")
    assert not target.exists() and not Path(f"{target}.manifest.json").exists()


class TestEstimate:
    def test_check_row(self, toy_csv, tmp_path):
        code, rows, manifest, _ = _run(
            tmp_path, "estimate", "--input", toy_csv, "--s", "1.5", "--t", "3.5"
        )
        assert code == 0
        assert len(rows) == 1
        row = rows[0]
        assert row["method"] == "check"
        assert row["s"] == "1.5" and row["t"] == "3.5"
        assert row["estimate"] == "0.666666666667"
        assert row["variance"] == "0.0740740740741"
        assert row["flags"] == ""
        assert manifest["subcommand"] == "estimate"
        assert manifest["parameters"]["method"] == "check"
        assert len(manifest["input_digest"]) == 64
        assert manifest["seed"] == 0

    def test_check_row_warns_of_nothing(self, tmp_path):
        # tied and censored, the largest time a censoring: the check sweep's
        # SupportWarning becomes a flag, and the variance sweep warns of nothing
        cohort = random_cohort(random.Random(5), max_n=40)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rows, _, _ = _run(
                tmp_path, "estimate", "--input", str(path), "--s", "1.5", "--t", "2,3.5,5,8"
            )
        assert code == 0
        assert [r["flags"] for r in rows] == ["support"] * 4
        # no illness onset in (1.5, 2] and none alive past 8: estimate and variance 0
        assert [r["estimate"] == r["variance"] == "0" for r in rows] == [True, False, False, True]
        assert all(0 <= float(r["variance"]) < 0.25 for r in rows)

    def test_delayed_entry_fails_both_mm_forms(self, tmp_path):
        cohort = random_cohort(random.Random(3), max_n=40, truncated=True)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        code, rows, _, _ = _run(
            tmp_path, "estimate", "--input", str(path), "--s", "1.5", "--t", "2,5",
            "--method", "all",
        )
        assert code == 0
        by = {r["method"]: (r["estimate"], r["flags"]) for r in rows}
        assert by["mm"] == by["mm-stute"] == ("", "error:DelayedEntry")
        assert by["check"][0] != "" and by["aj"][0] != ""

    def test_mm_row(self, toy_csv, tmp_path):
        code, rows, _, _ = _run(
            tmp_path,
            "estimate", "--input", toy_csv, "--s", "1.5", "--t", "3.5",
            "--method", "mm",
        )
        assert code == 0
        assert rows[0]["estimate"] == "0.5"
        assert rows[0]["variance"] == ""  # plug-in variance is landmark-only

    def test_all_methods_and_time_list(self, toy_csv, tmp_path):
        code, rows, _, _ = _run(
            tmp_path,
            "estimate", "--input", toy_csv, "--s", "1.5",
            "--t", "3.5,2.5,3.5", "--method", "all",
        )
        assert code == 0
        assert [(r["method"], r["t"]) for r in rows] == [
            ("check", "2.5"), ("check", "3.5"),
            ("mm", "2.5"), ("mm", "3.5"),
            ("mm-stute", "2.5"), ("mm-stute", "3.5"),
            ("aj", "2.5"), ("aj", "3.5"),
        ]
        by = {(r["method"], r["t"]): r for r in rows}
        assert by[("mm", "3.5")]["estimate"] == by[("mm-stute", "3.5")]["estimate"]
        assert "stute-mismatch" not in by[("mm-stute", "3.5")]["flags"]
        assert by[("aj", "3.5")]["estimate"] == "0.666666666667"

    def test_stdout_with_manifest_on_stderr(self, toy_csv, capsys):
        code = main(
            ["estimate", "--input", toy_csv, "--s", "1.5", "--t", "3.5",
             "--output", "-"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines()[0].startswith("method,s,t,estimate")
        manifest = json.loads(captured.err)
        assert manifest["subcommand"] == "estimate"

    def test_boot_keeps_stderr_pure_json(self, tmp_path):
        # a fresh interpreter prints warnings that escape; pytest would record them
        cohort = simulate_cohort(preset("table1", n=60, seed=100).config)
        assert not max(cohort, key=lambda r: r.final_time).observed
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        captured = subprocess.run(
            [sys.executable, "-m", "illnessdeath", "estimate", "--input", str(path),
             "--s", "10", "--t", "50", "--method", "check", "--boot", "20",
             "--output", "-"],
            capture_output=True, text=True,
        )
        assert captured.returncode == 0
        row = list(csv.DictReader(captured.stdout.splitlines()))[0]
        assert row["flags"] == "support"
        assert json.loads(captured.stderr)["parameters"]["boot"] == 20

    def test_boot_with_one_surviving_resample_keeps_stderr_pure_json(self, toy_csv):
        # one of the two resamples fails for every method, so no spread is left
        captured = subprocess.run(
            [sys.executable, "-m", "illnessdeath", "estimate", "--input", toy_csv,
             "--s", "2", "--t", "3.5", "--method", "all", "--boot", "2", "--seed", "1",
             "--output", "-"],
            capture_output=True, text=True,
        )
        assert captured.returncode == 0
        rows = list(csv.DictReader(captured.stdout.splitlines()))
        assert [(r["n_failed"], r["boot_variance"]) for r in rows] == [("1", "nan")] * 4
        assert json.loads(captured.stderr)["parameters"]["boot"] == 2

    def test_time_grid_rows_match_single_t_runs(self, tmp_path):
        # censored and left-truncated: the largest time is a censoring, and
        # both mm forms refuse the delayed entries at every t
        cohort = [
            IllnessDeathRecord("a", 0, 0.5, Cause.ILL, 1, Cause.CENSORED),
            IllnessDeathRecord("b", 0, 2, Cause.ILL, 9, Cause.ABSORBED),
            IllnessDeathRecord("c", 0, 1, Cause.ABSORBED),
            IllnessDeathRecord("d", 0.5, 2.5, Cause.ILL, 4, Cause.ABSORBED),
            IllnessDeathRecord("e", 1, 12, Cause.CENSORED),
        ]
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        base = ["estimate", "--input", str(path), "--s", "1.5", "--method", "all"]

        def lines(times):
            out = tmp_path / "out.csv"
            assert main([*base, "--t", times, "--output", str(out)]) == 0
            return out.read_text().splitlines()

        grid = lines("10,3,5")
        singles = [lines(t) for t in ("3", "5", "10")]
        assert all(single[0] == grid[0] for single in singles)
        assert grid[1:] == [single[1 + m] for m in range(4) for single in singles]
        flags = {(r["method"], r["t"]): r["flags"] for r in csv.DictReader(grid)}
        assert flags[("check", "3")] == flags[("check", "10")] == "support"
        for method in ("mm", "mm-stute"):
            assert [flags[(method, t)] for t in ("3", "5", "10")] == ["error:DelayedEntry"] * 3
        assert flags[("aj", "3")] == ""

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ([], "9ff256508e73efb5be81dfde39351b109206ef60dd9f4fbfa60cc9297a03bd54"),
            (
                ["--boot", "40", "--seed", "3"],
                "2a1fab2aa45909696b7b3a5f4b3044624de660510c2275e5d1d2950050230876",
            ),
        ],
    )
    def test_all_methods_bytes_are_pinned(self, tmp_path, capsys, extra, digest):
        # tied, left-truncated cohort; the rows carry support and
        # error:DelayedEntry flags, the variance column or the bootstrap columns
        cohort = random_cohort(random.Random(3), max_n=40, truncated=True)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        code = main(
            ["estimate", "--input", str(path), "--s", "1.5", "--t", "2,3.5,5",
             "--method", "all", *extra, "--output", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_both_mm_forms_judge_range_on_one_value(self, tmp_path):
        # the ratio is exactly 1 here: mm computes 1.0, mm-stute
        # 1.0000000000000002; only a form run alone is judged on its own value
        cohort = random_cohort(random.Random(5544), max_n=25, censored=False)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)

        def flags(method):
            code, rows, _, _ = _run(
                tmp_path, "estimate", "--input", str(path), "--s", "2", "--t", "4.25",
                "--method", method,
            )
            assert code == 0
            return {r["method"]: (r["estimate"], r["flags"]) for r in rows}

        both = flags("all")
        assert both["mm"] == both["mm-stute"] == ("1", "")
        assert flags("mm-stute")["mm-stute"] == ("1", "range")

    def test_stute_mismatch_keeps_its_own_range_verdict(self, tmp_path, monkeypatch):
        # an mm-stute off mm's value by more than the tolerance is flagged, and
        # judged on its own value; mm's row is unchanged
        cohort = random_cohort(random.Random(5544), max_n=25, censored=False)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        real = ESTIMATORS["mm-stute"]

        def shifted(prepared, weights=None):
            return [value + 1e-6 for value in real.evaluate(prepared, weights)]

        monkeypatch.setitem(ESTIMATORS, "mm-stute", Estimator(real.prepare, shifted))
        code, rows, _, _ = _run(
            tmp_path, "estimate", "--input", str(path), "--s", "2", "--t", "4.25",
            "--method", "all",
        )
        assert code == 0
        flags = {r["method"]: r["flags"] for r in rows}
        assert (flags["mm"], flags["mm-stute"]) == ("", "range;stute-mismatch")

    def test_too_few_surviving_resamples_blank_the_interval(self, tmp_path):
        # every resample of a two-subject cohort fails at s = 2, for every method
        path = tmp_path / "two.csv"
        path.write_text("id,entry,exit0,cause0,exit1,cause1\nA,0,1,2,,\nB,0,3,1,5,2\n")
        code, rows, _, _ = _run(
            tmp_path, "estimate", "--input", str(path), "--s", "2", "--t", "4",
            "--method", "all", "--boot", "2", "--seed", "22",
        )
        assert code == 0
        assert [r["method"] for r in rows] == ["check", "mm", "mm-stute", "aj"]
        assert all(r["estimate"] == "1" for r in rows)
        assert all(r["flags"] == "error:TooManyFailures" for r in rows)
        columns = ("boot_variance", "q_lo", "q_hi", "n_lo", "n_hi", "n_boot", "n_failed")
        assert all(r[c] == "" for r in rows for c in columns)

    def test_boot_draws_each_resample_once_per_cohort(self, tmp_path, monkeypatch):
        calls = []

        def counting_streams(seed, indices):
            calls.extend(indices)
            return streams(seed, indices)

        monkeypatch.setattr(inference, "streams", counting_streams)
        cohort = random_cohort(random.Random(3), max_n=40, truncated=True)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        argv = ["estimate", "--input", str(path), "--s", "1.5", "--t", "2,3.5,5",
                "--method", "all", "--boot", "40", "--output", str(tmp_path / "o.csv")]
        assert main(argv) == 0
        assert calls == list(range(40))  # not 40 per (method, t)

    def test_boot_and_bootstrap_ci_prepare_each_method_once(self, tmp_path, monkeypatch):
        # the resamples read the preparation of the rows (or of the point
        # estimate); the two mm forms share one prepare step
        prepared = []

        def spy(step):
            def prepare(*args):
                prepared.append(step)
                return step(*args)

            return prepare

        spies = {estimator.prepare: spy(estimator.prepare) for estimator in ESTIMATORS.values()}
        for method, estimator in list(ESTIMATORS.items()):
            spied = Estimator(spies[estimator.prepare], estimator.evaluate)
            monkeypatch.setitem(ESTIMATORS, method, spied)
        cohort = random_cohort(random.Random(3), max_n=40)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        argv = ["estimate", "--input", str(path), "--s", "1.5", "--t", "2,3.5,5",
                "--method", "all", "--boot", "10", "--output", str(tmp_path / "o.csv")]
        assert main(argv) == 0
        assert sorted(map(id, prepared)) == sorted(map(id, spies))
        prepared.clear()
        ci = inference.bootstrap_ci(cohort, TransitionQuery(1.5, 3.5), "aj", n_boot=10)
        assert prepared == [estimators._prepare_aj] and ci.n_boot == 10

    def test_truncated_cohort_resamples_only_methods_with_estimates(
        self, tmp_path, capsys, monkeypatch
    ):
        # on a left-truncated table3 cohort both mm forms fail (DelayedEntry),
        # so no resample evaluates them; the bytes are the same as when every
        # method was resampled
        path = tmp_path / "cohort.csv"
        write_cohort(simulate_cohort(preset("table3", n=150, seed=11).config), path)
        weighted = []
        for method, estimator in ESTIMATORS.items():

            def evaluate(prepared, weights=None, method=method, inner=estimator.evaluate):
                if weights is not None:
                    weighted.append(method)
                return inner(prepared, weights)

            monkeypatch.setitem(ESTIMATORS, method, Estimator(estimator.prepare, evaluate))
        code = main(
            ["estimate", "--input", str(path), "--s", "10", "--t", "30,50", "--method", "all",
             "--boot", "40", "--seed", "3", "--output", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert set(weighted) == {"check", "aj"}
        assert "mm,10,30,,,,,,,,,error:DelayedEntry" in out.splitlines()
        digest = "4184f19a1cc850079a3ef6f7ff2e3ea2f89c23d3568b394026733a610e30114d"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_estimate_builds_one_landmark_grid(self, tmp_path, monkeypatch):
        # check's rows and its variance column read one product-limit grid
        built = []

        class Counted(estimators._ProductLimit):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(estimators, "_ProductLimit", Counted)
        cohort = random_cohort(random.Random(3), max_n=40, truncated=True)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        code, rows, _, _ = _run(
            tmp_path, "estimate", "--input", str(path), "--s", "1.5", "--t", "2,3.5,5",
            "--method", "check",
        )
        assert code == 0
        assert [row["variance"] != "" for row in rows] == [True] * 3
        assert len(built) == 1

    def test_bootstrap_columns(self, toy_csv, tmp_path):
        code, rows, manifest, _ = _run(
            tmp_path,
            "estimate", "--input", toy_csv, "--s", "1.5", "--t", "3.5",
            "--boot", "80", "--seed", "5",
        )
        assert code == 0
        row = rows[0]
        assert row["n_boot"] == "80"
        assert float(row["q_lo"]) <= float(row["q_hi"])
        assert float(row["n_lo"]) <= float(row["n_hi"])
        assert float(row["boot_variance"]) >= 0
        assert manifest["seed"] == 5

    def test_clipping_option(self, toy_csv, tmp_path):
        code, rows, manifest, _ = _run(
            tmp_path,
            "estimate", "--input", toy_csv, "--s", "1.5", "--t", "2.5",
            "--tau", "4.0",
        )
        assert code == 0
        assert manifest["parameters"]["tau"] == 4.0
        assert rows[0]["estimate"] != ""

    def test_reruns_are_byte_identical(self, toy_csv, tmp_path):
        argv = ["estimate", "--input", toy_csv, "--s", "1.5", "--t", "3.5",
                "--boot", "40"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main([*argv, "--output", str(a)]) == 0
        assert main([*argv, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_cells_failing_exits_3(self, toy_csv, tmp_path):
        code, rows, _, _ = _run(
            tmp_path,
            "estimate", "--input", toy_csv, "--s", "100", "--t", "150",
        )
        assert code == 3
        assert rows[0]["estimate"] == ""
        assert rows[0]["flags"].startswith("error:")

    def test_boot_after_tau_drops_every_subject(self, tmp_path):
        path = tmp_path / "late.csv"
        write_cohort([IllnessDeathRecord("a", 2, 5, Cause.ABSORBED)], path)
        code, rows, _, _ = _run(
            tmp_path,
            "estimate", "--input", str(path), "--s", "0", "--t", "1",
            "--method", "all", "--boot", "20", "--tau", "1",
        )
        assert code == 3
        assert [r["flags"] for r in rows] == [
            "error:EmptyLandmark", "error:EmptyRiskSet", "error:EmptyRiskSet", "error:EmptyLandmark"
        ]

    def test_partial_failure_still_succeeds(self, toy_csv, tmp_path):
        # a valid cell at t=3.5 plus a doomed method keeps the run at 0
        code, rows, _, _ = _run(
            tmp_path,
            "estimate", "--input", toy_csv, "--s", "1.5", "--t", "3.5",
            "--method", "all", "--tau", "3.0",
        )
        assert code in (0, 3)  # smoke: bounded by contract
        assert rows


class TestEstimateUsageErrors:
    def test_window_order(self, toy_csv, tmp_path, capsys):
        code, _, _, _ = _run(
            tmp_path, "estimate", "--input", toy_csv, "--s", "5", "--t", "3"
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input(self, tmp_path):
        code, _, _, _ = _run(
            tmp_path, "estimate", "--input", str(tmp_path / "no.csv"),
            "--s", "1", "--t", "2",
        )
        assert code == 2

    def test_malformed_line_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,entry,exit0,cause0,exit1,cause1\nA,0,1,2,,\nB,0,x,2,,\n")
        code, _, _, _ = _run(
            tmp_path, "estimate", "--input", str(bad), "--s", "1", "--t", "2"
        )
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "transform"])
    def test_field_past_the_size_limit_is_reported(self, tmp_path, capsys, command):
        # csv.reader rejects the field; that is malformed input, not a crash
        bad = tmp_path / "bad.csv"
        bad.write_text(f"id,entry,exit0,cause0,exit1,cause1\nA,0,1,2,,{'x' * 131073}\n")
        argv = ["--s", "1", "--t", "2"] if command == "estimate" else ["--tau", "3"]
        code, _, _, _ = _run(tmp_path, command, "--input", str(bad), *argv)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 2: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("command", ["estimate", "transform"])
    def test_input_that_is_not_utf8_is_reported(self, tmp_path, capsys, command):
        # a Latin-1 id is malformed input: no traceback, and nothing written
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"id,entry,exit0,cause0,exit1,cause1\n\xe9A,0,1,2,,\n")
        argv = ["--s", "0", "--t", "1"] if command == "estimate" else ["--tau", "1"]
        code, _, manifest, out = _run(tmp_path, command, "--input", str(bad), *argv)
        assert code == 2 and manifest is None and not out.exists()
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text: invalid continuation byte\n"
        )

    def test_header_only_input(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("id,entry,exit0,cause0,exit1,cause1\n")
        code, _, _, _ = _run(
            tmp_path, "estimate", "--input", str(empty), "--s", "1", "--t", "2"
        )
        assert code == 2

    def test_bad_tau_boot_level(self, toy_csv, tmp_path, capsys):
        base = ["estimate", "--input", toy_csv, "--s", "1.5", "--t", "3.5"]
        assert _run(tmp_path, *base, "--tau", "0")[0] == 2
        assert _run(tmp_path, *base, "--boot", "1")[0] == 2
        assert _run(tmp_path, *base, "--level", "1.5")[0] == 2
        capsys.readouterr()
        assert _run(tmp_path, *base, "--tau", "nan")[0] == 2
        assert capsys.readouterr().err == "error: --tau must be positive\n"
        _check_unwritable_output(tmp_path, capsys, *base)

    def test_negative_boot_seed_is_usage_error(self, toy_csv, tmp_path, capsys):
        code, _, manifest, _ = _run(
            tmp_path, "estimate", "--input", toy_csv, "--s", "1.5", "--t", "3.5",
            "--boot", "10", "--seed", "-1",
        )
        assert code == 2 and manifest is None
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"

    @pytest.mark.parametrize(
        "times, message",
        [("abc", "bad time list: 'abc'"), (",", "empty time list")],
        ids=["not-a-number", "empty"],
    )
    def test_bad_time_list_is_usage_error(self, toy_csv, tmp_path, capsys, times, message):
        code, _, manifest, _ = _run(
            tmp_path, "estimate", "--input", toy_csv, "--s", "1", "--t", times
        )
        assert code == 2 and manifest is None
        assert capsys.readouterr().err.endswith(f"--t: {message}\n")

    def test_unknown_method_is_usage_error(self, toy_csv, tmp_path):
        code = main(
            ["estimate", "--input", toy_csv, "--s", "1", "--t", "2",
             "--method", "magic", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2


# a tiny left-truncated design: some replications retain no subject, others
# have an empty landmark (check, aj); mm and mm-stute refuse every replication
# (DelayedEntry), so their cells are all excluded
FRAGILE_DESIGN = "n = 3\ncensor_hazard = 0.05\ntruncation = skew_normal\ntruncation_location = 3\n"

# SHA-256 of `simulate --output -` stdout; the batching of the replications
# must not change a byte
SIMULATE_DIGESTS = {
    "table1": "40a03999f9e1aa40a9b157e86415efd22d0e51098436148a46d562eb36887d96",
    "table2": "6fc692edd4b6e45bc951cb61efcf0064a4660773701df10d6998bbdf363560b4",
    "table3": "95f1ea766b679315d30618416365a798d0e991d88d173eccf087318004e342ee",
    "custom": "f4abb06049772eb294ec83d0458dfa8d8b192fb6ece676b6a60baf2a72df24eb",
    # the custom design through run_monte_carlo with all four estimators
    "custom-all": "7b36aff2d20d9ee57d1ccead89591bb15d1ab0a56646248e868b6363c99b89f8",
}


class TestSimulate:
    def test_preset_row_order(self, tmp_path):
        code, rows, manifest, _ = _run(
            tmp_path,
            "simulate", "--scenario", "table1", "--reps", "6", "--n", "30",
            "--seed", "3", "--t", "30,50",
        )
        assert code == 0
        assert [(r["estimator"], r["t"]) for r in rows] == [
            ("check", "30"), ("check", "50"),
            ("mm", "30"), ("mm", "50"),
            ("aj", "30"), ("aj", "50"),
        ]
        assert manifest["parameters"]["censor_hazard"] == 0.013
        assert manifest["parameters"]["truncation"] is None
        assert manifest["seed"] == 3

    @pytest.mark.parametrize("name", sorted(SIMULATE_DIGESTS))
    def test_output_bytes_are_pinned(self, tmp_path, capsys, name):
        if name == "custom-all":
            config = ScenarioConfig(
                n=3, censor_hazard=0.05, truncation=TruncationConfig(location=3.0),
                seed=3, replications=60,
            )
            table = run_monte_carlo(config, ("check", "mm", "mm-stute", "aj"), workers=1)
            sink = io.StringIO()
            table.to_csv(sink)
            out = sink.getvalue()
        else:
            argv = ["--scenario", name, "--reps", "100", "--seed", "7"]
            if name == "custom":
                cfg = tmp_path / "fragile.cfg"
                cfg.write_text(FRAGILE_DESIGN)
                argv = ["--scenario", "custom", "--config", str(cfg), "--reps", "60",
                        "--seed", "3"]
            assert main(["simulate", *argv, "--output", "-"]) == 0
            out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_DIGESTS[name]

    def test_failing_replications_keep_stderr_pure_json(self, tmp_path):
        # a fresh interpreter prints warnings that escape; pytest would record them
        cfg = tmp_path / "fragile.cfg"
        cfg.write_text(FRAGILE_DESIGN)
        captured = subprocess.run(
            [sys.executable, "-m", "illnessdeath", "simulate", "--scenario", "custom",
             "--config", str(cfg), "--reps", "60", "--seed", "3", "--output", "-"],
            capture_output=True, text=True,
        )
        assert captured.returncode == 0
        rows = list(csv.DictReader(captured.stdout.splitlines()))
        assert {r["estimator"] for r in rows if int(r["n_excluded"]) > 0} == {"check", "mm", "aj"}
        assert json.loads(captured.stderr)["parameters"]["replications"] == 60

    def test_truncated_preset_estimators(self, tmp_path):
        code, rows, manifest, _ = _run(
            tmp_path,
            "simulate", "--scenario", "table3", "--reps", "5", "--n", "40",
            "--seed", "2", "--t", "30",
        )
        assert code == 0
        assert [r["estimator"] for r in rows] == ["aj", "check"]
        assert manifest["parameters"]["truncation"]["shape"] == 10.0
        assert 0 < manifest["parameters"]["mean_cohort_size"] <= 40

    def test_worker_env_does_not_change_bytes(self, tmp_path, monkeypatch):
        argv = ["simulate", "--scenario", "table2", "--reps", "8", "--n", "25",
                "--seed", "7", "--t", "30,60"]
        a = tmp_path / "w1.csv"
        b = tmp_path / "w2.csv"
        monkeypatch.setenv("ILLNESSDEATH_WORKERS", "1")
        assert main([*argv, "--output", str(a)]) == 0
        monkeypatch.setenv("ILLNESSDEATH_WORKERS", "2")
        assert main([*argv, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers", ["two", "-3", "0"])
    def test_invalid_worker_env_is_usage_error(
        self, tmp_path, monkeypatch, capsys, workers
    ):
        monkeypatch.setenv("ILLNESSDEATH_WORKERS", workers)
        code, _, _, _ = _run(
            tmp_path, "simulate", "--scenario", "table1", "--reps", "2", "--n", "10"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ILLNESSDEATH_WORKERS" in err

    def test_custom_scenario(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        cfg.write_text(
            "# toy design\n"
            "n = 30\n"
            "replications = 5\n"
            "censor_hazard = 0.02\n"
            "seed = 11\n"
        )
        code, rows, manifest, _ = _run(
            tmp_path,
            "simulate", "--scenario", "custom", "--config", str(cfg), "--t", "30",
        )
        assert code == 0
        assert {r["estimator"] for r in rows} == {"check", "mm", "aj"}
        assert manifest["parameters"]["censor_hazard"] == 0.02

    def test_custom_requires_config(self, tmp_path):
        code, _, _, _ = _run(tmp_path, "simulate", "--scenario", "custom")
        assert code == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 3\n")
        code, _, _, _ = _run(
            tmp_path, "simulate", "--scenario", "custom", "--config", str(cfg)
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'frobnicate'\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n = 10\n# a comment\nreplications 2\n", "{cfg}:3: expected key=value"),
            ("truncation = gamma\n", "{cfg}: truncation must be none or skew_normal, got gamma"),
        ],
        ids=["no-equals-sign", "unknown-truncation"],
    )
    def test_bad_config_line_is_usage_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, _, manifest, _ = _run(
            tmp_path, "simulate", "--scenario", "custom", "--config", str(cfg)
        )
        assert code == 2 and manifest is None
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"id,entry\n\xe9A,0\n", "{cfg}: not UTF-8 text: invalid continuation byte"),
            (b"n = 1e3\n", "{cfg}: n: invalid literal for int() with base 10: '1e3'"),
        ],
        ids=["not-utf8", "unconvertible-value"],
    )
    def test_config_errors_name_the_file(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(text)
        code, _, manifest, _ = _run(
            tmp_path, "simulate", "--scenario", "custom", "--config", str(cfg)
        )
        assert code == 2 and manifest is None
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"

    def test_degenerate_design_exits_4(self, tmp_path):
        cfg = tmp_path / "doomed.cfg"
        cfg.write_text(
            "n = 4\nreplications = 3\ntruncation = skew_normal\n"
            "truncation_location = 1000000\ntruncation_scale = 1\n"
        )
        code, _, _, _ = _run(
            tmp_path,
            "simulate", "--scenario", "custom", "--config", str(cfg), "--t", "30",
        )
        assert code == 4

    def test_nan_hazard_and_unwritable_output_are_usage_errors(
        self, tmp_path, capsys
    ):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("n = 10\nreplications = 2\ncensor_hazard = nan\n")
        code, _, manifest, _ = _run(
            tmp_path, "simulate", "--scenario", "custom", "--config", str(cfg)
        )
        assert code == 2 and manifest is None
        assert capsys.readouterr().err.startswith(f"error: {cfg}: censor hazard must be >= 0")
        _check_unwritable_output(
            tmp_path, capsys, "simulate", "--scenario", "table1", "--reps", "2",
            "--n", "10",
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("hazard_ill = inf", "hazard_ill must be finite"),
            ("censor_hazard = inf", "censor_hazard must be finite"),
            ("progression_factor = inf", "progression_factor must be finite"),
            ("truncation_location = nan", "truncation location must be finite"),
            ("truncation_shape = inf", "truncation shape must be finite"),
        ],
    )
    def test_non_finite_design_value_is_usage_error(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(f"n = 10\nreplications = 2\n{line}\n")
        code, _, manifest, _ = _run(
            tmp_path, "simulate", "--scenario", "custom", "--config", str(cfg), "--t", "30"
        )
        assert code == 2 and manifest is None
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    @pytest.mark.parametrize("key", ["truncation_scale", "truncation_location"])
    def test_truncation_key_beside_truncation_none_is_usage_error(self, tmp_path, capsys, key):
        # either order: none is never silently overridden by a parameter
        for lines in ([f"{key} = 5", "truncation = none"], ["truncation = none", f"{key} = 5"]):
            cfg = tmp_path / "none.cfg"
            cfg.write_text("\n".join(["n = 10", "replications = 2", *lines]) + "\n")
            code, _, manifest, _ = _run(
                tmp_path, "simulate", "--scenario", "custom", "--config", str(cfg), "--t", "30"
            )
            assert code == 2 and manifest is None
            assert capsys.readouterr().err == f"error: {cfg}: {key} is set, but truncation = none\n"

    def test_zero_reps_is_usage_error(self, tmp_path):
        code, _, _, _ = _run(
            tmp_path, "simulate", "--scenario", "table1", "--reps", "0"
        )
        assert code == 2


class TestTransform:
    def test_clips_and_round_trips(self, toy_csv, tmp_path):
        code, rows, manifest, out = _run(
            tmp_path, "transform", "--input", toy_csv, "--tau", "2.75"
        )
        assert code == 0
        clipped = read_cohort(out)
        assert max(r.final_time for r in clipped) <= 2.75
        assert all(r.observed or r.final_time < 2.75 for r in clipped)
        assert manifest["parameters"]["tau"] == 2.75
        # C had illness at 3 > tau: the whole path collapses to absorption
        by_id = {r.id: r for r in clipped}
        assert by_id["C"].exit0 == 2.75 and by_id["C"].observed

    def test_identity_when_tau_beyond_support(self, toy_csv, tmp_path):
        code, _, _, out = _run(
            tmp_path, "transform", "--input", toy_csv, "--tau", "100"
        )
        assert code == 0
        with open(toy_csv, newline="") as handle:
            original = handle.read()
        assert out.read_text() == original

    def test_bad_tau(self, toy_csv, tmp_path, capsys):
        code, _, _, _ = _run(
            tmp_path, "transform", "--input", toy_csv, "--tau", "-1"
        )
        assert code == 2
        capsys.readouterr()
        code, _, manifest, _ = _run(
            tmp_path, "transform", "--input", toy_csv, "--tau", "nan"
        )
        assert code == 2 and manifest is None
        assert capsys.readouterr().err == "error: --tau must be positive\n"
        _check_unwritable_output(
            tmp_path, capsys, "transform", "--input", toy_csv, "--tau", "2"
        )


# the manifest text of each subcommand, beside its output and on stderr;
# $input is the JSON string of the input path, $version the package version
MANIFESTS = {
    "estimate": (
        ["--s", "1.5", "--t", "3.5,2.5", "--method", "all", "--boot", "5", "--seed", "4",
         "--tau", "5"],
        """{
  "input_digest": "6385d005725b898d23a717119e6fe8b211bc0e2fa1a8305d0986b5745a21c78e",
  "parameters": {
    "boot": 5,
    "input": $input,
    "level": 0.95,
    "method": "all",
    "s": 1.5,
    "t": [
      2.5,
      3.5
    ],
    "tau": 5.0
  },
  "seed": 4,
  "subcommand": "estimate",
  "version": "$version"
}
""",
    ),
    "simulate": (
        ["--scenario", "table3", "--reps", "3", "--n", "20", "--seed", "3", "--t", "30"],
        """{
  "input_digest": null,
  "parameters": {
    "censor_hazard": 0.013,
    "estimators": [
      "aj",
      "check"
    ],
    "hazard_direct": 0.026,
    "hazard_ill": 0.039,
    "mean_cohort_size": 17.666666666666668,
    "n": 20,
    "progression_factor": 1.7,
    "replications": 3,
    "s": 10.0,
    "scenario": "table3",
    "t": [
      30.0
    ],
    "truncation": {
      "location": -5.0,
      "scale": 10.0,
      "shape": 10.0
    }
  },
  "seed": 3,
  "subcommand": "simulate",
  "version": "$version"
}
""",
    ),
    "transform": (
        ["--tau", "2.75"],
        """{
  "input_digest": "6385d005725b898d23a717119e6fe8b211bc0e2fa1a8305d0986b5745a21c78e",
  "parameters": {
    "input": $input,
    "tau": 2.75
  },
  "seed": null,
  "subcommand": "transform",
  "version": "$version"
}
""",
    ),
}


@pytest.mark.parametrize("command", sorted(MANIFESTS))
def test_manifest_text_is_pinned(toy_csv, tmp_path, capsys, command):
    extra, text = MANIFESTS[command]
    argv = [command, *extra] if command == "simulate" else [command, "--input", toy_csv, *extra]
    expected = Template(text).substitute(input=json.dumps(toy_csv), version=__version__)
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert Path(f"{out}.manifest.json").read_text(encoding="utf-8") == expected
    capsys.readouterr()
    assert main([*argv, "--output", "-"]) == 0
    assert capsys.readouterr().err == expected


def test_module_entry_point(toy_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "illnessdeath", "estimate", "--input", toy_csv,
         "--s", "1.5", "--t", "3.5", "--output", "-"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("check,1.5,3.5,0.666666666667")
    json.loads(proc.stderr)  # the manifest rides on stderr


def test_help_exits_clean():
    assert main(["--help"]) == 0


def test_the_parser_carries_no_state_between_calls(tmp_path, capsys):
    # one parser serves every call in a process: each call below exits and
    # writes what it does as the first call of a fresh interpreter
    assert build_parser() is build_parser()
    path = tmp_path / "cohort.csv"
    write_cohort(simulate_cohort(preset("table1", n=60, seed=100).config), path)
    estimate = ["estimate", "--input", str(path), "--s", "10", "--t", "30,50", "--method", "all"]
    calls = [
        (2, [*estimate, "--boot", "ten"]),
        (0, [*estimate, "--boot", "10", "--seed", "3"]),
        (0, estimate),
        (0, ["simulate", "--scenario", "table1", "--reps", "20", "--n", "50", "--seed", "3"]),
    ]
    for i, (code, argv) in enumerate(calls):
        here, fresh = tmp_path / f"here-{i}.csv", tmp_path / f"fresh-{i}.csv"
        assert main([*argv, "--output", str(here)]) == code
        proc = subprocess.run(
            [sys.executable, "-m", "illnessdeath", *argv, "--output", str(fresh)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (code, capsys.readouterr().err)
        for suffix in ("", ".manifest.json"):
            mine, theirs = (Path(f"{out}{suffix}") for out in (here, fresh))
            assert mine.exists() == theirs.exists() == (code == 0)
            assert code or mine.read_bytes() == theirs.read_bytes()


def test_importing_the_cli_loads_no_process_pool():
    # run_monte_carlo imports the pool, and with it multiprocessing, socket
    # and subprocess, only when it starts more than one worker
    code = (
        "import sys, illnessdeath.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_importing_the_cli_loads_no_numpy_random():
    # numpy loads np.random on first use (about 5 ms once the package is
    # imported): the simulator and the bootstrap look it up only when they draw
    code = "import sys, illnessdeath.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
