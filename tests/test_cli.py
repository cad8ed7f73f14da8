"""End-to-end command-line behaviour: outputs, manifests, exit codes."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

from illnessdeath import (
    Cause,
    IllnessDeathRecord,
    ScenarioConfig,
    TruncationConfig,
    preset,
    read_cohort,
    run_monte_carlo,
    simulate_cohort,
    write_cohort,
)
from cohortgen import random_cohort
from illnessdeath import inference
from illnessdeath._rng import philox
from illnessdeath.cli import main


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
    output or manifest is written."""
    missing = tmp_path / "no-such-dir"
    assert main([*argv, "--output", str(missing / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno")
    assert not missing.exists()


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
        assert row["variance"] == "0.148148148148"
        assert row["flags"] == ""
        assert manifest["subcommand"] == "estimate"
        assert manifest["parameters"]["method"] == "check"
        assert len(manifest["input_digest"]) == 64
        assert manifest["seed"] == 0

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
        # censored and left-truncated: the largest time is a censoring, the
        # mm ratio exceeds 1 at t=3 only, and the two mm forms disagree
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
        assert flags[("mm", "3")] == "range;support"
        assert flags[("mm", "5")] == flags[("mm", "10")] == "support"
        assert flags[("mm-stute", "3")] == "range;stute-mismatch;support"
        assert flags[("mm-stute", "5")] == "stute-mismatch;support"
        assert flags[("aj", "3")] == ""

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ([], "9f36d82d59560d07e90d01caab0150b97df14a311d6eca61b09297b66a1256d7"),
            (
                ["--boot", "40", "--seed", "3"],
                "7a37761659bbb933503f28279cd3520aa0e08e84f83655a8de37449085fb8fd8",
            ),
        ],
    )
    def test_all_methods_bytes_are_pinned(self, tmp_path, capsys, extra, digest):
        # tied, left-truncated cohort; the rows carry support and
        # stute-mismatch flags, the variance column or the bootstrap columns
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

    def test_boot_draws_each_resample_once_per_cohort(self, tmp_path, monkeypatch):
        calls = []

        def counting_philox(seed, index):
            calls.append(index)
            return philox(seed, index)

        monkeypatch.setattr(inference, "philox", counting_philox)
        cohort = random_cohort(random.Random(3), max_n=40, truncated=True)
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        argv = ["estimate", "--input", str(path), "--s", "1.5", "--t", "2,3.5,5",
                "--method", "all", "--boot", "40", "--output", str(tmp_path / "o.csv")]
        assert main(argv) == 0
        assert calls == list(range(40))  # not 40 per (method, t)

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

    def test_unknown_method_is_usage_error(self, toy_csv, tmp_path):
        code = main(
            ["estimate", "--input", toy_csv, "--s", "1", "--t", "2",
             "--method", "magic", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2


# a tiny left-truncated design: some replications retain no subject, others
# have an empty landmark (check, aj) or a zero state-0 survival (mm, mm-stute)
FRAGILE_DESIGN = "n = 3\ncensor_hazard = 0.05\ntruncation = skew_normal\ntruncation_location = 3\n"

# SHA-256 of `simulate --output -` stdout; the batching of the replications
# must not change a byte
SIMULATE_DIGESTS = {
    "table1": "40a03999f9e1aa40a9b157e86415efd22d0e51098436148a46d562eb36887d96",
    "table2": "6fc692edd4b6e45bc951cb61efcf0064a4660773701df10d6998bbdf363560b4",
    "table3": "95f1ea766b679315d30618416365a798d0e991d88d173eccf087318004e342ee",
    "custom": "38cb901e35eb93684638b2379566ae5880ef17fbf48d8298744c9de7dd0292e6",
    # the custom design through run_monte_carlo with all four estimators
    "custom-all": "ccf9872dc106654afe5faa6e7575f0c7767532320cd701e580d9a54dd41da5e9",
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

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 3\n")
        code, _, _, _ = _run(
            tmp_path, "simulate", "--scenario", "custom", "--config", str(cfg)
        )
        assert code == 2

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
        assert capsys.readouterr().err.startswith("error: censor hazard must be >= 0")
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
        assert capsys.readouterr().err == f"error: {message}\n"

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
