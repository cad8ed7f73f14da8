"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_selftest.py

Shows that every workload passes on a correct program, that each output
check rejects a corrupted output, that a failed op is counted in
``failed`` / ``op_fail_frac``, and that tracing restores what it wraps.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import Bootstrap, CheckFailed, MonteCarlo, Registry

SEED = 3
TINY = {
    "registry": lambda: Registry(rows=3000),
    "montecarlo": lambda: MonteCarlo(reps=40),
    "bootstrap": lambda: Bootstrap(rows=300, n_boot=60),
}

cli = run.import_cli()


def produce(workload, tmp_path: Path) -> Path:
    """Generate the inputs and run one op's CLI calls into tmp_path."""
    workload.generate(SEED, tmp_path)
    for argv in workload.op(SEED, tmp_path):
        assert cli.main(argv) == 0
    workload.check(tmp_path)
    return tmp_path


def edit_rows(path: Path, edit) -> None:
    """Rewrite a CSV after applying edit(rows) to its list of dict rows."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def row(rows, **match):
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_passes(name, trace):
    result, record = run.run(TINY[name](), SEED, seconds=0, trace=trace, max_ops=2, setup_reps=1)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert record["op_fail_frac"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # layer self times add up to the traced op's wall time
        assert abs(metrics["trace.unattributed_frac"]) < 1e-3
        assert metrics["estimators.calls"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_registry_counts_and_restores():
    original = cli.read_cohort, dict(cli.ESTIMATORS)
    result, _ = run.run(TINY["registry"](), SEED, seconds=0, trace=True, max_ops=2, setup_reps=1)
    assert (cli.read_cohort, dict(cli.ESTIMATORS)) == original
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # 4 t x (check, check_variance, mm, mm-stute) builds for 4 t x 5 estimator calls
    assert metrics["counting.build_counting_calls"] == 16
    assert metrics["estimators.calls"] == 20
    assert metrics["counting.builds_per_estimate"] == pytest.approx(0.8)


def test_bootstrap_counts_resamples():
    workload = TINY["bootstrap"]()
    result, _ = run.run(workload, SEED, seconds=0, trace=True, max_ops=2, setup_reps=1)
    resamples = result["metrics"]["inference.resamples"]["value"]
    assert resamples == 4 * workload.n_boot


REGISTRY_CORRUPTIONS = {
    "aj outside [0, 1]": ("estimate.csv", lambda rows: row(rows, method="aj").update(estimate="1.5")),
    "mm far from truth": (
        "estimate.csv",
        lambda rows: row(rows, method="mm", t="50").update(estimate="0.3"),
    ),
    "error flag": ("estimate.csv", lambda rows: rows[0].update(flags="error:EmptyLandmark")),
    "stute-mismatch flag": (
        "estimate.csv",
        lambda rows: row(rows, method="mm-stute").update(flags="stute-mismatch"),
    ),
    "missing row": ("estimate.csv", lambda rows: rows.pop()),
    "time beyond tau": ("clipped.csv", lambda rows: rows[0].update(exit0="130", cause0="2")),
    "dropped subject": ("clipped.csv", lambda rows: rows.pop()),
}
MONTECARLO_CORRUPTIONS = {
    "reps do not add up": lambda rows: rows[0].update(n_excluded=str(int(rows[0]["n_excluded"]) + 1)),
    "bias off": lambda rows: rows[3].update(bias=str(float(rows[3]["bias"]) + 0.1)),
    "variance 100x": lambda rows: rows[5].update(variance=str(float(rows[5]["variance"]) * 100)),
    "missing cell": lambda rows: rows.pop(),
}
BOOTSTRAP_CORRUPTIONS = {
    "estimate outside interval": lambda rows: rows[0].update(q_lo=str(float(rows[0]["estimate"]) + 0.01)),
    "too many failures": lambda rows: rows[1].update(n_failed=str(int(rows[1]["n_boot"]) // 2 + 1)),
    "mm and mm-stute differ": lambda rows: row(rows, method="mm-stute").update(
        boot_variance=str(float(row(rows, method="mm-stute")["boot_variance"]) * 1.01)
    ),
    "error flag": lambda rows: rows[3].update(flags="error:TooManyFailures"),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    made = {}
    for name, factory in TINY.items():
        made[name] = produce(factory(), tmp_path_factory.mktemp(name))
    return made


def corrupted(source: Path, tmp_path: Path, filename: str, edit) -> Path:
    target = tmp_path / "copy"
    shutil.copytree(source, target)
    edit_rows(target / filename, edit)
    return target


@pytest.mark.parametrize("case", sorted(REGISTRY_CORRUPTIONS))
def test_registry_check_rejects(case, outputs, tmp_path):
    filename, edit = REGISTRY_CORRUPTIONS[case]
    workdir = corrupted(outputs["registry"], tmp_path, filename, edit)
    with pytest.raises(CheckFailed):
        TINY["registry"]().check(workdir)


def test_registry_ignores_check_variance(outputs, tmp_path):
    workdir = corrupted(
        outputs["registry"], tmp_path, "estimate.csv",
        lambda rows: row(rows, method="check").update(variance="0.5"),
    )
    TINY["registry"]().check(workdir)


@pytest.mark.parametrize("case", sorted(MONTECARLO_CORRUPTIONS))
@pytest.mark.parametrize("table", MonteCarlo.SCENARIOS)
def test_montecarlo_check_rejects(case, table, outputs, tmp_path):
    workdir = corrupted(outputs["montecarlo"], tmp_path, f"{table}.csv", MONTECARLO_CORRUPTIONS[case])
    with pytest.raises(CheckFailed):
        TINY["montecarlo"]().check(workdir)


@pytest.mark.parametrize("case", sorted(BOOTSTRAP_CORRUPTIONS))
def test_bootstrap_check_rejects(case, outputs, tmp_path):
    workdir = corrupted(outputs["bootstrap"], tmp_path, "estimate.csv", BOOTSTRAP_CORRUPTIONS[case])
    with pytest.raises(CheckFailed):
        TINY["bootstrap"]().check(workdir)


def _fail_second_op(monkeypatch, after_calls: int, effect) -> None:
    """Let the first op's CLI calls through, then apply effect on later ones."""
    real_main = cli.main
    calls = []

    def main(argv):
        calls.append(argv)
        code = real_main(argv)
        return effect(argv, code) if len(calls) > after_calls else code

    monkeypatch.setattr(cli, "main", main)


def test_failed_check_counts_in_op_fail_frac(monkeypatch):
    real_aj = cli.ESTIMATORS["aj"]
    calls = []

    def broken_aj(cohort, query):
        calls.append(query)
        # the first op makes 4 aj calls; every later one is out of range
        return real_aj(cohort, query) if len(calls) <= 4 else 2.0

    monkeypatch.setitem(cli.ESTIMATORS, "aj", broken_aj)
    result, record = run.run(TINY["registry"](), SEED, seconds=0, trace=False, max_ops=2, setup_reps=1)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert record["op_fail_frac"] == 0.5


def test_nonzero_exit_counts_in_op_fail_frac(monkeypatch):
    _fail_second_op(monkeypatch, 1, lambda argv, code: 3)
    result, record = run.run(TINY["bootstrap"](), SEED, seconds=0, trace=False, max_ops=3, setup_reps=1)
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert record["op_fail_frac"] == pytest.approx(2 / 3)


def test_changed_bytes_count_as_failure(monkeypatch):
    def reorder(argv, code):
        # same rows and values, different bytes: the checks pass, the digest does not
        path = Path(argv[argv.index("--output") + 1])
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "".join(reversed(lines[1:])))
        return code

    _fail_second_op(monkeypatch, 3, reorder)
    result, _ = run.run(TINY["montecarlo"](), SEED, seconds=0, trace=False, max_ops=2, setup_reps=1)
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_tracing_restores_after_failure():
    tracer = spans.Tracer()
    before = (cli.read_cohort, dict(cli.ESTIMATORS))
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            assert cli.read_cohort is not before[0]
            raise RuntimeError("boom")
    assert (cli.read_cohort, dict(cli.ESTIMATORS)) == before


def test_benchmark_json_matches_run():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(TINY)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert child.stdout == ""
