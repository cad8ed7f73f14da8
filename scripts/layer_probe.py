#!/usr/bin/env python3
"""Time CSV ingest and the CLI commands on large registry-sized cohorts,
and the Monte-Carlo tables.

For each row count, writes a table1 cohort CSV (seeded), then times each
stage in a fresh interpreter, importing the package from ``--src``:

- ``records``: ``simulate_cohort`` and ``write_cohort`` of that same cohort,
  the records built from the simulator's columns and written back as CSV
  (its output is the probe's input CSV);
- ``read_cohort``: the public record reader;
- ``read_columns``: the column reader, when the package has one;
- ``read_quoted``: the column reader on a copy of the CSV with every field
  quoted, which ``csv.reader`` reads (R's ``write.csv`` quotes its strings);
- ``estimate``: ``estimate --method all`` at s = 10 with 8 t values;
- ``transform``: ``transform --tau 120``;
- ``boot``: ``estimate --method all --boot 1000 --seed 7`` at s = 10, t = 50,
  the bootstrap layer, on ``BOOT_ROWS`` cohorts only;
- ``resample``: the bootstrap per resample at s = 10, t = 50.  After one
  chunk that fills the lazy caches, at least ``CHUNKS`` chunks of resample
  weights, and as many as ``RESAMPLE_S`` seconds hold
  (``inference.CHUNK_CELLS`` weights each, one resample past 2^14 rows), are
  evaluated by every method in registry order, so ``mm`` computes the
  state-0 denominator that ``mm-stute`` then reads; ``draw`` is
  ``resample_estimates`` with no method, the package's own draws of a
  chunk.  It reports the median milliseconds per resample of each, their
  sum, and the SHA-256 of the arrays of the first ``CHUNKS`` + 1 chunks (the
  weights are drawn here, seeded, so both checkouts evaluate the same ones);
- ``simulate``: ``simulate --scenario S --reps 1000 --seed 7`` for each preset
  S in ``SIMULATE``, the Monte-Carlo layer, with no cohort CSV;
- ``batch``: the Monte-Carlo harness per batch, for each preset S in
  ``SIMULATE``: the columns of ``BATCH_REPS`` replications of n = ``BATCH_N``
  (seed 7), a row each, as ``run_monte_carlo`` batches them, evaluated by
  every method in registry order at s = 10 and the t values of ``TIMES``
  (the harness's own).  After one round that fills the lazy caches, at
  least ``CHUNKS`` rounds, and as many as ``RESAMPLE_S`` seconds hold, are
  timed.  It reports the median milliseconds per batch of each method,
  their sum, and the SHA-256 of the first round's value arrays.  Beside
  the methods, the front of the harness: each round first draws the batch
  (``simulation._draws``, every replication's stream) and classifies and
  checks it (``simulation._batch``), with the median milliseconds of each
  and the SHA-256 of the first round's draws, retained mask and columns;
- ``import``: ``import illnessdeath.cli`` itself, what every CLI call pays
  before any work (its peak memory is the package's resident set).

Each stage reports its median wall time over ``--reps`` runs, the peak
resident memory of its interpreter, and the SHA-256 of its CLI output and
manifest, so two checkouts can be compared for speed and for byte identity:

    python scripts/layer_probe.py --src src --rows 100000 1000000 --out after.json

Given a second checkout as ``--base OTHER/src``, every stage runs on the
base and on ``--src`` in alternation, ``--reps`` pairs of fresh interpreters
on the base's cohort CSV, and reports each side's figures as above, the
per-pair ratios of the change's time to the base's, their median, the pairs
the change won and whether every digest is equal.
``--stages`` keeps only the stages named:

    python scripts/layer_probe.py --base ../parent/src --src src --reps 9 \\
        --stages read_columns read_quoted transform estimate --out paired.json
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TIMES = "30,40,50,60,70,80,90,100"
# the boot stage's cohorts: the bootstrap layer at 10^4 rows, and at 10^5,
# where the memory of a chunk of resamples grows with the cohort
BOOT_ROWS = (10_000, 100_000)
# the simulate stage's presets: light censoring, and left truncation
SIMULATE = ("table1", "table3")
# the resample stage's timed chunks: at least CHUNKS, and for RESAMPLE_S seconds
CHUNKS, RESAMPLE_S = 10, 2.0
# the batch stage's batch: the 50 x 100 replications of the montecarlo benchmark
BATCH_REPS, BATCH_N = 50, 100

# run in the child: prints {"seconds": ..., "peak_rss_mb": ...}
CHILD = r"""
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
stage, path, out = sys.argv[2:5]
before_import = perf_counter()
from illnessdeath import cli, records
# the import stage times the package's import, every other stage its own work
start = before_import if stage == "import" else perf_counter()
extra = {}  # the resample stage's own figures
if stage == "records":  # path is "rows:seed"
    from illnessdeath import preset, simulate_cohort
    rows, seed = map(int, path.split(":"))
    records.write_cohort(simulate_cohort(preset("table1", n=rows, seed=seed).config), out)
elif stage == "read_cohort":
    records.read_cohort(path)
elif stage in ("read_columns", "read_quoted"):
    records.read_columns(path)
elif stage == "estimate":
    code = cli.main(["estimate", "--input", path, "--s", "10", "--t", TIMES,
                     "--method", "all", "--output", out])
    assert code == 0, code
elif stage == "boot":
    code = cli.main(["estimate", "--input", path, "--s", "10", "--t", "50", "--boot", "1000",
                     "--seed", "7", "--method", "all", "--output", out])
    assert code == 0, code
elif stage == "simulate":  # path names the scenario
    code = cli.main(["simulate", "--scenario", path, "--reps", "1000", "--seed", "7",
                     "--output", out])
    assert code == 0, code
elif stage == "transform":
    code = cli.main(["transform", "--input", path, "--tau", "120", "--output", out])
    assert code == 0, code
elif stage == "resample":
    import hashlib
    import numpy as np
    from illnessdeath import estimators, inference
    cols = records.read_columns(path)[0]
    n = len(cols.final)
    ready = dict(estimators.prepare_methods(cols, 10.0, [50.0], list(estimators.ESTIMATORS)))
    rows = max(1, inference.CHUNK_CELLS // n)
    rng, digest = np.random.default_rng(7), hashlib.sha256()
    spent = {name: [] for name in ("draw", *ready)}
    chunk, begun = 0, perf_counter()
    while chunk <= CHUNKS or perf_counter() - begun < RESAMPLE_S:
        weights = np.array([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(rows)])
        ticks = [perf_counter()]
        inference.resample_estimates({}, n, rows, chunk)
        ticks.append(perf_counter())
        for method, prepared in ready.items():
            values = estimators.ESTIMATORS[method].evaluate(prepared, weights)
            ticks.append(perf_counter())
            if chunk <= CHUNKS:  # the chunks every run evaluates
                digest.update(values.tobytes())
        if chunk:
            for name, a, b in zip(spent, ticks, ticks[1:]):
                spent[name].append((b - a) * 1e3 / rows)
        chunk += 1
    median = {name: sorted(ms)[len(ms) // 2] for name, ms in spent.items()}
    extra = {"ms_per_resample": {**median, "total": sum(median.values())},
             "resample_sha256": digest.hexdigest()}
elif stage == "batch":  # path names the scenario
    import hashlib
    import numpy as np
    from illnessdeath import estimators, preset, simulation
    config, reps = preset(path, n=BATCH_N, seed=7).config, range(BATCH_REPS)
    cols = simulation._batch(reps, simulation._draws(config, reps))[1]
    ts = np.array(TIMES.split(","), float)
    digest, spent = hashlib.sha256(), {name: [] for name in estimators.ESTIMATORS}
    front, front_spent = hashlib.sha256(), {"_draws": [], "_batch": []}
    rounds, begun = 0, perf_counter()
    while rounds <= CHUNKS or perf_counter() - begun < RESAMPLE_S:
        ticks = [perf_counter()]
        draws = simulation._draws(config, reps)
        ticks.append(perf_counter())
        alive, batch = simulation._batch(reps, draws)
        ticks.append(perf_counter())
        if rounds:
            for name, a, b in zip(front_spent, ticks, ticks[1:]):
                front_spent[name].append((b - a) * 1e3)
        else:
            for array in (*draws, alive, *batch):
                front.update(np.ascontiguousarray(array).tobytes())
        for name, estimator in estimators.ESTIMATORS.items():
            tick = perf_counter()
            values = estimator(cols, 10.0, ts)
            if rounds:
                spent[name].append((perf_counter() - tick) * 1e3)
            else:
                digest.update(values.tobytes())
        rounds += 1
    median = {name: sorted(ms)[len(ms) // 2] for name, ms in spent.items()}
    extra = {"ms_per_batch": {**median, "total": sum(median.values())},
             "batch_sha256": digest.hexdigest(),
             "front_ms_per_batch": {k: sorted(ms)[len(ms) // 2] for k, ms in front_spent.items()},
             "front_sha256": front.hexdigest()}
seconds = perf_counter() - start
import json, resource
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "peak_rss_mb": rss, **extra}))
"""
for name, value in (("TIMES", repr(TIMES)), ("CHUNKS", CHUNKS), ("RESAMPLE_S", RESAMPLE_S),
                    ("BATCH_REPS", BATCH_REPS), ("BATCH_N", BATCH_N)):
    CHILD = CHILD.replace(name, str(value))

GENERATE = r"""
import sys
sys.path.insert(0, sys.argv[1])
from illnessdeath import preset, simulate_cohort, write_cohort
write_cohort(simulate_cohort(preset("table1", n=int(sys.argv[2]), seed=int(sys.argv[3])).config), sys.argv[4])
"""


def _sha256(path: Path) -> str | None:
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _quote_all(plain: Path, quoted: Path) -> None:
    """Write the CSV again with every field in quotes."""
    with open(plain, newline="") as rows, open(quoted, "w", newline="") as sink:
        csv.writer(sink, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(csv.reader(rows))


def _run(src: str, stage: str, source: str, target: Path) -> dict:
    """One run of the stage in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", CHILD, src, stage, source, str(target)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout.strip().splitlines()[-1])


def _summary(stage: str, runs: list[dict], target: Path) -> dict:
    """Median wall time and peak RSS of the runs, and the SHA-256 of the
    stage's output and manifest."""
    out = {
        "seconds": statistics.median(r["seconds"] for r in runs),
        "runs_s": [r["seconds"] for r in runs],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    if stage == "resample":
        per = [r["ms_per_resample"] for r in runs]
        out["ms_per_resample"] = {k: statistics.median(p[k] for p in per) for k in per[0]}
        out["resample_sha256"] = runs[0]["resample_sha256"]
        assert all(r["resample_sha256"] == out["resample_sha256"] for r in runs), stage
    if stage == "batch":
        per = [r["ms_per_batch"] for r in runs]
        out["ms_per_batch"] = {k: statistics.median(p[k] for p in per) for k in per[0]}
        out["batch_sha256"] = runs[0]["batch_sha256"]
        assert all(r["batch_sha256"] == out["batch_sha256"] for r in runs), stage
        front = [r["front_ms_per_batch"] for r in runs]
        out["front_ms_per_batch"] = {k: statistics.median(p[k] for p in front) for k in front[0]}
        out["front_sha256"] = runs[0]["front_sha256"]
        assert all(r["front_sha256"] == out["front_sha256"] for r in runs), stage
    if stage == "records":
        out["output_sha256"] = _sha256(target)
    if stage in ("estimate", "transform", "boot", "simulate"):
        manifest = Path(str(target) + ".manifest.json")
        out["output_sha256"] = _sha256(target)
        # the manifest names the input path, which differs between runs
        # only when the work directory does
        out["manifest_sha256"] = _sha256(manifest)
    return out


def _stage(srcs: list[str], stage: str, source: str, target: Path, reps: int) -> dict:
    """The stage's summary over reps runs of one checkout; of two, reps
    pairs of runs, the base first in even pairs and the change first in odd
    ones, with each side's summary, the change/base ratio of each pair's
    times, their median, the pairs the change won and whether every digest
    of the two sides is equal."""
    if len(srcs) == 1:
        return _summary(stage, [_run(srcs[0], stage, source, target) for _ in range(reps)], target)
    # names of one length: a path's length moves the heap layout, and with
    # it the peak RSS of a stage by up to 2 MB
    targets = [target.with_name(f"side{side}-{target.name}") for side in (0, 1)]
    runs: tuple[list, list] = ([], [])
    for pair in range(reps):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            runs[side].append(_run(srcs[side], stage, source, targets[side]))
    base, change = (_summary(stage, r, t) for r, t in zip(runs, targets))
    ratios = [b["seconds"] / a["seconds"] for a, b in zip(*runs)]
    return {
        "base": base, "change": change, "ratios": ratios,
        "ratio_median": statistics.median(ratios),
        "change_wins": sum(ratio < 1 for ratio in ratios),
        "digests_equal": all(base[k] == change[k] for k in base if k.endswith("sha256")),
    }


def probe(srcs: list[str], rows: int, stages: list[str], seed: int, reps: int,
          workdir: Path) -> dict:
    cohort = workdir / f"cohort-{rows}.csv"
    subprocess.run([sys.executable, "-c", GENERATE, srcs[0], str(rows), str(seed), str(cohort)],
                   check=True)
    out: dict = {"rows": rows, "input_sha256": _sha256(cohort)}
    for stage in stages:
        source = cohort
        if stage == "records":
            source = f"{rows}:{seed}"
        elif stage == "read_quoted":
            source = workdir / f"quoted-{rows}.csv"
            _quote_all(cohort, source)
        out[stage] = _stage(srcs, stage, str(source), workdir / f"{stage}-{rows}.csv", reps)
    return out


def probe_simulate(srcs: list[str], scenario: str, reps: int, workdir: Path) -> dict:
    target = workdir / f"simulate-{scenario}.csv"
    return {"scenario": scenario, "simulate": _stage(srcs, "simulate", scenario, target, reps)}


def probe_batch(srcs: list[str], scenario: str, reps: int, workdir: Path) -> dict:
    target = workdir / f"batch-{scenario}.out"
    return {"scenario": scenario, "batch": _stage(srcs, "batch", scenario, target, reps)}


def probe_import(srcs: list[str], reps: int, workdir: Path) -> dict:
    return {"import": _stage(srcs, "import", "", workdir / "import.out", reps)}


# the stages on the --rows cohorts, those of them that need records.read_columns,
# and every stage
COHORT = ("records", "read_cohort", "read_columns", "read_quoted", "estimate", "transform",
          "resample")
COLUMNS = ("read_columns", "read_quoted", "resample")
STAGES = (*COHORT, "boot", "simulate", "batch", "import")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--base", default=None, help="the src to pair --src against")
    parser.add_argument("--rows", type=int, nargs="+", default=[100_000, 1_000_000])
    parser.add_argument("--stages", nargs="+", choices=STAGES, default=list(STAGES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--workdir", default=None, help="keep the files here")
    parser.add_argument("--out", default="-")
    args = parser.parse_args(argv)
    srcs = [str(Path(src).resolve()) for src in (args.base, args.src) if src]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(args.workdir or tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        has_columns = all(subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {src!r}); from illnessdeath import records;"
             " sys.exit(0 if hasattr(records, 'read_columns') else 1)"],
        ).returncode == 0 for src in srcs)
        stages = [stage for stage in COHORT
                  if stage in args.stages and (has_columns or stage not in COLUMNS)]
        results = [probe(srcs, rows, stages, args.seed, args.reps, workdir) for rows in args.rows]
        if "boot" in args.stages:
            results += [probe(srcs, rows, ["boot"], args.seed, args.reps, workdir)
                        for rows in BOOT_ROWS]
        if "simulate" in args.stages:
            results += [probe_simulate(srcs, name, args.reps, workdir) for name in SIMULATE]
        if "batch" in args.stages:
            results += [probe_batch(srcs, name, args.reps, workdir) for name in SIMULATE]
        if "import" in args.stages:
            results.append(probe_import(srcs, args.reps, workdir))
    sides = {"src": srcs[0]} if len(srcs) == 1 else {"base": srcs[0], "src": srcs[1]}
    text = json.dumps({**sides, "seed": args.seed, "results": results}, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
