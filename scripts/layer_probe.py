#!/usr/bin/env python3
"""Time CSV ingest and the CLI commands on large registry-sized cohorts,
and the Monte-Carlo tables.

For each row count, writes a table1 cohort CSV (seeded), then times each
stage in a fresh interpreter, importing the package from ``--src``:

- ``read_cohort``: the public record reader;
- ``read_columns``: the column reader, when the package has one;
- ``estimate``: ``estimate --method all`` at s = 10 with 8 t values;
- ``transform``: ``transform --tau 120``;
- ``boot``: ``estimate --method all --boot 1000 --seed 7`` at s = 10, t = 50,
  the bootstrap layer, on ``BOOT_ROWS`` cohorts only;
- ``simulate``: ``simulate --scenario S --reps 1000 --seed 7`` for each preset
  S in ``SIMULATE``, the Monte-Carlo layer, with no cohort CSV.

Each stage reports its median wall time over ``--reps`` runs, the peak
resident memory of its interpreter, and the SHA-256 of its CLI output and
manifest, so two checkouts can be compared for speed and for byte identity:

    python scripts/layer_probe.py --src src --rows 100000 1000000 --out after.json
"""

from __future__ import annotations

import argparse
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

# run in the child: prints {"seconds": ..., "peak_rss_mb": ...}
CHILD = r"""
import resource, sys, json
from time import perf_counter
sys.path.insert(0, sys.argv[1])
stage, path, out = sys.argv[2:5]
from illnessdeath import cli, records
start = perf_counter()
if stage == "read_cohort":
    records.read_cohort(path)
elif stage == "read_columns":
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
else:
    code = cli.main(["transform", "--input", path, "--tau", "120", "--output", out])
    assert code == 0, code
seconds = perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "peak_rss_mb": rss}))
""".replace("TIMES", repr(TIMES))

GENERATE = r"""
import sys
sys.path.insert(0, sys.argv[1])
from illnessdeath import preset, simulate_cohort, write_cohort
write_cohort(simulate_cohort(preset("table1", n=int(sys.argv[2]), seed=int(sys.argv[3])).config), sys.argv[4])
"""


def _sha256(path: Path) -> str | None:
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _stage(src: str, stage: str, source: str, target: Path, reps: int) -> dict:
    """Median wall time and peak RSS of reps fresh interpreters, and the
    SHA-256 of the stage's output and manifest."""
    runs = []
    for _ in range(reps):
        child = subprocess.run(
            [sys.executable, "-c", CHILD, src, stage, source, str(target)],
            capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(child.stdout.strip().splitlines()[-1]))
    out = {
        "seconds": statistics.median(r["seconds"] for r in runs),
        "runs_s": [r["seconds"] for r in runs],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    if stage in ("estimate", "transform", "boot", "simulate"):
        manifest = Path(str(target) + ".manifest.json")
        out["output_sha256"] = _sha256(target)
        # the manifest names the input path, which differs between runs
        # only when the work directory does
        out["manifest_sha256"] = _sha256(manifest)
    return out


def probe(src: str, rows: int, stages: list[str], seed: int, reps: int, workdir: Path) -> dict:
    cohort = workdir / f"cohort-{rows}.csv"
    subprocess.run([sys.executable, "-c", GENERATE, src, str(rows), str(seed), str(cohort)],
                   check=True)
    out: dict = {"rows": rows, "input_sha256": _sha256(cohort)}
    for stage in stages:
        out[stage] = _stage(src, stage, str(cohort), workdir / f"{stage}-{rows}.csv", reps)
    return out


def probe_simulate(src: str, scenario: str, reps: int, workdir: Path) -> dict:
    target = workdir / f"simulate-{scenario}.csv"
    return {"scenario": scenario, "simulate": _stage(src, "simulate", scenario, target, reps)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--rows", type=int, nargs="+", default=[100_000, 1_000_000])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--workdir", default=None, help="keep the files here")
    parser.add_argument("--out", default="-")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(args.workdir or tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        has_columns = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {src!r}); from illnessdeath import records;"
             " sys.exit(0 if hasattr(records, 'read_columns') else 1)"],
        ).returncode == 0
        stages = ["read_cohort", *(["read_columns"] if has_columns else []), "estimate", "transform"]
        results = [probe(src, rows, stages, args.seed, args.reps, workdir) for rows in args.rows]
        results += [probe(src, rows, ["boot"], args.seed, args.reps, workdir) for rows in BOOT_ROWS]
        results += [probe_simulate(src, name, args.reps, workdir) for name in SIMULATE]
    text = json.dumps({"src": src, "seed": args.seed, "results": results}, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
