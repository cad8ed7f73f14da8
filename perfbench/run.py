"""Benchmark of the illnessdeath CLI: three workloads, timed end to end.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Each op calls ``illnessdeath.cli.main(argv)`` in this process, one call after
the other (a closed loop with one client), with ``ILLNESSDEATH_WORKERS``
unset so the default single worker is measured.  Ops start while the last
op's duration still fits in ``--seconds``; at least one op runs (two when
tracing).  Every op's outputs are checked and must be byte-identical to the
first op's.  Ops are kept to one to three seconds so that a run holds many.

Times compared between commits are taken at reference speed (reference.py):
each op and each set-up is bracketed by a fixed reference loop, and its
wall time is scaled to a host on which that loop takes REFERENCE_S.  On a
shared host this removes most of the 1x-2x swings that other tenants cause.
``op_ref_s`` is the median op time at reference speed.  Set-up (importing
the package and generating the inputs from the seed) runs SETUP_REPS times,
each in a fresh interpreter; ``setup_s`` is their median at reference speed.
The run record keeps every raw wall time and reference-loop time.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` ops alternate between untraced and traced, and the last line
reports per-layer metrics (raw seconds and counts per traced op, see
spans.py) and the tracing overhead.  The line before the last is a record
of the run: its environment, input sizes, per-op timings and output SHA-256
digests.  The record (per seed) and the latest spans (per workload) are
also written under perfbench/work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import at_reference_speed, reference_loop
from spans import SPAN_METRICS, Tracer, installed, layer_metrics, self_time_by_op
from workloads import WORKLOADS, CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
WORKERS_ENV = "ILLNESSDEATH_WORKERS"
SETUP_REPS = 7
SETUP_TIMEOUT_S = 60

END_TO_END = {"op_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**SPAN_METRICS, "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (no package, or set-up failed)."""


def import_cli():
    """Import illnessdeath.cli from this checkout's src/, never from elsewhere."""
    package = SRC / "illnessdeath"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import illnessdeath.cli

    found = Path(illnessdeath.__file__).resolve().parent
    if found != package.resolve():
        raise BenchError(f"imported illnessdeath from {found}, not {package}")
    return illnessdeath.cli


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def setup_child(workload, seed: int, workdir: Path) -> None:
    """Set-up as a user pays it: import the package, then generate the inputs."""
    start = perf_counter()
    import_cli()
    workload.generate(seed, workdir)
    seconds = perf_counter() - start
    digests = {p.name: sha256(p) for p in sorted(workdir.iterdir())}
    print(json.dumps({"seconds": seconds, "digests": digests}))


def set_up(workload, seed: int, workdir: Path, reps: int) -> tuple[list[dict], dict]:
    """Run the set-up children, each bracketed by the reference loop here."""
    reports, digests = [], None
    loop = reference_loop()
    for _ in range(reps):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
                "--workload", workload.name, "--sizes", json.dumps(workload.sizes()),
                "--seed", str(seed), "--dir", str(workdir)]
        try:
            child = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up took longer than {SETUP_TIMEOUT_S} s") from None
        if child.returncode != 0:
            raise BenchError(f"set-up failed ({child.returncode}):\n{child.stderr}")
        report = json.loads(child.stdout.strip().splitlines()[-1])
        if digests is not None and report["digests"] != digests:
            raise BenchError("set-up made different inputs from the same seed")
        digests = report.pop("digests")
        report["loops"] = [loop, reference_loop()]
        loop = report["loops"][1]
        reports.append(report)
    return reports, digests


def run_op(cli, workload, seed: int, workdir: Path, tracer: Tracer | None) -> dict:
    """One op: the workload's CLI calls in order."""
    calls: dict[str, float] = {}
    failure = None
    start = perf_counter()
    for argv in workload.op(seed, workdir):
        command = argv[0]
        t0 = perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(command, "cli"):
                    code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = "an exception"
        calls[command] = calls.get(command, 0.0) + perf_counter() - t0
        if code != 0:
            failure = f"{command} exited with {code}"
            break
    return {"wall": perf_counter() - start, "calls": calls, "failure": failure}


def check_op(workload, workdir: Path) -> tuple[str | None, dict]:
    """The workload's output checks; returns (failure, output digests)."""
    try:
        workload.check(workdir)
        return None, {p.name: sha256(p) for p in workload.outputs(workdir)}
    except (CheckFailed, OSError, ValueError, KeyError) as err:
        return f"output check: {type(err).__name__}: {err}", {}


def environment(seed: int, sizes: dict) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
        "seed": seed,
        "sizes": sizes,
        "workers": 1,
    }


def run(workload, seed: int, seconds: float, trace: bool,
        max_ops: int | None = None, setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    os.environ.pop(WORKERS_ENV, None)
    # one CPU for the ops, the set-up children and the reference loops, so
    # that a loop measures the speed of the CPU the work it scales ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups, input_digests = set_up(workload, seed, workdir, setup_reps)
        cli = import_cli()
        tracer = Tracer() if trace else None
        ops: list[dict] = []
        loop = reference_loop()
        start = perf_counter()
        while True:
            traced = trace and len(ops) % 2 == 1
            if traced:
                tracer.op = len(ops)
                with installed(tracer):
                    op = run_op(cli, workload, seed, workdir, tracer)
            else:
                op = run_op(cli, workload, seed, workdir, None)
            op["loops"] = [loop, reference_loop()]
            loop = op["loops"][1]
            op["ref"] = at_reference_speed(op["wall"], *op["loops"])
            op["traced"] = traced
            if op["failure"] is None:
                op["failure"], op["digests"] = check_op(workload, workdir)
            reference = next((o["digests"] for o in ops if o["failure"] is None), None)
            if op["failure"] is None and reference is not None and op["digests"] != reference:
                op["failure"] = "outputs differ from an earlier op's"
            if op["failure"] is not None:
                print(f"op {len(ops)} failed: {op['failure']}", file=sys.stderr)
            ops.append(op)
            if max_ops is not None:
                if len(ops) >= max_ops:
                    break
            elif len(ops) >= (2 if trace else 1) and perf_counter() - start + op["wall"] > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op["failure"] is not None for op in ops)
    commands = sorted({c for op in ops for c in op["calls"]})
    record = {
        "workload": workload.name,
        "trace": trace,
        "environment": environment(seed, workload.sizes()),
        "input_digests": input_digests,
        "output_digests": next((o["digests"] for o in ops if o["failure"] is None), {}),
        "setup": setups,
        "op_wall_s": [op["wall"] for op in ops],
        "op_ref_s": [op["ref"] for op in ops],
        "op_loops_s": [op["loops"] for op in ops],
        "op_wall_median_s": statistics.median(op["wall"] for op in ops),
        "op_fail_frac": failed / len(ops),
        **{f"{c}_ref_s": statistics.median(
            at_reference_speed(op["calls"][c], *op["loops"]) for op in ops if c in op["calls"]
        ) for c in commands},
    }
    if trace:
        spans = tracer.spans
        traced = [op for op in ops if op["traced"]]
        plain = [op for op in ops if not op["traced"]]
        metrics = layer_metrics(spans, len(traced))
        metrics["trace.overhead_frac"] = (
            statistics.median(op["ref"] for op in traced)
            / statistics.median(op["ref"] for op in plain) - 1
        )
        covered = self_time_by_op(spans)
        metrics["trace.unattributed_frac"] = max(
            (op["wall"] - covered.get(i, 0.0)) / op["wall"]
            for i, op in enumerate(ops) if op["traced"]
        )
        units = PER_LAYER
        # one file per workload, overwritten, so traces do not pile up
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"{workload.name}.jsonl")
    else:
        metrics = {
            "op_ref_s": statistics.median(op["ref"] for op in ops),
            "setup_s": statistics.median(
                at_reference_speed(r["seconds"], *r["loops"]) for r in setups
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, record


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; print every end-to-end figure."""
    rows, ok = [], True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed ({child.returncode})\n{child.stderr}", file=sys.stderr)
            ok = False
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        for key, metric in result["metrics"].items():
            rows.append((name, key, metric["value"], metric["unit"]))
        for key in ("estimate_ref_s", "transform_ref_s", "simulate_ref_s", "op_wall_median_s"):
            if key in record:
                rows.append((name, key, record[key], "s"))
        rows.append((name, "op_fail_frac", record["op_fail_frac"], "ratio"))
        rows.append((name, "ops", len(record["op_wall_s"]), "count"))
    for name, key, value, unit in rows:
        print(f"{name:<11} {key:<16} {value:>12.6g} {unit}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sizes", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # the package wants a non-negative seed
    seed = args.seed % 2**31
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        workload = WORKLOADS[args.workload](**json.loads(args.sizes or "{}"))
        if args.setup_child:
            setup_child(workload, seed, Path(args.dir))
            return 0
        result, record = run(workload, seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
