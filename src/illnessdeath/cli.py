"""Command-line interface: estimate on CSV cohorts, simulate, transform.

Exit codes: 0 success (possibly with per-row warning markers), 2 usage or
malformed input, 3 every requested estimate failed, 4 every simulated
replication degenerated.  Every run writes a JSON manifest of the resolved
parameters next to its output (or to stderr when writing to stdout), so any
output can be reproduced byte-for-byte from its manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Sequence

from . import __version__
from .counting import Columns
from .errors import (
    DegenerateCohort,
    EstimationError,
    MalformedRecord,
    RangeWarning,
    SupportWarning,
    TooManyFailures,
)
from .estimators import ESTIMATORS, artificial_censoring, p01_landmark_variance
from .inference import bootstrap_ci
from .records import TransitionQuery, read_cohort, write_cohort
from .simulation import (
    Scenario,
    ScenarioConfig,
    TruncationConfig,
    _override,
    preset,
    run_monte_carlo,
)

METHODS = tuple(ESTIMATORS)
STUTE_MISMATCH = 1e-9


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one CLI run's output exactly."""

    subcommand: str
    parameters: dict
    seed: int | None
    input_digest: str | None
    version: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_times(raw: str) -> list[float]:
    try:
        times = sorted({float(tok) for tok in raw.split(",") if tok.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad time list: {raw!r}")
    if not times:
        raise argparse.ArgumentTypeError("empty time list")
    return times


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


class _Output:
    """Output sink that is either a file or stdout ('-')."""

    def __init__(self, target: str):
        self.target = target

    def __enter__(self) -> IO[str]:
        if self.target == "-":
            return sys.stdout
        self._handle = open(self.target, "w", newline="")
        return self._handle

    def __exit__(self, *exc) -> None:
        if self.target != "-":
            self._handle.close()

    def write_manifest(self, manifest: RunManifest) -> None:
        if self.target == "-":
            sys.stderr.write(manifest.to_json())
        else:
            Path(self.target + ".manifest.json").write_text(manifest.to_json())


def cmd_estimate(args: argparse.Namespace) -> int:
    try:
        cohort = read_cohort(args.input)
    except (MalformedRecord, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not cohort:
        print("error: input contains no records", file=sys.stderr)
        return 2
    try:
        queries = [TransitionQuery(args.s, t) for t in args.t]
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.tau is not None:
        if args.tau <= 0:
            print("error: --tau must be positive", file=sys.stderr)
            return 2
        cohort = artificial_censoring(cohort, args.tau)
    if args.boot and args.boot < 2:
        print("error: --boot needs at least 2 resamples", file=sys.stderr)
        return 2
    if not 0 < args.level < 1:
        print("error: --level must be inside (0, 1)", file=sys.stderr)
        return 2
    methods = list(METHODS) if args.method == "all" else [args.method]
    cols = Columns.of(cohort)

    header = ["method", "s", "t", "estimate"]
    if args.boot:
        header += ["boot_variance", "q_lo", "q_hi", "n_lo", "n_hi", "n_boot", "n_failed"]
    else:
        header += ["variance"]
    header += ["flags"]

    mm_values: dict[float, float] = {}
    rows: list[list[str]] = []
    succeeded = 0
    for method in methods:
        # one sweep per method; support does not depend on t, and range
        # belongs to the rows whose ratio exceeds 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                values = ESTIMATORS[method](cols, args.s, args.t)
            except EstimationError as err:
                blank = [""] * (len(header) - 4 - 1)
                for q in queries:
                    rows.append(
                        [method, _fmt(q.s), _fmt(q.t), ""]
                        + blank
                        + [f"error:{type(err).__name__}"]
                    )
                continue
        support = any(issubclass(w.category, SupportWarning) for w in caught)
        ranged = any(issubclass(w.category, RangeWarning) for w in caught)
        for q, value in zip(queries, values):
            estimate = float(value)
            flags: list[str] = []
            if support:
                flags.append("support")
            if ranged and value > 1:
                flags.append("range")
            succeeded += 1
            if method == "mm":
                mm_values[q.t] = estimate
            if method == "mm-stute" and q.t in mm_values:
                if abs(estimate - mm_values[q.t]) > STUTE_MISMATCH:
                    flags.append("stute-mismatch")
            cells = [method, _fmt(q.s), _fmt(q.t), _fmt(estimate)]
            if args.boot:
                try:
                    ci = bootstrap_ci(
                        cols,
                        q,
                        estimator=method,
                        n_boot=args.boot,
                        level=args.level,
                        seed=args.seed,
                    )
                    cells += [
                        _fmt(ci.boot_variance),
                        _fmt(ci.quantile_ci[0]),
                        _fmt(ci.quantile_ci[1]),
                        _fmt(ci.normal_ci[0]),
                        _fmt(ci.normal_ci[1]),
                        str(ci.n_boot),
                        str(ci.n_failed),
                    ]
                except TooManyFailures:
                    flags.append("error:TooManyFailures")
                    cells += [""] * 7
            else:
                if method == "check":
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        cells += [_fmt(float(p01_landmark_variance(cols, q)))]
                else:
                    cells += [""]
            cells += [";".join(sorted(set(flags)))]
            rows.append(cells)

    manifest = RunManifest(
        subcommand="estimate",
        parameters={
            "input": args.input,
            "s": args.s,
            "t": list(args.t),
            "method": args.method,
            "boot": args.boot,
            "level": args.level,
            "tau": args.tau,
        },
        seed=args.seed,
        input_digest=_digest(args.input),
        version=__version__,
    )
    out = _Output(args.output)
    with out as sink:
        sink.write(",".join(header) + "\n")
        for row in rows:
            sink.write(",".join(row) + "\n")
    out.write_manifest(manifest)
    return 0 if succeeded else 3


def _read_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


_CONFIG_FIELDS = {
    "n": int,
    "hazard_ill": float,
    "hazard_direct": float,
    "progression_factor": float,
    "censor_hazard": float,
    "seed": int,
    "replications": int,
}
_TRUNCATION_FIELDS = {
    "truncation_location": ("location", float),
    "truncation_scale": ("scale", float),
    "truncation_shape": ("shape", float),
}


def _custom_scenario(path: str) -> Scenario:
    raw = _read_config_file(path)
    kwargs = {}
    trunc_kwargs = {}
    for key, value in raw.items():
        if key in _CONFIG_FIELDS:
            kwargs[key] = _CONFIG_FIELDS[key](value)
        elif key in _TRUNCATION_FIELDS:
            name, cast = _TRUNCATION_FIELDS[key]
            trunc_kwargs[name] = cast(value)
        elif key == "truncation":
            if value not in ("none", "skew_normal"):
                raise ValueError(f"truncation must be none or skew_normal, got {value}")
            if value == "skew_normal":
                trunc_kwargs.setdefault("location", -5.0)
        else:
            raise ValueError(f"unknown config key {key!r}")
    truncation = TruncationConfig(**trunc_kwargs) if trunc_kwargs else None
    config = ScenarioConfig(truncation=truncation, **kwargs)
    return Scenario(config=config, estimators=("check", "mm", "aj"))


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        if args.scenario == "custom":
            if not args.config:
                print("error: --scenario custom requires --config", file=sys.stderr)
                return 2
            scenario = _custom_scenario(args.config)
        else:
            scenario = preset(args.scenario)
        scenario = _override(scenario, args.n, args.reps, args.seed)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    landmark = scenario.landmark if args.s is None else args.s
    eval_times = scenario.eval_times if args.t is None else tuple(args.t)
    try:
        table = run_monte_carlo(
            scenario.config,
            estimators=scenario.estimators,
            eval_times=eval_times,
            landmark=landmark,
        )
    except DegenerateCohort as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    config = scenario.config
    manifest = RunManifest(
        subcommand="simulate",
        parameters={
            "scenario": args.scenario,
            "n": config.n,
            "replications": config.replications,
            "hazard_ill": config.hazard_ill,
            "hazard_direct": config.hazard_direct,
            "progression_factor": config.progression_factor,
            "censor_hazard": config.censor_hazard,
            "truncation": None
            if config.truncation is None
            else asdict(config.truncation),
            "estimators": list(scenario.estimators),
            "s": landmark,
            "t": list(eval_times),
            "mean_cohort_size": table.mean_cohort_size,
        },
        seed=config.seed,
        input_digest=None,
        version=__version__,
    )
    out = _Output(args.output)
    with out as sink:
        table.to_csv(sink)
    out.write_manifest(manifest)
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    try:
        cohort = read_cohort(args.input)
    except (MalformedRecord, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.tau <= 0:
        print("error: --tau must be positive", file=sys.stderr)
        return 2
    clipped = artificial_censoring(cohort, args.tau)
    manifest = RunManifest(
        subcommand="transform",
        parameters={"input": args.input, "tau": args.tau},
        seed=None,
        input_digest=_digest(args.input),
        version=__version__,
    )
    out = _Output(args.output)
    with out as sink:
        write_cohort(clipped, sink)
    out.write_manifest(manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="illnessdeath",
        description="Nonparametric illness-death transition-probability estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="evaluate estimators on a cohort CSV")
    est.add_argument("--input", required=True, help="cohort CSV path")
    est.add_argument("--s", type=float, required=True, help="landmark time")
    est.add_argument("--t", type=_parse_times, required=True, help="comma list of t")
    est.add_argument("--method", choices=METHODS + ("all",), default="check")
    est.add_argument("--boot", type=int, default=0, help="bootstrap resamples (0 off)")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--tau", type=float, default=None, help="clip windows at tau first")
    est.add_argument("--output", default="-")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="Monte-Carlo bias/variance tables")
    sim.add_argument(
        "--scenario",
        required=True,
        choices=("table1", "table2", "table3", "custom"),
    )
    sim.add_argument("--config", default=None, help="key=value file for custom runs")
    sim.add_argument("--reps", type=_positive_int, default=None)
    sim.add_argument("--n", type=_positive_int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--s", type=float, default=None, help="landmark (default 10)")
    sim.add_argument("--t", type=_parse_times, default=None)
    sim.add_argument("--output", default="-")
    sim.set_defaults(func=cmd_simulate)

    tra = sub.add_parser("transform", help="apply artificial censoring to a CSV")
    tra.add_argument("--input", required=True)
    tra.add_argument("--tau", type=float, required=True)
    tra.add_argument("--output", default="-")
    tra.set_defaults(func=cmd_transform)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
