"""Command-line interface: estimate on CSV cohorts, simulate, transform.

Exit codes: 0 success (possibly with per-row warning markers), 2 usage,
malformed input or an unwritable output, 3 every requested estimate
failed, 4 every simulated replication degenerated.  Every run writes a JSON
manifest of the resolved parameters next to its output (or to stderr when
writing to stdout), so any output can be reproduced byte-for-byte from its
manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import warnings
from dataclasses import asdict
from functools import cache, partial
from itertools import compress
from pathlib import Path
from typing import IO, Callable, Sequence, get_type_hints

from . import __version__
from .errors import (
    DegenerateCohort,
    EstimationError,
    MalformedRecord,
    RangeWarning,
    SupportWarning,
    TooManyFailures,
)
from .estimators import ESTIMATORS, _landmark_variance, prepare_methods
from .inference import interval, resample_estimates
from .records import TransitionQuery, read_columns, write_columns
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


def _digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


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


class _UsageError(Exception):
    """A bad option, input or output path: main prints it and exits 2."""


@contextlib.contextmanager
def _usage(*errors: type[Exception]):
    """Report the given errors, raised inside the block, as usage errors."""
    try:
        yield
    except errors as err:
        raise _UsageError(err) from None


def _emit(
    target: str,
    write: Callable[[IO[str]], None],
    subcommand: str,
    parameters: dict,
    seed: int | None = None,
    input_digest: str | None = None,
) -> None:
    """Write to a file with ``<file>.manifest.json`` beside it, or to stdout
    ('-') with the manifest on stderr: everything needed to reproduce the
    output exactly.  The manifest is opened first, and a failed write
    removes the files that this run created, never a device or a FIFO."""
    manifest = {
        "subcommand": subcommand,
        "parameters": parameters,
        "seed": seed,
        "input_digest": input_digest,
        "version": __version__,
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    if target == "-":
        write(sys.stdout)
        sys.stderr.write(text)
        return
    sidecar = target + ".manifest.json"
    with _usage(OSError):
        made = [path for path in (sidecar, target) if not os.path.lexists(path)]
        try:
            with (open(sidecar, "w", encoding="utf-8") as note,
                  open(target, "w", encoding="utf-8", newline="") as handle):
                write(handle)
                note.write(text)
        except BaseException:
            for path in made:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise


def _tau(tau: float) -> float:
    """The --tau of estimate and transform, which must be positive."""
    if not tau > 0:  # NaN included
        raise _UsageError("--tau must be positive")
    return tau


def cmd_estimate(args: argparse.Namespace) -> int:
    with _usage(MalformedRecord, OSError):
        cols, _ = read_columns(args.input)
    if not len(cols.final):
        raise _UsageError("input contains no records")
    with _usage(ValueError):
        queries = [TransitionQuery(args.s, t) for t in args.t]
    if args.tau is not None:
        _, cols = cols.clip(_tau(args.tau))
    if args.boot and args.boot < 2:
        raise _UsageError("--boot needs at least 2 resamples")
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    if not 0 < args.level < 1:
        raise _UsageError("--level must be inside (0, 1)")
    methods = list(METHODS) if args.method == "all" else [args.method]
    columns, boot = ["variance"], {}
    # each method prepared once (the two mm forms share one), then swept
    ready = prepare_methods(cols, args.s, args.t, methods)
    if args.boot:
        columns = ["boot_variance", "q_lo", "q_hi", "n_lo", "n_hi", "n_boot", "n_failed"]
        # each resample drawn once for every method and t, on the preparations
        # the rows read; a method that fails on the cohort has no resamples
        ready = list(ready)
        boot = resample_estimates(dict(ready), len(cols.final), args.boot, args.seed)
    rows = [["method", "s", "t", "estimate", *columns, "flags"]]
    blank = [""] * len(columns)
    mm: list[tuple[float, bool]] = []  # mm's (estimate, range verdict) per t
    for method, prepared in ready:
        if isinstance(prepared, EstimationError):
            flag = f"error:{type(prepared).__name__}"
            rows += [[method, _fmt(q.s), _fmt(q.t), "", *blank, flag] for q in queries]
            continue
        # one sweep; support does not depend on t, range belongs to the rows above 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = ESTIMATORS[method].evaluate(prepared)
        support = any(issubclass(w.category, SupportWarning) for w in caught)
        ranged = any(issubclass(w.category, RangeWarning) for w in caught)
        variances = _landmark_variance(prepared) if method == "check" and not args.boot else []
        for i, (q, value) in enumerate(zip(queries, values)):
            estimate = float(value)
            flags = {"support"} if support else set()
            over = ranged and value > 1
            if method == "mm":
                mm.append((estimate, over))
            elif method == "mm-stute" and mm:
                if abs(estimate - mm[i][0]) > STUTE_MISMATCH:
                    flags.add("stute-mismatch")
                else:  # the two forms of one estimate are judged on one value
                    over = mm[i][1]
            if over:
                flags.add("range")
            cells = [method, _fmt(q.s), _fmt(q.t), _fmt(estimate)]
            if args.boot:
                try:
                    ci = interval(estimate, boot[method][i], args.level)
                    bounds = (ci.boot_variance, *ci.quantile_ci, *ci.normal_ci)
                    cells += [*map(_fmt, bounds), str(ci.n_boot), str(ci.n_failed)]
                except TooManyFailures:
                    flags.add("error:TooManyFailures")
                    cells += blank
            else:
                cells.append(_fmt(variances[i]) if variances else "")
            rows.append(cells + [";".join(sorted(flags))])
    text = "".join(",".join(row) + "\n" for row in rows)
    parameters = {
        "input": args.input,
        "s": args.s,
        "t": list(args.t),
        "method": args.method,
        "boot": args.boot,
        "level": args.level,
        "tau": args.tau,
    }
    digest = _digest(args.input)
    _emit(args.output, lambda sink: sink.write(text), "estimate", parameters, args.seed, digest)
    return 0 if any(row[3] for row in rows[1:]) else 3


# config key -> its type; a truncation_<name> key sets TruncationConfig.<name>
_CONFIG_FIELDS = {
    **{key: kind for key, kind in get_type_hints(ScenarioConfig).items() if key != "truncation"},
    **{f"truncation_{key}": kind for key, kind in get_type_hints(TruncationConfig).items()},
}


def _custom_scenario(path: str) -> Scenario:
    """The scenario of a key=value file.  Every line is read before any value
    is converted, a repeated key keeps its last value, and errors name the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text: {err.reason}") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    kwargs: dict = {}
    trunc_kwargs: dict = {}
    try:
        for key, value in raw.items():
            if key in _CONFIG_FIELDS:
                name = key.removeprefix("truncation_")
                try:
                    (kwargs if name == key else trunc_kwargs)[name] = _CONFIG_FIELDS[key](value)
                except ValueError as err:
                    raise ValueError(f"{key}: {err}") from None
            elif key == "truncation":
                if value not in ("none", "skew_normal"):
                    raise ValueError(f"truncation must be none or skew_normal, got {value}")
                if value == "skew_normal":
                    trunc_kwargs.setdefault("location", -5.0)
            else:
                raise ValueError(f"unknown config key {key!r}")
        if raw.get("truncation") == "none" and trunc_kwargs:
            key = next(key for key in raw if key.startswith("truncation_"))
            raise ValueError(f"{key} is set, but truncation = none")
        truncation = TruncationConfig(**trunc_kwargs) if trunc_kwargs else None
        config = ScenarioConfig(truncation=truncation, **kwargs)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return Scenario(config=config, estimators=("check", "mm", "aj"))


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.scenario == "custom" and not args.config:
        raise _UsageError("--scenario custom requires --config")
    with _usage(ValueError, OSError):
        if args.scenario == "custom":
            scenario = _custom_scenario(args.config)
        else:
            scenario = preset(args.scenario)
        scenario = _override(scenario, args.n, args.reps, args.seed)
    landmark = scenario.landmark if args.s is None else args.s
    eval_times = scenario.eval_times if args.t is None else tuple(args.t)
    try:
        with _usage(ValueError):
            table = run_monte_carlo(
                scenario.config,
                estimators=scenario.estimators,
                eval_times=eval_times,
                landmark=landmark,
            )
    except DegenerateCohort as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    config = asdict(scenario.config)  # its truncation becomes a dict too
    parameters = {
        **{key: value for key, value in config.items() if key != "seed"},
        "scenario": args.scenario,
        "estimators": list(scenario.estimators),
        "s": landmark,
        "t": list(eval_times),
        "mean_cohort_size": table.mean_cohort_size,
    }
    _emit(args.output, table.to_csv, "simulate", parameters, config["seed"])
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    with _usage(MalformedRecord, OSError):
        cols, ids = read_columns(args.input)
    keep, clipped = cols.clip(_tau(args.tau))
    ids = list(compress(ids, keep))
    parameters = {"input": args.input, "tau": args.tau}
    digest = _digest(args.input)
    _emit(args.output, partial(write_columns, ids, clipped), "transform", parameters, None, digest)
    return 0


@cache  # one parser per process: parsing leaves no state on it
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
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
