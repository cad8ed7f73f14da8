"""The three benchmark workloads: their inputs, their CLI calls, their checks.

Each op is a list of ``illnessdeath.cli.main`` argument lists run one after
the other.  Inputs are made from the benchmark seed alone; the package only
ever sees the generated files and the flags.  Every check below holds for a
correct program whatever the seed, and raises CheckFailed otherwise.  Sizes
keep one op to one to three seconds, so that a run holds many (see run.py).
"""

from __future__ import annotations

import csv
import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

METHODS = ("check", "mm", "mm-stute", "aj")
LANDMARK = 10.0

# The reference tables hold bias/variance cells for cohorts of REF_N subjects
# over REF_REPS replications.
REF_N = 100
REF_REPS = 1000


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def reference_tables() -> dict:
    path = ROOT / "tests" / "reference_tables.py"
    spec = importlib.util.spec_from_file_location("_bench_reference_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REFERENCE_TABLES


def true_p01(s: float, t: float) -> float:
    """Closed-form P01(s, t) under the table1 law (hazards 0.039 / 0.026, factor 1.7)."""
    ill, direct, factor = 0.039, 0.026, 1.7
    lam = ill + direct
    lower = max(s, t / factor)
    if lower >= t:
        return 0.0
    return ill / lam * (math.exp(-lam * lower) - math.exp(-lam * t)) / math.exp(-lam * s)


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
        return list(reader.fieldnames or []), rows


def _flags(row: dict[str, str]) -> list[str]:
    return [f for f in row["flags"].split(";") if f]


def write_table1_cohort(rows: int, seed: int, path: Path) -> None:
    from illnessdeath.records import write_cohort
    from illnessdeath.simulation import preset, simulate_cohort

    write_cohort(simulate_cohort(preset("table1", n=rows, seed=seed).config), path)


class Registry:
    """One large registry export: clip at tau, then estimate every method."""

    name = "registry"
    why = "few large calls on a 10^4-row CSV, so per-record cost in records and counting dominates"
    TIMES = (30.0, 50.0, 70.0, 100.0)
    TAU = 120.0
    # check, mm and mm-stute must lie within this many standard errors of the
    # truth; the chance that a correct program misses is below 1e-5 per seed
    Z = 5.0

    def __init__(self, rows: int = 10_000):
        self.rows = rows

    def sizes(self) -> dict:
        return {"rows": self.rows}

    def generate(self, seed: int, workdir: Path) -> None:
        write_table1_cohort(self.rows, seed, workdir / "cohort.csv")

    def op(self, seed: int, workdir: Path) -> list[list[str]]:
        clipped = str(workdir / "clipped.csv")
        return [
            ["transform", "--input", str(workdir / "cohort.csv"), "--tau", f"{self.TAU:g}",
             "--output", clipped],
            ["estimate", "--input", clipped, "--s", f"{LANDMARK:g}",
             "--t", ",".join(f"{t:g}" for t in self.TIMES), "--method", "all",
             "--output", str(workdir / "estimate.csv")],
        ]

    def outputs(self, workdir: Path) -> list[Path]:
        return [workdir / "clipped.csv", workdir / "estimate.csv"]

    def check(self, workdir: Path) -> None:
        self.check_clipped(workdir / "clipped.csv")
        self.check_estimate(workdir / "estimate.csv")

    def check_clipped(self, path: Path) -> None:
        # streamed, so the check adds nothing to the run's peak memory
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            expect(header == ["id", "entry", "exit0", "cause0", "exit1", "cause1"],
                   f"transform header {header}")
            count, latest = 0, 0.0
            for row in reader:
                count += 1
                latest = max(latest, float(row[4] or row[2]))
        # table1 cohorts all enter at the origin, so clipping drops no one
        expect(count == self.rows, f"transform kept {count} of {self.rows} rows")
        expect(latest <= self.TAU, f"transform left a time {latest} beyond tau")

    def check_estimate(self, path: Path) -> None:
        table1 = reference_tables()["table1"]
        header, rows = read_csv(path)
        expect(header == ["method", "s", "t", "estimate", "variance", "flags"],
               f"estimate header {header}")
        cells = [(r["method"], float(r["s"]), float(r["t"])) for r in rows]
        expect(cells == [(m, LANDMARK, t) for m in METHODS for t in self.TIMES],
               f"estimate cells {cells}")
        for row in rows:
            method, t = row["method"], float(row["t"])
            bad = [f for f in _flags(row) if f.startswith("error:") or f == "stute-mismatch"]
            expect(not bad, f"{method} at t={t:g} flagged {bad}")
            value = float(row["estimate"])
            if method == "aj":
                # aj is biased by design on this non-Markov law: range check only
                expect(0.0 <= value <= 1.0, f"aj at t={t:g} is {value}")
                continue
            # The plug-in `variance` column of `check` is deliberately not
            # checked: p01_landmark_variance does not shrink with n (0.0132,
            # 0.0282, 0.0308 at n = 10^2, 10^3, 10^4 on uncensored table1
            # cohorts), so no band derived from the sample size would hold.
            ref_variance = table1[int(t)]["mm" if method == "mm-stute" else method][1]
            se = math.sqrt(ref_variance * REF_N / self.rows)
            truth = true_p01(LANDMARK, t)
            expect(abs(value - truth) <= self.Z * se,
                   f"{method} at t={t:g} is {value}, truth {truth:.6f}, se {se:.2e}")


class MonteCarlo:
    """Bias/variance tables over many small simulated cohorts."""

    name = "montecarlo"
    why = "thousands of calls on n=100 cohorts over an 8-point t grid: per-call overhead in counting, estimators, simulation"
    SCENARIOS = ("table1", "table2", "table3")
    # A cell's bias must lie within Z_BIAS standard errors of the reference.
    # The standard error uses the larger of the run's and the reference's
    # variance, so a heavy-tailed cell widens its own band and a cell whose
    # replications all agree does not collapse it.
    Z_BIAS = 6.0
    # At 100 reps the sample variances of the late table2 cells range from 0
    # (every replication estimates 0) to 14x the reference over 40 seeds;
    # every other cell stays within 0.35x-2.4x.  One band wide enough for any
    # seed still rejects a negative or order-of-magnitude wrong variance.
    VAR_BAND = (0.0, 40.0)

    def __init__(self, reps: int = 100):
        self.reps = reps

    def sizes(self) -> dict:
        return {"reps": self.reps}

    def generate(self, seed: int, workdir: Path) -> None:
        pass

    def op(self, seed: int, workdir: Path) -> list[list[str]]:
        return [
            ["simulate", "--scenario", name, "--reps", str(self.reps), "--seed", str(seed),
             "--output", str(workdir / f"{name}.csv")]
            for name in self.SCENARIOS
        ]

    def outputs(self, workdir: Path) -> list[Path]:
        return [workdir / f"{name}.csv" for name in self.SCENARIOS]

    def check(self, workdir: Path) -> None:
        tables = reference_tables()
        for name in self.SCENARIOS:
            self.check_table(workdir / f"{name}.csv", tables[name])

    def check_table(self, path: Path, reference: dict) -> None:
        header, rows = read_csv(path)
        expect(header == ["estimator", "s", "t", "bias", "variance", "n_effective", "n_excluded"],
               f"{path.name} header {header}")
        cells = {(r["estimator"], float(r["t"])) for r in rows}
        wanted = {(e, float(t)) for t, row in reference.items() for e in row}
        expect(len(rows) == len(wanted) and cells == wanted, f"{path.name} cells {sorted(cells)}")
        lo, hi = self.VAR_BAND
        for row in rows:
            name, t = row["estimator"], float(row["t"])
            where = f"{path.name} {name} at t={t:g}"
            effective, excluded = int(row["n_effective"]), int(row["n_excluded"])
            expect(effective + excluded == self.reps,
                   f"{where}: {effective} effective + {excluded} excluded != {self.reps} reps")
            expect(effective >= 2, f"{where}: only {effective} effective replications")
            bias, variance = float(row["bias"]), float(row["variance"])
            ref_bias, ref_variance = reference[int(t)][name]
            se = math.sqrt(max(variance, ref_variance) / effective + ref_variance / REF_REPS)
            expect(abs(bias - ref_bias) <= self.Z_BIAS * se,
                   f"{where}: bias {bias:.3e}, reference {ref_bias:.3e}, se {se:.2e}")
            expect(lo <= variance / ref_variance <= hi,
                   f"{where}: variance {variance:.3e}, reference {ref_variance:.3e}")


class Bootstrap:
    """Bootstrap intervals for every method at one t on a small cohort."""

    name = "bootstrap"
    why = "800 resampled estimator calls at a single t: exercises inference, not the t grid"
    T = 50.0

    def __init__(self, rows: int = 500, n_boot: int = 200):
        self.rows = rows
        self.n_boot = n_boot

    def sizes(self) -> dict:
        return {"rows": self.rows, "n_boot": self.n_boot}

    def generate(self, seed: int, workdir: Path) -> None:
        write_table1_cohort(self.rows, seed, workdir / "cohort.csv")

    def op(self, seed: int, workdir: Path) -> list[list[str]]:
        return [
            ["estimate", "--input", str(workdir / "cohort.csv"), "--s", f"{LANDMARK:g}",
             "--t", f"{self.T:g}", "--method", "all", "--boot", str(self.n_boot),
             "--seed", str(seed), "--output", str(workdir / "estimate.csv")],
        ]

    def outputs(self, workdir: Path) -> list[Path]:
        return [workdir / "estimate.csv"]

    def check(self, workdir: Path) -> None:
        header, rows = read_csv(workdir / "estimate.csv")
        expect(header == ["method", "s", "t", "estimate", "boot_variance", "q_lo", "q_hi",
                          "n_lo", "n_hi", "n_boot", "n_failed", "flags"],
               f"bootstrap header {header}")
        expect([(r["method"], float(r["t"])) for r in rows] == [(m, self.T) for m in METHODS],
               f"bootstrap cells {[(r['method'], r['t']) for r in rows]}")
        for row in rows:
            method = row["method"]
            bad = [f for f in _flags(row) if f.startswith("error:")]
            expect(not bad, f"{method} flagged {bad}")
            value, q_lo, q_hi = (float(row[k]) for k in ("estimate", "q_lo", "q_hi"))
            expect(q_lo <= value <= q_hi, f"{method}: {value} outside [{q_lo}, {q_hi}]")
            n_boot, n_failed = int(row["n_boot"]), int(row["n_failed"])
            expect(n_boot == self.n_boot, f"{method}: n_boot {n_boot} != {self.n_boot}")
            expect(n_failed <= n_boot / 2, f"{method}: {n_failed} of {n_boot} resamples failed")
        # The two forms of the same estimator must agree on every number.
        # Their flags may differ: mm warns (flag "support") when the largest
        # observation is censored, mm-stute never looks at the tail.
        mm, stute = (
            [v for k, v in row.items() if k not in ("method", "flags")]
            for row in rows if row["method"] in ("mm", "mm-stute")
        )
        expect(mm == stute, f"mm row {mm} differs from mm-stute row {stute}")


WORKLOADS = {cls.name: cls for cls in (Registry, MonteCarlo, Bootstrap)}
