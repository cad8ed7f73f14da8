"""Generator determinism, retention behaviour, and harness invariances."""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference as loops
from illnessdeath import (
    Cause,
    DegenerateCohort,
    EstimationError,
    MalformedRecord,
    ScenarioConfig,
    TransitionQuery,
    TruncationConfig,
    markov_true_p01,
    multinomial_uncensored,
    p01_aalen_johansen,
    p01_cif_ratio,
    p01_landmark,
    preset,
    run_monte_carlo,
    simulate_cohort,
    simulate_markov_cohort,
    true_p01,
    write_cohort,
)
from illnessdeath import simulation
from illnessdeath.counting import Columns
from illnessdeath.records import check_columns


class TestTrueValue:
    def test_reference_points(self):
        assert true_p01(TransitionQuery(10, 30)) == pytest.approx(0.20147124381601253)
        assert true_p01(TransitionQuery(10, 60)) == pytest.approx(0.09264524119275372)
        assert true_p01(TransitionQuery(10, 100)) == pytest.approx(
            0.023385427235610944
        )

    def test_degenerate_window_is_zero(self):
        assert true_p01(TransitionQuery(10, 10)) == 0.0

    def test_unit_interval(self):
        for t in range(10, 200, 7):
            assert 0 <= true_p01(TransitionQuery(10, float(t))) < 1


class TestCohortGenerator:
    def test_deterministic(self):
        cfg = ScenarioConfig(n=50, seed=7)
        assert simulate_cohort(cfg, 3) == simulate_cohort(cfg, 3)

    def test_replications_differ(self):
        cfg = ScenarioConfig(n=50, seed=7)
        assert simulate_cohort(cfg, 0) != simulate_cohort(cfg, 1)

    def test_untruncated_keeps_everyone_at_origin(self):
        cohort = simulate_cohort(ScenarioConfig(n=80, seed=1), 0)
        assert len(cohort) == 80
        assert all(r.entry == 0.0 for r in cohort)

    def test_zero_censoring_fully_observed(self):
        cohort = simulate_cohort(ScenarioConfig(n=80, censor_hazard=0.0, seed=2), 0)
        assert all(r.observed for r in cohort)

    def test_illness_lifetime_is_onset_multiple(self):
        cohort = simulate_cohort(ScenarioConfig(n=200, censor_hazard=0.0, seed=3), 0)
        for r in cohort:
            if r.cause0 is Cause.ILL:
                assert r.exit1 == pytest.approx(1.7 * r.exit0)

    def test_truncated_retention_rate(self):
        cfg = ScenarioConfig(n=100, truncation=TruncationConfig(), seed=5)
        sizes = [len(simulate_cohort(cfg, rep)) for rep in range(120)]
        mean = sum(sizes) / len(sizes)
        assert 80 < mean < 90
        # delayed entry must actually occur, including recruitment during
        # illness (entry at or past the illness onset)
        some = [r for rep in range(20) for r in simulate_cohort(cfg, rep)]
        assert any(r.entry > 0 for r in some)
        assert any(r.entered_ill for r in some)

    def test_censoring_starts_at_entry(self):
        cfg = ScenarioConfig(
            n=400, censor_hazard=0.2, truncation=TruncationConfig(), seed=11
        )
        cohort = simulate_cohort(cfg, 0)
        censored = [r for r in cohort if not r.observed]
        assert censored
        assert all(r.final_time > r.entry for r in censored)


def _digest(cohort):
    sink = io.StringIO()
    write_cohort(cohort, sink)
    return hashlib.sha256(sink.getvalue().encode()).hexdigest()


# SHA-256 of the write_cohort text; a change here breaks reproducibility of
# every published seed, so it must be deliberate
COHORT_DIGESTS = {
    ("table1", 0): "1cf86165efbfcbc2ac1a9c61a2b8d30919dbf4164477ecfa211c06703b73c6b7",
    ("table1", 1): "27217f2932df243d51079dbab116da6b42df3c6644f9db311d813205b56617f1",
    ("table1", 2): "c41c8794a51810eed8604aad08cbeaf6142c92fbcabfeb6a5d6abbfca4165c9b",
    ("table3", 0): "34d05b244d3c8f929ec9373d7bdd13e29006ac1e3645c32bbb63071a613a995b",
    ("table3", 1): "275538007510711ef95463bf79bac5e049fb57fdaed898715aa29520511082f5",
    ("table3", 2): "78dcccde5cbe9eb698e3e9be9cb11e3ed6222168b149b63c2c6ed93f275f936a",
}
MARKOV_DIGESTS = {
    0: "0c874b81d6173128505ff75d37a82b40ce2a73a1c4dab4bc62a074e1c1f384e0",
    1: "5c9ef8ed724913e26aa6c09cd08de22a3cccf2d70d2d59f7bf8e8de70cc6e809",
    2: "50ab011940f97d777e0dcc259b06a5a16b416cd7177909ebab2208f2237740fa",
}
# uncensored (the default): no censoring span is drawn; (seed, replication)
MARKOV_UNCENSORED_DIGESTS = {
    (0, 0): "cf7093324e2ae3111df0a1e8b9637db8a79f7487dc09813f0e39fddd8895a1e1",
    (1, 5): "a9d65da7e40a4a361f34654999fd6784ca42eadfe21d14e6859149e4440debf2",
    (2, 4_000_000_000): "a4fe4959038942be62c5441ef4df8436e4679010d085c765ce618eeb734d4038",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("name,rep", sorted(COHORT_DIGESTS))
    def test_cohort_bytes(self, name, rep):
        cohort = simulate_cohort(preset(name).config, rep)
        assert _digest(cohort) == COHORT_DIGESTS[(name, rep)]

    @pytest.mark.parametrize("seed", sorted(MARKOV_DIGESTS))
    def test_markov_cohort_bytes(self, seed):
        cohort = simulate_markov_cohort(500, censor_hazard=0.01, seed=seed)
        assert _digest(cohort) == MARKOV_DIGESTS[seed]

    @pytest.mark.parametrize("seed,rep", sorted(MARKOV_UNCENSORED_DIGESTS))
    def test_uncensored_markov_cohort_bytes(self, seed, rep):
        cohort = simulate_markov_cohort(300, seed=seed, rep_index=rep)
        assert _digest(cohort) == MARKOV_UNCENSORED_DIGESTS[(seed, rep)]


def _assert_same_columns(got, want):
    assert type(got) is Columns
    for name, a, b in zip(Columns._fields, got, want):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


# designs beyond the presets: uncensored; tiny, heavily censored and
# truncated (many empty cohorts); large enough for four-digit ids
CUSTOM_DESIGNS = {
    "uncensored": ScenarioConfig(n=7, censor_hazard=0.0, seed=3),
    "censored-truncated": ScenarioConfig(
        n=3, censor_hazard=0.2, truncation=TruncationConfig(location=20.0), seed=4
    ),
    "large-truncated": ScenarioConfig(n=1500, truncation=TruncationConfig(), seed=8),
}


class TestColumnarSimulator:
    @pytest.mark.parametrize("name", ["table1", "table2", "table3", *CUSTOM_DESIGNS])
    def test_columns_equal_the_records_columns(self, name):
        # each row of a batch, padding dropped, is the cohort of its replication
        if name in CUSTOM_DESIGNS:
            config = CUSTOM_DESIGNS[name]
        else:
            config = preset(name).config
        reps = range(3 if config.n > 100 else 40)
        alive, batch = simulation._batch(reps, simulation._draws(config, reps))
        degenerate = 0
        for rep in reps:
            if not alive[rep].any():
                degenerate += 1
                with pytest.raises(DegenerateCohort, match=f"^replication {rep} retained"):
                    simulate_cohort(config, rep)
                continue
            row = Columns(*(column[rep][alive[rep]] for column in batch))
            # the batch ranks the ids among every drawn subject: same order
            row = row._replace(id_rank=np.argsort(np.argsort(row.id_rank)))
            _assert_same_columns(row, Columns.of(simulate_cohort(config, rep)))
        assert (degenerate > 0) == (name == "censored-truncated")

    @pytest.mark.parametrize(
        "field,ill,value,message",
        [
            ("entry", False, lambda c, i: c.exit0[i], "entry must precede exit0"),
            ("entry", False, lambda c, i: np.nan, "entry must be a finite time >= 0"),
            ("exit0", True, lambda c, i: -1.0, "exit0 must be a finite time >= 0"),
            ("final", True, lambda c, i: np.inf, "exit1 must be finite and >= exit0"),
            ("final", True, lambda c, i: c.exit0[i] / 2, "exit1 must be finite and"),
            # columns only: a subject who never fell ill ends at its state-0 exit
            ("final", False, lambda c, i: c.exit0[i] + 1, "inconsistent columns"),
        ],
    )
    def test_corrupted_column_is_malformed(self, field, ill, value, message):
        cohort = simulate_cohort(preset("table1").config, 0)
        cols = Columns.of(cohort)
        def name(row):
            return cohort[row].id

        check_columns(cols, name)
        i = int(np.flatnonzero(cols.ill == ill)[5])
        getattr(cols, field)[i] = value(cols, i)
        # the message of the record constructor, with the subject's id
        with pytest.raises(MalformedRecord, match=f"^{cohort[i].id}: {message}"):
            check_columns(cols, name)

    def test_monte_carlo_builds_no_records(self, watch_records):
        built = watch_records()
        config = preset("table3", n=40, replications=6, seed=5).config
        run_monte_carlo(config, ("check", "mm", "mm-stute", "aj"), workers=1)
        assert built == []
        simulate_cohort(config, 0)  # the guard does see records being built
        assert built

    @pytest.mark.parametrize(
        "field,ill,value,message",
        [
            (4, False, lambda d, at: np.nan, "exit0 must be a finite time >= 0"),
            (0, False, lambda d, at: -1.0, "entry must be a finite time >= 0"),
            (1, True, lambda d, at: -1.0, "exit0 must be a finite time >= 0"),
            (3, True, lambda d, at: d[1][at] / 2, "exit1 must be finite and >= exit0"),
        ],
    )
    def test_batch_names_a_bad_subject_of_a_later_replication(self, field, ill, value, message):
        # the padded batch is checked at once; a bad retained subject raises
        # the message of the retained subjects checked in row-major order
        config, reps = preset("table3", n=40, seed=5).config, range(11, 15)
        draws = [column.copy() for column in simulation._draws(config, reps)]
        alive = simulation._batch(reps, draws)[0]
        entry, onset, kind, _, cens = draws
        # retained, seen ill if ill (onset before censoring), entry before onset / 2
        fit = alive & (onset <= cens) & (entry < onset / 2) & (kind == ill)
        picks = [int(np.flatnonzero(fit[r])[2]) for r in (2, 3)]
        assert not alive[2].all()
        draws[4][2, ~alive[2]] = np.nan  # not retained, so never checked
        for r, i in ((3, picks[1]), (2, picks[0])):  # the one in row 2 comes first
            draws[field][r, i] = value(draws, (r, i))
        with pytest.raises(MalformedRecord) as got:
            simulation._batch(reps, draws)
        retained, cols = simulation._classify(*draws)
        with pytest.raises(MalformedRecord) as want:
            loops.batch_check(reps, retained, cols.take(retained))
        assert str(got.value) == str(want.value) == f"r13s{picks[0]}: {message}"


@st.composite
def draw_designs(draw):
    """Designs and replication ranges for the draws: censored or not,
    truncated or not, n up to 60, replications from anywhere in [0, 2**32)."""
    config = ScenarioConfig(
        n=draw(st.integers(1, 60)),
        hazard_ill=draw(st.sampled_from([0.039, 0.1, 3.0])),
        hazard_direct=draw(st.sampled_from([0.026, 0.5])),
        progression_factor=draw(st.sampled_from([1.7, 4.0])),
        censor_hazard=draw(st.sampled_from([0.0, 0.013, 0.2, 2])),
        truncation=draw(st.sampled_from([
            None, TruncationConfig(), TruncationConfig(location=20.0, scale=5.0, shape=-3.0),
        ])),
        seed=draw(st.integers(0, 2**70)),
    )
    first = draw(st.integers(0, 2**32 - 20))
    reps = range(first, first + draw(st.integers(1, 20)))
    if draw(st.booleans()):  # any indices, in any order
        reps = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8, unique=True))
    return config, reps


@settings(max_examples=200, deadline=None)
@given(design=draw_designs())
@example(design=(ScenarioConfig(n=1, censor_hazard=0.0), range(1)))
@example(design=(ScenarioConfig(n=60, censor_hazard=0.0, truncation=TruncationConfig()), [7]))
@example(design=(preset("table3").config, range(49, 50)))
@example(design=(preset("table1").config, range(3, 53)))
def test_draws_equal_the_stream_loop(design):
    # the rows each stream fills, then transformed once per batch: bit for
    # bit the arrays of one numpy call per draw and replication, stacked
    config, reps = design
    got, want = simulation._draws(config, reps), loops.draws(config, reps)
    assert len(got) == len(want) == 5
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


METHODS = ("check", "mm", "mm-stute", "aj")


@st.composite
def mc_designs(draw):
    """Small designs: censored or not, truncated or not, often with
    replications that retain no subject, landmarks that are empty and
    state-0 survivals that reach zero."""
    truncation = draw(st.sampled_from([
        None, TruncationConfig(), TruncationConfig(location=3.0),
        TruncationConfig(location=20.0, scale=5.0),
    ]))
    config = ScenarioConfig(
        n=draw(st.integers(1, 12)),
        hazard_ill=draw(st.sampled_from([0.039, 0.1])),
        censor_hazard=draw(st.sampled_from([0.0, 0.013, 0.2])),
        truncation=truncation,
        seed=draw(st.integers(0, 10_000)),
        replications=draw(st.integers(1, 9)),
    )
    landmark = draw(st.sampled_from([0.0, 5.0, 10.0]))
    gaps = st.lists(st.sampled_from([0.0, 3.0, 12.5, 40.0, 90.0]), min_size=1, max_size=4)
    times = [landmark + gap for gap in draw(gaps)]
    estimators = draw(st.permutations(METHODS))[: draw(st.integers(1, 4))]
    return config, tuple(estimators), times, landmark


FRAGILE = (
    ScenarioConfig(n=3, censor_hazard=0.05, truncation=TruncationConfig(location=3.0),
                   seed=3, replications=9),
    METHODS, [30.0, 60.0, 100.0], 10.0,
)
# entry at the origin, so the mm forms run: state-0 survivals reach zero
FRAGILE_AT_ORIGIN = (ScenarioConfig(n=2, censor_hazard=0.05, seed=3, replications=9), *FRAGILE[1:])


def _outcome(run):
    try:
        table = run()
    except Exception as err:  # the oracle must raise the same
        return type(err), str(err)
    return repr(table.rows), table.mean_cohort_size


@settings(max_examples=80, deadline=None)
@given(design=mc_designs(), batch=st.sampled_from([1, 3, None]), workers=st.sampled_from([1, 2]))
@example(design=FRAGILE, batch=1, workers=1)
@example(design=FRAGILE, batch=3, workers=2)
@example(design=FRAGILE, batch=None, workers=1)
@example(design=FRAGILE_AT_ORIGIN, batch=1, workers=1)
@example(design=FRAGILE_AT_ORIGIN, batch=None, workers=1)
def test_batches_equal_the_replication_loop(design, batch, workers):
    # every float repr-equal to one estimator call per replication, whatever
    # the batches (at most 1 or 3 replications, or all at once) and workers
    config, estimators, times, landmark = design
    want = _outcome(lambda: loops.run_monte_carlo(config, estimators, times, landmark))
    cells = config.n * (batch or config.replications)
    with mock.patch.object(simulation, "BATCH_CELLS", cells):
        got = _outcome(
            lambda: run_monte_carlo(config, estimators, times, landmark, workers=workers)
        )
    assert got == want


@pytest.mark.parametrize("reps", [7, 8, 9, 127, 128, 129])
def test_cell_sums_equal_the_replication_loop_past_a_pairwise_block(reps):
    # a cell with no excluded replication is reduced along the replication
    # axis of all the cells at once: bit for bit the cell alone, across the
    # 8-wide unrolled and 128-long pairwise blocks of numpy's sums
    steady = (ScenarioConfig(n=20, censor_hazard=0.013, seed=11), ("check", "mm", "aj"),
              list(simulation.DEFAULT_EVAL_TIMES), 10.0)
    for design, excluded in ((steady, False), (FRAGILE, True)):
        config, estimators, times, landmark = design
        config = replace(config, replications=reps)
        want = _outcome(lambda: loops.run_monte_carlo(config, estimators, times, landmark))
        table = run_monte_carlo(config, estimators, times, landmark, workers=1)
        assert (repr(table.rows), table.mean_cohort_size) == want
        assert any(row.n_excluded for row in table.rows) == excluded


@pytest.mark.filterwarnings("ignore")
def test_fragile_design_fails_every_way():
    # the explicit examples above cover each kind of excluded replication
    for design, want in (
        (FRAGILE, {"degenerate", "EmptyLandmark", "DelayedEntry"}),
        (FRAGILE_AT_ORIGIN, {"EmptyLandmark", "ZeroDenominator"}),
    ):
        config, estimators, times, landmark = design
        kinds = set()
        for rep in range(config.replications):
            try:
                cols = Columns.of(simulate_cohort(config, rep))
            except DegenerateCohort:
                kinds.add("degenerate")
                continue
            for name in estimators:
                try:
                    simulation.ESTIMATORS[name](cols, landmark, times)
                except EstimationError as err:
                    kinds.add(type(err).__name__)
        assert kinds == want


class TestUncensoredAgreement:
    def test_estimators_collapse_per_replication(self):
        cfg = ScenarioConfig(n=60, censor_hazard=0.0, seed=13)
        q = TransitionQuery(10, 40)
        for rep in range(25):
            cohort = simulate_cohort(cfg, rep)
            crude = multinomial_uncensored(cohort, q, exact=True)
            assert p01_cif_ratio(cohort, q, exact=True) == crude
            assert p01_landmark(cohort, q, exact=True) == crude


class TestMarkovControl:
    def test_reference_points(self):
        q = TransitionQuery(10, 30)
        assert markov_true_p01(q) == pytest.approx(0.24790388515731734)
        equal = markov_true_p01(q, 0.039, 0.026, 0.065)
        assert equal == pytest.approx(0.21257479856652983)
        # the equal-rate branch is the limit of the generic formula
        near = markov_true_p01(q, 0.039, 0.026, 0.065 + 1e-9)
        assert near == pytest.approx(equal, rel=1e-6)

    def test_generator_matches_closed_form(self):
        cohort = simulate_markov_cohort(20_000, seed=17)
        q = TransitionQuery(10, 30)
        est = p01_aalen_johansen(cohort, q)
        assert est == pytest.approx(markov_true_p01(q), abs=0.02)

    def test_rejects_bad_hazards(self):
        with pytest.raises(ValueError):
            simulate_markov_cohort(10, hazard_progression=0.0)
        # a NaN rate would draw no censoring at all
        with pytest.raises(ValueError, match="censor hazard must be >= 0"):
            simulate_markov_cohort(10, censor_hazard=float("nan"))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("hazard_ill", math.nan),
            ("hazard_direct", math.nan),
            ("hazard_direct", math.inf),
            ("hazard_progression", math.inf),
            ("censor_hazard", math.inf),
        ],
    )
    def test_rejects_non_finite_rates(self, name, value):
        # each slipped past the sign checks: a MalformedRecord, an empty
        # cohort or subjects who die at onset
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            simulate_markov_cohort(10, **{name: value})


class TestMonteCarloHarness:
    def test_rows_shape_and_order(self):
        cfg = ScenarioConfig(n=40, replications=12, seed=19)
        table = run_monte_carlo(cfg, ("check", "mm"), eval_times=(30.0, 50.0))
        assert [r.estimator for r in table.rows] == ["check", "check", "mm", "mm"]
        assert [r.t for r in table.rows] == [30.0, 50.0, 30.0, 50.0]
        assert all(r.s == 10.0 for r in table.rows)
        assert all(r.n_effective + r.n_excluded == 12 for r in table.rows)
        assert table.mean_cohort_size == 40.0

    def test_deterministic_and_worker_invariant(self):
        cfg = ScenarioConfig(n=40, replications=16, seed=23)
        kw = dict(estimators=("check", "mm"), eval_times=(30.0, 60.0))
        serial = run_monte_carlo(cfg, workers=1, **kw)
        again = run_monte_carlo(cfg, workers=1, **kw)
        parallel = run_monte_carlo(cfg, workers=2, **kw)
        assert serial.rows == again.rows
        assert serial.rows == parallel.rows

    def test_csv_layout(self):
        cfg = ScenarioConfig(n=30, replications=8, seed=29)
        table = run_monte_carlo(cfg, ("check",), eval_times=(30.0,))
        sink = io.StringIO()
        table.to_csv(sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "estimator,s,t,bias,variance,n_effective,n_excluded"
        assert len(lines) == 2
        first = lines[1].split(",")
        assert first[0] == "check"
        assert float(first[1]) == 10.0 and float(first[2]) == 30.0
        assert math.isfinite(float(first[3])) and math.isfinite(float(first[4]))

    def test_no_t_gives_no_rows(self):
        # as estimators=() does, where the batched curves broke on (0,) shapes
        cfg = preset("table1", n=20, replications=3).config
        assert run_monte_carlo(cfg, eval_times=()).rows == ()

    def test_validates_arguments(self):
        cfg = ScenarioConfig(n=30, replications=4, seed=1)
        with pytest.raises(ValueError):
            run_monte_carlo(cfg, ("nope",))
        with pytest.raises(ValueError):
            run_monte_carlo(cfg, ("check",), eval_times=(5.0,), landmark=10.0)


class TestPresets:
    def test_designs(self):
        t1 = preset("table1")
        assert t1.config.censor_hazard == 0.013
        assert t1.config.truncation is None
        assert t1.estimators == ("check", "mm", "aj")
        t2 = preset("table2")
        assert t2.config.censor_hazard == 0.035
        assert t2.estimators == ("check", "mm", "aj")
        t3 = preset("table3")
        assert t3.config.truncation == TruncationConfig()
        assert t3.estimators == ("aj", "check")

    def test_overrides(self):
        sc = preset("table1", n=25, replications=7, seed=99)
        assert (sc.config.n, sc.config.replications, sc.config.seed) == (25, 7, 99)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset("table9")


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n=0)
        with pytest.raises(ValueError):
            ScenarioConfig(hazard_ill=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(censor_hazard=-0.1)
        with pytest.raises(ValueError, match="censor hazard must be >= 0"):
            ScenarioConfig(censor_hazard=float("nan"))
        with pytest.raises(ValueError):
            ScenarioConfig(progression_factor=1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(replications=0)
        with pytest.raises(ValueError):
            TruncationConfig(scale=0.0)
        # non-finite design values, which would otherwise surface downstream
        # as empty replications, record errors or a silent run
        for name in ("hazard_ill", "hazard_direct", "progression_factor", "censor_hazard"):
            with pytest.raises(ValueError):
                ScenarioConfig(**{name: math.inf})
        with pytest.raises(ValueError, match="^progression_factor must be finite"):
            ScenarioConfig(progression_factor=math.inf)
        for name in ("location", "scale", "shape"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError):
                    TruncationConfig(**{name: value})
