"""Tests for the hypothetical relative performance (§4.2, W/V matrices)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import hypothetical
from repro.batch.hypothetical import (
    _LEVEL_SOLVE_ITERATIONS,
    DEFAULT_UTILITY_LEVELS,
    HypotheticalRPF,
)
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.batch.rpf import JobAllocationRPF
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.errors import ConfigurationError
from repro.units import EPSILON

from tests.conftest import make_job


def rpfs_for(jobs, now=0.0):
    return [JobAllocationRPF(j, now) for j in jobs]


def two_identical_jobs():
    return [
        make_job("a", work=1000, max_speed=500, goal_factor=5),
        make_job("b", work=1000, max_speed=500, goal_factor=5),
    ]


class TestConstruction:
    def test_levels_must_increase(self):
        with pytest.raises(ConfigurationError):
            HypotheticalRPF([], levels=[0.0, 0.0, 1.0])

    def test_levels_must_end_at_one(self):
        with pytest.raises(ConfigurationError):
            HypotheticalRPF([], levels=[0.0, 0.5])

    def test_needs_two_levels(self):
        with pytest.raises(ConfigurationError):
            HypotheticalRPF([], levels=[1.0])

    @pytest.mark.parametrize(
        "levels",
        [
            (-50.0, float("nan"), 1.0),
            (float("-inf"), 0.0, 1.0),
            (-50.0, 0.0, float("inf")),
            (0.0, 0.5),
            (1.0,),
            (-1.0, 0.5, 0.2, 1.0),
            (-1.0, "half", 1.0),
        ],
    )
    def test_bad_levels_rejected_at_construction(self, levels):
        with pytest.raises(ConfigurationError, match="level"):
            HypotheticalRPF([], levels=levels)
        with pytest.raises(ConfigurationError, match="level"):
            BatchWorkloadModel(JobQueue(), levels=levels)

    def test_default_levels_span_the_scale(self):
        assert DEFAULT_UTILITY_LEVELS[0] == NEGATIVE_INFINITY_UTILITY
        assert DEFAULT_UTILITY_LEVELS[-1] == 1.0

    def test_empty_job_set(self):
        h = HypotheticalRPF([])
        assert len(h) == 0
        assert h.max_aggregate_demand == 0.0
        assert h.job_utilities(1000) == {}
        assert np.isnan(h.average_utility(1000))


class TestWMatrix:
    def test_w_rows_nondecreasing_in_level(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        w = h.w_matrix
        assert (np.diff(w, axis=0) >= -1e-9).all()

    def test_w_clamped_at_max_speed(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        assert (h.w_matrix <= 500 + 1e-9).all()

    def test_v_clamped_at_u_max(self):
        jobs = two_identical_jobs()
        h = HypotheticalRPF(rpfs_for(jobs))
        u_max = JobAllocationRPF(jobs[0], 0.0).max_utility
        assert (h.v_matrix <= u_max + 1e-9).all()

    def test_equation_three_entry(self):
        """W at level u equals α_rem/(t(u) − t_now)."""
        job = make_job("a", work=1000, max_speed=500, goal_factor=5)
        h = HypotheticalRPF([JobAllocationRPF(job, 0.0)], levels=[-1.0, 0.0, 1.0])
        # u=0 -> t=10 -> speed 100; u=-1 -> t=20 -> speed 50
        assert h.w_matrix[1, 0] == pytest.approx(100.0)
        assert h.w_matrix[0, 0] == pytest.approx(50.0)
        # u=1 unreachable -> clamped to max speed
        assert h.w_matrix[2, 0] == pytest.approx(500.0)

    def test_completed_jobs_demand_nothing(self):
        job = make_job("a", work=1000, max_speed=500, goal_factor=5)
        job.advance(1000)
        h = HypotheticalRPF([JobAllocationRPF(job, 0.0)])
        assert h.max_aggregate_demand == 0.0
        assert h.job_utilities(0.0)["a"] == 1.0

    def test_subnormal_horizon_raises_no_float_warning(self):
        """Job ``a``'s horizon at ``u = 0`` is the smallest subnormal:
        closed (at most EPSILON), so it demands its max speed, and no
        pass may divide by it and overflow."""
        h = HypotheticalRPF.from_arrays(
            ["a", "b"],
            remaining=np.array([1_000.0, 1_000.0]),
            goal=np.array([5e-324, 10.0]),
            relative_goal=np.array([1.0, 5.0]),
            max_speed=np.array([100.0, 500.0]),
            now=np.zeros(2),
            u_max=np.ones(2),
            levels=(-1.0, 0.0, 1.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = h.w_matrix
            speeds = h.demand_at(0.0)
            level = h.equalized_level(250.0)
        assert w[1].tolist() == speeds.tolist() == [100.0, 100.0]
        assert 0.0 < level < 1.0
        assert level == reference_equalized_level(h, 250.0)


class TestEqualizedLevel:
    def test_plentiful_capacity_gives_max_utilities(self):
        jobs = two_identical_jobs()
        h = HypotheticalRPF(rpfs_for(jobs))
        utilities = h.job_utilities(10_000)
        for j in jobs:
            assert utilities[j.job_id] == pytest.approx(
                JobAllocationRPF(j, 0.0).max_utility, abs=1e-6
            )

    def test_zero_capacity_floors(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        utilities = h.job_utilities(0.0)
        for u in utilities.values():
            assert u == pytest.approx(NEGATIVE_INFINITY_UTILITY, abs=1e-3)

    def test_identical_jobs_get_equal_utilities(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        utilities = h.job_utilities(300.0)
        vals = list(utilities.values())
        assert vals[0] == pytest.approx(vals[1], abs=1e-6)

    def test_exact_level_demand_matches_aggregate(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        aggregate = 300.0
        level = h.equalized_level(aggregate)
        assert h.aggregate_demand_at(level) == pytest.approx(aggregate, rel=1e-6)

    def test_aggregate_required_matches_w_sums_at_levels(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        sums = h.aggregate_demands
        for level, total in zip(h.levels, sums):
            assert h.aggregate_required(level) == pytest.approx(total)

    @given(agg=st.floats(min_value=0, max_value=2000))
    @settings(max_examples=100)
    def test_utilities_monotone_in_aggregate(self, agg):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        u_lo = h.utilities_array(agg)
        u_hi = h.utilities_array(agg + 50)
        assert (u_hi >= u_lo - 1e-9).all()

    @given(agg=st.floats(min_value=0, max_value=2000))
    @settings(max_examples=100)
    def test_utilities_bounded(self, agg):
        jobs = two_identical_jobs()
        h = HypotheticalRPF(rpfs_for(jobs))
        u = h.utilities_array(agg)
        u_max = JobAllocationRPF(jobs[0], 0.0).max_utility
        assert (u >= NEGATIVE_INFINITY_UTILITY - 1e-9).all()
        assert (u <= u_max + 1e-9).all()


def reference_equalized_level(h, aggregate_mhz, mids=None):
    """The straightforward bisection over :meth:`aggregate_demand_at`:
    the oracle that ``equalized_level``'s certified solve must equal.
    Appends every midpoint it probes to ``mids`` when given."""
    if len(h) == 0:
        return 1.0
    aggregate = max(0.0, float(aggregate_mhz))
    lo, hi = float(h.levels[0]), 1.0
    if h.aggregate_demand_at(hi) <= aggregate + EPSILON:
        return hi
    if h.aggregate_demand_at(lo) > aggregate:
        return lo
    for _ in range(_LEVEL_SOLVE_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mids is not None:
            mids.append(mid)
        if h.aggregate_demand_at(mid) <= aggregate:
            lo = mid
        else:
            hi = mid
    return lo


def pinned_aggregates(h, levels):
    """Aggregates a wrong bracket would misjudge: the exact demand at
    each of ``levels`` and its neighbouring floats."""
    out = []
    for level in levels:
        demand = h.aggregate_demand_at(float(level))
        out += [
            np.nextafter(demand, -np.inf), demand, np.nextafter(demand, np.inf)
        ]
    return out


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def job_arrays(draw):
    """Per-job fields for :meth:`HypotheticalRPF.from_arrays`: completed
    jobs (remaining at most EPSILON) and jobs whose goal lies before
    ``now`` (past the horizon at every level) mixed with ordinary ones.

    Up to 40 jobs are drawn field by field.  Larger tables, up to 300
    jobs (past numpy's 128-element pairwise-sum block, so the grid
    pass's row sums are checked against single probes), come from a
    drawn seed with the same value ranges: drawing 1,500 floats one by
    one would dominate the test's run time.
    """
    n = draw(st.integers(min_value=1, max_value=300))
    if n > 40:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        done_share = draw(st.sampled_from([0.0, 0.05, 0.3]))
        kind = rng.random(n)
        remaining = np.where(
            kind < done_share,
            rng.choice([0.0, EPSILON], n) * rng.random(n),
            10.0 ** rng.uniform(0.0, 8.0, n),
        )
        now = rng.uniform(0.0, 1e5, n)
        goal = now + rng.uniform(-1e4, 1e5, n)
        rel = rng.uniform(1.0, 1e4, n)
        speed = rng.uniform(1.0, 4000.0, n)
    else:
        remaining = draw(st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=EPSILON, **_finite),
                st.floats(min_value=1.0, max_value=1e8, **_finite),
            ),
            min_size=n, max_size=n,
        ))
        now = draw(st.lists(
            st.floats(min_value=0.0, max_value=1e5, **_finite),
            min_size=n, max_size=n,
        ))
        goal = [
            t + draw(st.floats(min_value=-1e4, max_value=1e5, **_finite))
            for t in now
        ]
        rel = draw(st.lists(
            st.floats(min_value=1.0, max_value=1e4, **_finite),
            min_size=n, max_size=n,
        ))
        speed = draw(st.lists(
            st.floats(min_value=1.0, max_value=4000.0, **_finite),
            min_size=n, max_size=n,
        ))
    return HypotheticalRPF.from_arrays(
        [f"j{i}" for i in range(n)],
        remaining=np.array(remaining),
        goal=np.array(goal),
        relative_goal=np.array(rel),
        max_speed=np.array(speed),
        now=np.array(now),
        u_max=np.ones(n),
    )


class TestPreparedLevelProbes:
    """``equalized_level`` shares buffers across its probes and evaluates
    few of the bisection's probes; every level must still equal the
    plain bisection over ``aggregate_demand_at``."""

    @settings(max_examples=200, deadline=None)
    @given(h=job_arrays(), frac=st.floats(min_value=0.0, max_value=1.0))
    def test_equals_reference_bisection(self, h, frac):
        low = h.aggregate_demand_at(float(h.levels[0]))
        high = h.aggregate_demand_at(1.0)
        aggregates = [
            0.0, low * 0.5, low, np.nextafter(low, -np.inf),
            low + frac * (high - low),
            high - EPSILON, high, high + EPSILON, high * 2.0 + 1.0,
        ]
        for aggregate in aggregates:
            assert h.equalized_level(aggregate) == reference_equalized_level(
                h, aggregate
            )

    @settings(max_examples=80, deadline=None)
    @given(h=job_arrays())
    def test_exact_demand_at_every_sampling_level(self, h):
        for aggregate in pinned_aggregates(h, h.levels):
            assert h.equalized_level(aggregate) == reference_equalized_level(
                h, aggregate
            )

    @settings(max_examples=40, deadline=None)
    @given(h=job_arrays(), frac=st.floats(min_value=0.0, max_value=1.0))
    def test_exact_demand_at_bisection_midpoints(self, h, frac):
        low = h.aggregate_demand_at(float(h.levels[0]))
        high = h.aggregate_demand_at(1.0)
        mids = []
        reference_equalized_level(h, low + frac * (high - low), mids)
        # The last midpoints sit closest to the level, where a bracket
        # that is one float off would flip a probe.
        for aggregate in pinned_aggregates(h, mids[::6] + mids[-6:]):
            assert h.equalized_level(aggregate) == reference_equalized_level(
                h, aggregate
            )

    @staticmethod
    def interior_table():
        """A seeded 200-job table whose solves land inside ``(u_1, 1)``."""
        rng = np.random.default_rng(7)
        n = 200
        now = 5_000.0
        best = rng.uniform(200.0, 20_000.0, n)
        max_speed = rng.choice([1_000.0, 2_000.0, 3_900.0], n)
        relative_goal = best * rng.uniform(1.2, 6.0, n)
        return HypotheticalRPF.from_arrays(
            [f"j{i}" for i in range(n)],
            remaining=best * max_speed * rng.uniform(0.05, 1.0, n),
            goal=now + relative_goal * rng.uniform(0.2, 1.0, n),
            relative_goal=relative_goal,
            max_speed=max_speed,
            now=np.full(n, now),
            u_max=np.ones(n),
        )

    def test_interior_solve_takes_few_probes(self, monkeypatch):
        """An interior solve on a 200-job table runs at most 12 full
        demand passes (endpoints, Newton steps and the replayed
        bisection's leftovers), not the 50 of a plain bisection."""
        h = self.interior_table()
        passes = []
        probe = hypothetical._DemandProbe.demand

        def counted(self, level):
            passes.append(level)
            return probe(self, level)

        monkeypatch.setattr(hypothetical._DemandProbe, "demand", counted)
        low = h.aggregate_demand_at(float(h.levels[0]))
        high = h.aggregate_demand_at(1.0)
        for frac in np.linspace(0.02, 0.98, 25):
            aggregate = low + frac * (high - low)
            passes.clear()
            level = h.equalized_level(aggregate)
            assert len(passes) <= 12, (frac, len(passes))
            assert h.levels[0] < level < 1.0
            # The oracle probes through demand_at, not the wrapped probe.
            assert level == reference_equalized_level(h, aggregate)

    @settings(max_examples=200, deadline=None)
    @given(
        h=job_arrays(),
        frac=st.floats(min_value=0.0, max_value=1.0),
        drawn=st.lists(st.floats(), max_size=4),
        near=st.floats(min_value=-1e-2, max_value=1e-2),
    )
    def test_any_start_gives_the_reference_level(self, h, frac, drawn, near):
        """``start`` changes how the bracket is found, never the answer:
        starts anywhere (NaN, the infinities, the bounds, the answer and
        its neighbouring floats, near misses), and aggregates equal to
        the demand at a start, all return the plain bisection's float."""
        low = h.aggregate_demand_at(float(h.levels[0]))
        high = h.aggregate_demand_at(1.0)
        floor = float(h.levels[0])
        aggregate = low + frac * (high - low)
        answer = reference_equalized_level(h, aggregate)
        starts = [
            None, np.nan, np.inf, -np.inf, floor, 1.0,
            np.nextafter(floor, np.inf), np.nextafter(1.0, -np.inf),
            answer, np.nextafter(answer, -np.inf), np.nextafter(answer, np.inf),
            answer + near, *drawn,
        ]
        for start in starts:
            assert h.equalized_level(aggregate, start=start) == answer, start
        for start in starts[6:]:
            if not floor < start < 1.0:
                continue
            for pinned in pinned_aggregates(h, [start]):
                assert h.equalized_level(
                    pinned, start=start
                ) == reference_equalized_level(h, pinned), (start, pinned)

    def test_start_near_the_answer_skips_the_grid(self, monkeypatch):
        """On :meth:`interior_table`, a start within 1e-3 of the answer
        makes no pass over the sampling levels and at most 9 demand
        passes; a cold solve is allowed 12 plus that pass."""
        h = self.interior_table()
        passes, grids = [], []
        probe = hypothetical._DemandProbe
        demand, grid = probe.demand, probe.grid

        def counted(self, level):
            passes.append(level)
            return demand(self, level)

        def counted_grid(self, *args):
            grids.append(args)
            return grid(self, *args)

        monkeypatch.setattr(probe, "demand", counted)
        monkeypatch.setattr(probe, "grid", counted_grid)
        low = h.aggregate_demand_at(float(h.levels[0]))
        high = h.aggregate_demand_at(1.0)
        for frac in np.linspace(0.02, 0.98, 25):
            aggregate = low + frac * (high - low)
            answer = reference_equalized_level(h, aggregate)
            for offset in (-1e-3, -1e-4, -1e-6, 0.0, 1e-6, 1e-4, 1e-3):
                passes.clear()
                level = h.equalized_level(aggregate, start=answer + offset)
                assert level == answer
                assert not grids, (frac, offset)
                assert len(passes) <= 9, (frac, offset, len(passes))

    def test_completed_and_past_horizon_jobs(self):
        h = HypotheticalRPF.from_arrays(
            ["done", "late", "open"],
            remaining=np.array([0.0, 5_000.0, 8_000.0]),
            goal=np.array([100.0, 50.0, 400.0]),
            relative_goal=np.array([100.0, 100.0, 100.0]),
            max_speed=np.array([100.0, 100.0, 100.0]),
            now=np.array([0.0, 100.0, 0.0]),
            u_max=np.ones(3),
        )
        for aggregate in np.linspace(0.0, 300.0, 61):
            assert h.equalized_level(aggregate) == reference_equalized_level(
                h, aggregate
            )


class TestInterpolationApproximation:
    """The paper's equation-(6) interpolation versus the exact solve."""

    def test_interpolated_speeds_sum_to_aggregate(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        for agg in (100.0, 300.0, 700.0):
            speeds = h.job_speeds(agg)
            assert speeds.sum() == pytest.approx(agg, rel=1e-6)

    def test_interpolation_close_to_exact(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        for agg in (100.0, 300.0, 700.0):
            approx = h.utilities_array(agg, method="interpolate")
            exact = h.utilities_array(agg, method="exact")
            assert np.abs(approx - exact).max() < 0.1

    def test_above_max_demand_both_methods_agree(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        agg = h.max_aggregate_demand + 100
        approx = h.utilities_array(agg, method="interpolate")
        exact = h.utilities_array(agg, method="exact")
        assert np.allclose(approx, exact, atol=1e-9)

    def test_unknown_method_rejected(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        with pytest.raises(ConfigurationError):
            h.utilities_array(100.0, method="nope")


class TestPredictionCoupling:
    """Performance predictions for jobs are made in relation to other
    jobs (§4): adding work to the system lowers everyone's prediction."""

    def test_more_jobs_lower_shared_utilities(self):
        jobs = two_identical_jobs()
        h2 = HypotheticalRPF(rpfs_for(jobs))
        crowd = jobs + [make_job("c", work=1000, max_speed=500, goal_factor=5)]
        h3 = HypotheticalRPF(rpfs_for(crowd))
        agg = 400.0
        assert h3.job_utilities(agg)["a"] < h2.job_utilities(agg)["a"]

    def test_urgent_job_dominates_demand(self):
        relaxed = make_job("slack", work=1000, max_speed=500, goal_factor=8)
        urgent = make_job("tight", work=1000, max_speed=500, goal_factor=1.2)
        h = HypotheticalRPF(rpfs_for([relaxed, urgent]))
        # At a level near the urgent job's maximum, the urgent job demands
        # (nearly) its full speed while the relaxed one demands little.
        level = JobAllocationRPF(urgent, 0.0).max_utility - 0.01
        demands = h.demand_at(level)
        assert demands[1] > demands[0]
