"""Tests and property-based tests for the core RPF machinery."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rpf import (
    JobAllocationRPF,
    LinearRPF,
    NEGATIVE_INFINITY_UTILITY,
    PiecewiseLinearRPF,
    RelativePerformanceFunction,
)
from repro.errors import ConfigurationError
from repro.txn.queuing import ErlangCModel, ProcessorSharingModel
from repro.txn.rpf import TransactionalRPF
from repro.units import EPSILON


@st.composite
def monotone_points(draw):
    """Sample points with non-decreasing CPUs and utilities, some steps
    below ``EPSILON`` so that tails can be flat or nearly so."""
    cpu = draw(st.floats(min_value=0.0, max_value=100.0))
    utility = draw(st.floats(min_value=-50.0, max_value=0.5))
    points = [(cpu, utility)]
    for _ in range(draw(st.integers(1, 5))):
        cpu += draw(st.sampled_from([0.0, 1e-7, 3.0, 250.0]))
        utility += draw(st.sampled_from([0.0, 3e-7, 2e-6, 0.05, 0.4]))
        points.append((cpu, utility))
    return points


class TestPiecewiseLinearRPF:
    def make(self) -> PiecewiseLinearRPF:
        return PiecewiseLinearRPF([(0, -1.0), (100, 0.0), (200, 0.5), (400, 0.5)])

    def test_requires_two_points(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinearRPF([(0, 0.0)])

    def test_rejects_decreasing_cpu(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinearRPF([(10, 0.0), (5, 0.5)])

    def test_rejects_decreasing_utility(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinearRPF([(0, 0.5), (10, 0.0)])

    @pytest.mark.parametrize("points", [
        # required_cpu would fall from 100.0 at 0.5 to 99.9999995 at 0.6.
        [(0, -1), (100, 0.5), (99.9999995, 0.6), (200, 0.9)],
        # bisect would search an unsorted list: 150.0000625 MHz for 0.5,
        # although utility(100) == 0.5.
        [(0, -1), (100, 0.5), (150, 0.4999995), (200, 0.9)],
    ])
    def test_rejects_a_decrease_below_epsilon(self, points):
        """A sample may not fall at all, not even by less than EPSILON:
        the inverse must stay monotone."""
        with pytest.raises(ConfigurationError):
            PiecewiseLinearRPF(points)

    def test_rejects_negative_cpu(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinearRPF([(-1, 0.0), (10, 0.5)])

    def test_interpolates_between_points(self):
        rpf = self.make()
        assert rpf.utility(50) == pytest.approx(-0.5)
        assert rpf.utility(150) == pytest.approx(0.25)

    def test_clamps_outside_range(self):
        rpf = self.make()
        assert rpf.utility(0) == -1.0
        assert rpf.utility(1e9) == 0.5

    def test_max_utility_and_saturation(self):
        rpf = self.make()
        assert rpf.max_utility == 0.5
        # saturation is the *smallest* allocation achieving max utility,
        # before the flat tail
        assert rpf.saturation_cpu == 200

    def test_required_cpu_inverse(self):
        rpf = self.make()
        assert rpf.required_cpu(0.0) == pytest.approx(100)
        assert rpf.required_cpu(0.25) == pytest.approx(150)

    def test_required_cpu_above_max_is_infinite(self):
        assert self.make().required_cpu(0.9) == math.inf

    @pytest.mark.parametrize("points, saturation", [
        ([(0, 0), (100, 0.5)], 100.0),
        ([(0, -50), (50, 0.2), (100, 0.66), (120, 0.66), (150, 0.66)], 100.0),
    ])
    def test_required_cpu_just_above_max_is_the_saturation(
        self, points, saturation
    ):
        """Within EPSILON above the last sample, the inverse neither
        extrapolates past it nor returns a flat tail's second-to-last
        CPU: demand must not fall as the level rises to inf."""
        rpf = PiecewiseLinearRPF(points)
        assert rpf.saturation_cpu == saturation
        assert rpf.required_cpu(rpf.max_utility + 0.5 * EPSILON) == saturation

    @given(points=monotone_points(), data=st.data())
    @settings(max_examples=300)
    def test_required_cpu_never_exceeds_saturation(self, points, data):
        rpf = PiecewiseLinearRPF(points)
        top = rpf.max_utility
        u = data.draw(st.floats(min_value=points[0][1] - 1.0, max_value=top + EPSILON))
        assert rpf.required_cpu(u) <= rpf.saturation_cpu
        above = top + data.draw(st.floats(min_value=0.01, max_value=1.0)) * EPSILON
        if above > top:
            assert rpf.required_cpu(above) == rpf.saturation_cpu

    def test_protocol_conformance(self):
        assert isinstance(self.make(), RelativePerformanceFunction)

    @given(
        cpu=st.floats(min_value=0.0, max_value=500.0),
        cpu2=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_monotone_in_allocation(self, cpu, cpu2):
        rpf = self.make()
        lo, hi = min(cpu, cpu2), max(cpu, cpu2)
        assert rpf.utility(lo) <= rpf.utility(hi) + 1e-9

    @given(u=st.floats(min_value=-1.0, max_value=0.5))
    def test_roundtrip_required_then_utility(self, u):
        """utility(required_cpu(u)) >= u up to float noise."""
        rpf = self.make()
        cpu = rpf.required_cpu(u)
        assert rpf.utility(cpu) >= u - 1e-6


class TestLinearRPF:
    def test_basic_shape(self):
        rpf = LinearRPF(slope=0.01, intercept=-1.0, max_utility=1.0)
        assert rpf.utility(0) == -1.0
        assert rpf.utility(100) == pytest.approx(0.0)
        assert rpf.utility(1e9) == 1.0

    def test_saturation(self):
        rpf = LinearRPF(slope=0.01, intercept=-1.0, max_utility=1.0)
        assert rpf.saturation_cpu == pytest.approx(200.0)
        assert rpf.utility(rpf.saturation_cpu) == pytest.approx(1.0)

    def test_required_cpu(self):
        rpf = LinearRPF(slope=0.01, intercept=-1.0, max_utility=1.0)
        assert rpf.required_cpu(0.0) == pytest.approx(100.0)
        assert rpf.required_cpu(-2.0) == 0.0
        assert rpf.required_cpu(1.5) == math.inf

    def test_required_cpu_just_above_max_is_the_saturation(self):
        rpf = LinearRPF(0.001, 0.0, max_utility=0.5)
        assert rpf.saturation_cpu == 500.0
        assert rpf.required_cpu(0.5 + 0.5 * EPSILON) == 500.0

    def test_rejects_non_positive_slope(self):
        with pytest.raises(ConfigurationError):
            LinearRPF(slope=0.0, intercept=0.0)

    def test_rejects_max_below_intercept(self):
        with pytest.raises(ConfigurationError):
            LinearRPF(slope=1.0, intercept=0.5, max_utility=0.0)

    @given(
        slope=st.floats(min_value=1e-4, max_value=10.0),
        intercept=st.floats(min_value=-5.0, max_value=0.0),
        u=st.floats(min_value=-4.9, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_inverse_roundtrip(self, slope, intercept, u):
        rpf = LinearRPF(slope=slope, intercept=intercept, max_utility=1.0)
        if u <= intercept:
            return
        cpu = rpf.required_cpu(u)
        assert rpf.utility(cpu) == pytest.approx(u, abs=1e-6)


def test_negative_infinity_utility_is_very_negative():
    assert NEGATIVE_INFINITY_UTILITY <= -10.0


@st.composite
def any_rpf(draw):
    """An RPF of any implementation: sampled points, a line, a batch
    job's completion-time RPF (finished jobs included) and the
    transactional RPF over either queuing model, with goals from far
    below the response-time floor to far above it."""
    kind = draw(st.sampled_from(["points", "line", "job", "ps", "erlang"]))
    if kind == "points":
        return PiecewiseLinearRPF(draw(monotone_points()))
    if kind == "line":
        intercept = draw(st.floats(-5.0, 0.5))
        top = draw(st.floats(intercept, 1.0))
        return LinearRPF(draw(st.floats(1e-4, 10.0)), intercept, top)
    if kind == "job":
        now = draw(st.floats(0.0, 1e5))
        remaining = draw(st.one_of(
            st.just(0.0), st.floats(0.0, EPSILON), st.floats(1.0, 1e8)
        ))
        speed = draw(st.floats(1.0, 4000.0))
        goal = now + draw(st.floats(-1e4, 1e5))
        return JobAllocationRPF.from_parts(
            "j", now, goal, draw(st.floats(1.0, 1e4)), remaining, speed,
            now + remaining / speed,
        )
    sigma = draw(st.floats(100.0, 4000.0))
    demand = sigma * draw(st.floats(0.01, 0.5))
    # Offered load, in servers of speed sigma.
    rate = draw(st.floats(0.0, 20.0)) * sigma / demand
    model_cls = ProcessorSharingModel if kind == "ps" else ErlangCModel
    floor = demand / sigma
    return TransactionalRPF(
        model_cls(rate, demand, sigma), floor * draw(st.floats(0.01, 100.0))
    )


@given(rpf=any_rpf(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_required_cpu_never_exceeds_saturation(rpf, data):
    """The protocol's contract, for every implementation: up to
    ``max_utility + EPSILON`` the inverse asks for no more than the
    saturation allocation."""
    top = rpf.max_utility
    saturation = rpf.saturation_cpu
    u = data.draw(st.floats(
        min_value=min(top, NEGATIVE_INFINITY_UTILITY) - 1.0,
        max_value=top + EPSILON,
    ))
    for utility in (u, top, top + 0.5 * EPSILON, top + EPSILON):
        assert rpf.required_cpu(utility) <= saturation
