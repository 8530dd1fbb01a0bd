"""Tests for the transactional queuing models (§3.3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.txn.queuing import (
    ErlangCModel,
    ProcessorSharingModel,
    calibrate_processor_sharing,
    _erlang_c_wait_probability,
)


class TestProcessorSharingModel:
    def make(self) -> ProcessorSharingModel:
        # 100 req/s, 39 Mcycles/request, 3900 MHz processors
        return ProcessorSharingModel(100.0, 39.0, 3900.0)

    def test_offered_load(self):
        assert self.make().offered_load == pytest.approx(3900.0)

    def test_min_response_time_is_bare_service(self):
        assert self.make().min_response_time == pytest.approx(0.01)

    def test_saturation_point(self):
        model = self.make()
        assert model.saturation_cpu == pytest.approx(3900 + 3900)
        assert model.response_time(model.saturation_cpu) == pytest.approx(
            model.min_response_time
        )

    def test_below_offered_load_is_unstable(self):
        model = self.make()
        assert model.response_time(3900.0) == math.inf
        assert model.response_time(1000.0) == math.inf

    def test_response_time_decreases_with_allocation(self):
        model = self.make()
        assert model.response_time(5000) > model.response_time(6000)

    def test_floor_not_crossed(self):
        model = self.make()
        assert model.response_time(1e9) == pytest.approx(model.min_response_time)

    def test_required_cpu_inverse(self):
        model = self.make()
        for target in (0.02, 0.05, 0.5):
            cpu = model.required_cpu(target)
            assert model.response_time(cpu) == pytest.approx(target, rel=1e-6)

    def test_required_cpu_below_floor_infinite(self):
        assert self.make().required_cpu(0.001) == math.inf

    def test_zero_rate_needs_nothing(self):
        model = ProcessorSharingModel(0.0, 39.0, 3900.0)
        assert model.required_cpu(0.5) == 0.0
        assert model.response_time(0.0) == pytest.approx(0.01)

    def test_with_rate(self):
        model = self.make().with_rate(200.0)
        assert model.offered_load == pytest.approx(7800.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ProcessorSharingModel(-1, 39, 3900)
        with pytest.raises(ConfigurationError):
            ProcessorSharingModel(1, 0, 3900)
        with pytest.raises(ConfigurationError):
            ProcessorSharingModel(1, 39, 0)

    @given(cpu=st.floats(min_value=4000, max_value=1e6))
    @settings(max_examples=100)
    def test_response_time_bounded_below(self, cpu):
        model = self.make()
        assert model.response_time(cpu) >= model.min_response_time - 1e-12


class TestErlangC:
    def test_wait_probability_edge_cases(self):
        assert _erlang_c_wait_probability(0, 1.0) == 1.0
        assert _erlang_c_wait_probability(4, 0.0) == 0.0
        assert _erlang_c_wait_probability(2, 2.5) == 1.0  # overloaded

    def test_wait_probability_mm1_matches_rho(self):
        # For M/M/1, P(wait) = rho.
        assert _erlang_c_wait_probability(1, 0.5) == pytest.approx(0.5)

    def test_wait_probability_decreases_with_servers(self):
        a = 2.0
        probs = [_erlang_c_wait_probability(c, a) for c in range(3, 8)]
        assert probs == sorted(probs, reverse=True)

    def test_response_time_shape(self):
        model = ErlangCModel(100.0, 39.0, 3900.0)
        assert model.response_time(3900.0) == math.inf  # 1 server, rho=1
        t2 = model.response_time(2 * 3900.0)
        t4 = model.response_time(4 * 3900.0)
        assert model.min_response_time < t4 < t2 < math.inf

    def test_required_cpu_inverse_continuous_region(self):
        model = ErlangCModel(100.0, 39.0, 3900.0)
        target = 0.012  # in the smooth region (>2 servers)
        cpu = model.required_cpu(target)
        assert model.response_time(cpu) == pytest.approx(target, rel=1e-3)

    def test_required_cpu_minimal_at_discontinuity(self):
        """The response curve jumps where the lower integer server count
        is unstable; required_cpu returns the smallest allocation whose
        response time is at or below the target."""
        model = ErlangCModel(100.0, 39.0, 3900.0)
        target = 0.02  # unreachable exactly: curve jumps from inf to 0.0133
        cpu = model.required_cpu(target)
        assert model.response_time(cpu) <= target
        assert model.response_time(cpu * 0.99) > target

    def test_zero_rate(self):
        model = ErlangCModel(0.0, 39.0, 3900.0)
        assert model.required_cpu(1.0) == 0.0
        assert model.response_time(100.0) == pytest.approx(0.01)

    def test_saturation_cpu_achieves_near_floor(self):
        model = ErlangCModel(100.0, 39.0, 3900.0)
        sat = model.saturation_cpu
        assert model.response_time(sat) <= model.min_response_time * 1.002

    def test_inverse_is_capped_at_the_saturation(self):
        """A target between the floor and the saturation point's
        response time needs the saturation allocation, not the far
        larger one the curve approaches the floor with."""
        model = ErlangCModel(100.0, 39.0, 3900.0)
        assert model.required_cpu(model.min_response_time) == model.saturation_cpu
        assert model.required_cpu(0.012) < model.saturation_cpu

    def test_saturation_is_bisected_once(self, monkeypatch):
        model = ErlangCModel(100.0, 39.0, 3900.0)
        targets = []
        bisect = model._bisect_cpu

        def counted(target):
            targets.append(target)
            return bisect(target)

        monkeypatch.setattr(model, "_bisect_cpu", counted)
        first = model.saturation_cpu
        assert model.saturation_cpu == first
        model.required_cpu(0.012)
        model.required_cpu(0.013)
        assert len(targets) == 3


class TestCalibration:
    """Experiment Three's anchors: plateau 0.66 at ~130,000 MHz."""

    def test_calibration_hits_anchors(self):
        model, goal = calibrate_processor_sharing(
            max_utility=0.66,
            saturation_cpu_mhz=130_000.0,
            single_thread_speed_mhz=3900.0,
        )
        # Plateau utility: u = (goal - t_min)/goal = 0.66
        u_plateau = (goal - model.min_response_time) / goal
        assert u_plateau == pytest.approx(0.66)
        # Saturation exactly at 130,000 MHz
        assert model.saturation_cpu == pytest.approx(130_000.0)
        assert model.response_time(130_000.0) == pytest.approx(
            model.min_response_time
        )
        assert model.response_time(129_000.0) > model.min_response_time

    def test_calibration_validation(self):
        with pytest.raises(ConfigurationError):
            calibrate_processor_sharing(1.5, 130_000, 3900)
        with pytest.raises(ConfigurationError):
            calibrate_processor_sharing(0.66, 1000, 3900)
        with pytest.raises(ConfigurationError):
            calibrate_processor_sharing(0.66, 130_000, 3900, min_response_time=0)
