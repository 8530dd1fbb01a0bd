"""Tests for the progressive-filling load distributor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.rpf import JobAllocationRPF
from repro.cluster import Cluster
from repro.core.loadbalance import AllocatableApp, distribute_load
from repro.core.placement import AppDemand, PlacementState
from repro.core.rpf import LinearRPF

from tests.conftest import make_job


def job_app(job, now=0.0, memory=750.0):
    return AllocatableApp(
        demand=AppDemand(
            app_id=job.job_id,
            memory_mb=memory,
            max_cpu_per_instance_mhz=job.max_speed,
            max_instances=1,
            divisible=False,
        ),
        rpf=JobAllocationRPF(job, now),
    )


def linear_app(app_id, slope, memory=100.0, divisible=False, max_cpu=float("inf")):
    return AllocatableApp(
        demand=AppDemand(
            app_id=app_id,
            memory_mb=memory,
            max_cpu_per_instance_mhz=max_cpu,
            max_instances=None if divisible else 1,
            divisible=divisible,
        ),
        rpf=LinearRPF(slope=slope, intercept=-1.0, max_utility=1.0),
    )


class TestSingleNode:
    def test_no_placed_apps(self, single_node_cluster):
        state = PlacementState(single_node_cluster)
        result = distribute_load(state, {})
        assert result.allocations == {}
        assert result.feasible

    def test_one_job_gets_its_max_speed(self, single_node_cluster):
        state = PlacementState(single_node_cluster)
        job = make_job("J1", work=4000, max_speed=1000, goal_factor=5)
        apps = {"J1": job_app(job)}
        state.place("J1", "node0", 750)
        result = distribute_load(state, apps)
        assert result.allocations["J1"] == pytest.approx(1000.0)
        assert state.cpu_on("J1", "node0") == pytest.approx(1000.0)

    def test_illustrative_scenario2_equalizes(self, single_node_cluster):
        """S2 cycle 2: J1 (rem 3000, goal 20) and J2 (tight goal 13)
        share the 1000 MHz node at an equalized level (paper: ~0.65
        each, ~500 MHz each)."""
        state = PlacementState(single_node_cluster)
        j1 = make_job("J1", work=4000, max_speed=1000, goal_factor=5)
        j1.advance(1000)  # ran the first cycle at full speed
        j2 = make_job("J2", work=2000, max_speed=500, submit=1.0, goal_factor=3)
        apps = {"J1": job_app(j1, now=1.0), "J2": job_app(j2, now=1.0)}
        state.place("J1", "node0", 750)
        state.place("J2", "node0", 750)
        result = distribute_load(state, apps)
        total = sum(result.allocations.values())
        assert total == pytest.approx(1000.0, rel=1e-3)
        u1 = apps["J1"].rpf.utility(result.allocations["J1"])
        u2 = apps["J2"].rpf.utility(result.allocations["J2"])
        # Equalized (neither saturated at this capacity).
        assert u1 == pytest.approx(u2, abs=0.01)

    def test_saturated_app_frees_capacity_for_others(self, single_node_cluster):
        """An app capped at a low max speed leaves its surplus to the
        other (lexicographic refinement beyond the common level)."""
        state = PlacementState(single_node_cluster)
        j_fast = make_job("fast", work=4000, max_speed=1000, goal_factor=5)
        j_slow = make_job("slow", work=100, max_speed=100, goal_factor=8)
        apps = {"fast": job_app(j_fast), "slow": job_app(j_slow)}
        state.place("fast", "node0", 750)
        state.place("slow", "node0", 750)
        result = distribute_load(state, apps)
        assert result.allocations["slow"] <= 100.0 + 1e-6
        assert result.allocations["fast"] == pytest.approx(
            1000.0 - result.allocations["slow"], rel=1e-3
        )

    def test_min_speed_respected(self, single_node_cluster):
        state = PlacementState(single_node_cluster)
        job = make_job("J1", work=4000, max_speed=800, min_speed=300, goal_factor=8)
        app = AllocatableApp(
            demand=AppDemand(
                app_id="J1",
                memory_mb=750,
                min_cpu_mhz=300,
                max_cpu_per_instance_mhz=800,
                divisible=False,
            ),
            rpf=JobAllocationRPF(job, 0.0),
        )
        state.place("J1", "node0", 750)
        result = distribute_load(state, {"J1": app})
        assert result.allocations["J1"] >= 300.0 - 1e-6


class TestMultiNode:
    def test_divisible_app_spans_nodes(self, small_cluster):
        state = PlacementState(small_cluster)
        # Saturation at 200,000 MHz exceeds the 62,400 MHz cluster: the
        # divisible app should absorb the entire cluster across nodes.
        web = linear_app("web", slope=1e-5, divisible=True)
        for node in small_cluster.node_names:
            state.place("web", node, 100)
        result = distribute_load(state, {"web": web})
        assert result.allocations["web"] == pytest.approx(
            small_cluster.total_cpu_capacity, rel=1e-3
        )
        assert sum(
            state.cpu_on("web", n) for n in small_cluster.node_names
        ) == pytest.approx(result.allocations["web"], rel=1e-6)

    def test_divisible_app_saturation_within_capacity(self, small_cluster):
        state = PlacementState(small_cluster)
        # Saturation at 20,000 MHz, well within the cluster: the app
        # should stop there, not hoard the rest.
        web = linear_app("web", slope=1e-4, divisible=True)
        for node in small_cluster.node_names:
            state.place("web", node, 100)
        result = distribute_load(state, {"web": web})
        assert result.allocations["web"] == pytest.approx(20_000.0, rel=1e-3)

    def test_node_capacity_never_exceeded(self, small_cluster):
        state = PlacementState(small_cluster)
        apps = {}
        for i in range(6):
            job = make_job(f"j{i}", work=1_000_000, max_speed=8000, goal_factor=1.5)
            apps[f"j{i}"] = job_app(job, memory=100)
            state.place(f"j{i}", small_cluster.node_names[i % 2], 100)
        distribute_load(state, apps)
        state.validate()  # raises on overcommit

    def test_worst_app_maximized_against_brute_force(self):
        """On a tiny instance the progressive filler matches the best
        min-utility found by a grid search."""
        cluster = Cluster.homogeneous(1, cpu_capacity=1000, memory_capacity=4000)
        state = PlacementState(cluster)
        a = linear_app("a", slope=0.002)   # u=1 at 1000
        b = linear_app("b", slope=0.001)   # u=1 at 2000
        state.place("a", "node0", 100)
        state.place("b", "node0", 100)
        result = distribute_load(state, {"a": a, "b": b})
        best_min = -10.0
        for x in range(0, 1001, 5):
            u = min(a.rpf.utility(x), b.rpf.utility(1000 - x))
            best_min = max(best_min, u)
        got_min = min(
            a.rpf.utility(result.allocations["a"]),
            b.rpf.utility(result.allocations["b"]),
        )
        assert got_min == pytest.approx(best_min, abs=0.01)

    def test_infeasible_minimums_flagged(self):
        cluster = Cluster.homogeneous(1, cpu_capacity=500, memory_capacity=4000)
        state = PlacementState(cluster)
        apps = {}
        for name in ("a", "b"):
            job = make_job(name, work=10_000, max_speed=400, min_speed=400, goal_factor=2)
            apps[name] = AllocatableApp(
                demand=AppDemand(
                    app_id=name,
                    memory_mb=100,
                    min_cpu_mhz=400,
                    max_cpu_per_instance_mhz=400,
                    divisible=False,
                ),
                rpf=JobAllocationRPF(job, 0.0),
            )
            state.place(name, "node0", 100)
        result = distribute_load(state, apps)
        assert not result.feasible
        state.validate()

    @given(
        speeds=st.lists(
            st.floats(min_value=100, max_value=4000), min_size=2, max_size=6
        ),
        factors=st.lists(
            st.floats(min_value=1.1, max_value=8.0), min_size=2, max_size=6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_jobs_never_overcommit(self, speeds, factors):
        n = min(len(speeds), len(factors))
        cluster = Cluster.homogeneous(2, cpu_capacity=5000, memory_capacity=10_000)
        state = PlacementState(cluster)
        apps = {}
        for i in range(n):
            job = make_job(
                f"j{i}", work=speeds[i] * 100, max_speed=speeds[i],
                goal_factor=factors[i],
            )
            apps[f"j{i}"] = job_app(job, memory=500)
            state.place(f"j{i}", cluster.node_names[i % 2], 500)
        result = distribute_load(state, apps)
        state.validate()
        # Every job within its speed bounds.
        for i in range(n):
            assert result.allocations[f"j{i}"] <= speeds[i] + 1e-6


class TestIntegerCapacities:
    """``Scenario(cpu_per_processor=3900)`` gives nodes int capacities;
    the distributor must give the float-capacity result."""

    @staticmethod
    def distribute(capacity):
        cluster = Cluster.homogeneous(2, cpu_capacity=capacity, memory_capacity=16384)
        state = PlacementState(cluster)
        apps = {}
        for i in range(10):
            job = make_job(
                f"J{i}", work=40_000 + 5_000 * i, max_speed=3900,
                goal_factor=1.2 + 0.1 * i,
            )
            apps[job.job_id] = job_app(job)
            state.place(job.job_id, cluster.node_names[i % 2], 750)
        return distribute_load(state, apps)

    def test_int_capacity_gives_the_float_result(self):
        got = self.distribute(15600)
        assert got == self.distribute(15600.0)
        assert got.common_level < 1.0  # the node capacities bind
