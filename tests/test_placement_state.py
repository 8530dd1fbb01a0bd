"""Tests for the placement/load matrices."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import Cluster
from repro.core.placement import AppDemand, PlacementState
from repro.errors import CapacityError, PlacementError
from repro.units import EPSILON


@pytest.fixture
def state(small_cluster) -> PlacementState:
    return PlacementState(small_cluster)


FIRST = "node0"
SECOND = "node1"


class TestAppDemand:
    def test_defaults(self):
        d = AppDemand(app_id="a", memory_mb=100)
        assert d.min_cpu_mhz == 0.0
        assert d.max_instances == 1
        assert not d.divisible

    def test_rejects_negative_memory(self):
        with pytest.raises(PlacementError):
            AppDemand(app_id="a", memory_mb=-1)

    def test_rejects_max_below_min(self):
        with pytest.raises(PlacementError):
            AppDemand(app_id="a", memory_mb=0, min_cpu_mhz=10, max_cpu_per_instance_mhz=5)


class TestPlaceRemove:
    def test_place_updates_memory(self, state):
        state.place("a", FIRST, memory_mb=1000)
        assert state.memory_used(FIRST) == 1000
        assert state.instance_count("a") == 1
        assert state.is_placed("a")
        assert state.nodes_of("a") == [FIRST]

    def test_place_multiple_instances(self, state):
        state.place("a", FIRST, memory_mb=1000, count=3)
        assert state.instance_count("a") == 3
        assert state.memory_used(FIRST) == 3000

    def test_memory_capacity_enforced(self, state):
        with pytest.raises(CapacityError):
            state.place("a", FIRST, memory_mb=20_000)

    def test_inconsistent_memory_demand_rejected(self, state):
        state.place("a", FIRST, memory_mb=1000)
        with pytest.raises(PlacementError):
            state.place("a", SECOND, memory_mb=2000)

    def test_unknown_node_rejected(self, state):
        with pytest.raises(PlacementError):
            state.place("a", "nowhere", memory_mb=100)

    def test_remove_releases_memory_and_cpu(self, state):
        state.place("a", FIRST, memory_mb=1000)
        state.set_cpu("a", FIRST, 500)
        state.remove("a", FIRST)
        assert state.memory_used(FIRST) == 0
        assert state.cpu_used(FIRST) == 0
        assert not state.is_placed("a")

    def test_remove_more_than_placed_rejected(self, state):
        state.place("a", FIRST, memory_mb=100)
        with pytest.raises(PlacementError):
            state.remove("a", FIRST, count=2)

    def test_remove_unplaced_rejected(self, state):
        with pytest.raises(PlacementError):
            state.remove("a", FIRST)


class TestLoadMatrix:
    def test_set_cpu(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 2000)
        assert state.cpu_of("a") == 2000
        assert state.cpu_on("a", FIRST) == 2000
        assert state.cpu_available(FIRST) == 4 * 3900 - 2000

    def test_cpu_capacity_enforced(self, state):
        state.place("a", FIRST, memory_mb=100)
        with pytest.raises(CapacityError):
            state.set_cpu("a", FIRST, 4 * 3900 + 1)

    def test_cpu_requires_instance(self, state):
        with pytest.raises(PlacementError):
            state.set_cpu("a", FIRST, 100)

    def test_zero_cpu_allowed_without_instance(self, state):
        state.set_cpu("a", FIRST, 0.0)
        assert state.cpu_of("a") == 0.0

    def test_replacing_allocation(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 2000)
        state.set_cpu("a", FIRST, 500)
        assert state.cpu_used(FIRST) == 500

    def test_clear_load_keeps_placement(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 2000)
        state.clear_load()
        assert state.cpu_used(FIRST) == 0
        assert state.is_placed("a")

    def test_allocations_and_matrices(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.place("a", SECOND, memory_mb=100)
        state.set_cpu("a", FIRST, 100)
        state.set_cpu("a", SECOND, 200)
        assert state.allocations() == {"a": 300}
        assert state.as_matrix() == {"a": {FIRST: 1, SECOND: 1}}
        assert state.load_matrix() == {"a": {FIRST: 100, SECOND: 200}}


class TestCopy:
    def test_copy_is_independent(self, state):
        state.place("a", FIRST, memory_mb=100)
        clone = state.copy()
        clone.place("b", FIRST, memory_mb=200)
        clone.set_cpu("a", FIRST, 50)
        assert not state.is_placed("b")
        assert state.cpu_of("a") == 0
        assert clone.instance_count("a") == 1

    def test_copy_preserves_state(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 70)
        clone = state.copy()
        assert clone.as_matrix() == state.as_matrix()
        assert clone.load_matrix() == state.load_matrix()
        clone.validate()


class TestValidate:
    def test_validate_passes_on_consistent_state(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 50)
        state.validate()

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from([FIRST, SECOND]),
                st.floats(min_value=0, max_value=3000),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=100)
    def test_random_place_allocate_sequences_stay_consistent(self, ops):
        cluster = Cluster.homogeneous(2, cpu_capacity=10_000, memory_capacity=8_000)
        state = PlacementState(cluster)
        for app, node, cpu in ops:
            try:
                state.place(app, node, memory_mb=1000)
                state.set_cpu(app, node, cpu)
            except (CapacityError, PlacementError):
                pass
        state.validate()


class TestShape:
    """Counts, nodes and caches that do not fit the cluster are refused
    as PlacementError, where a state is loaded and where it is checked."""

    @staticmethod
    def data(state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 50)
        return json.loads(json.dumps(state.to_dict()))

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda d: d["instances"]["a"].update({FIRST: 0}), id="zero"),
            pytest.param(lambda d: d["instances"]["a"].update({FIRST: -1}), id="negative"),
            pytest.param(lambda d: d["instances"]["a"].update({FIRST: 1.0}), id="float"),
            pytest.param(lambda d: d["instances"]["a"].update({FIRST: True}), id="bool"),
            pytest.param(
                lambda d: d["instances"].update(a={"ghost": 1}), id="instance-on-ghost"
            ),
            pytest.param(lambda d: d["load"]["a"].update(ghost=1.0), id="load-on-ghost"),
            pytest.param(lambda d: d["node_memory_used"].pop(SECOND), id="memory-missing"),
            pytest.param(lambda d: d["node_cpu_used"].pop(SECOND), id="cpu-missing"),
            pytest.param(lambda d: d["node_cpu_used"].update(ghost=0.0), id="cpu-on-ghost"),
        ],
    )
    def test_from_dict_refuses(self, state, corrupt):
        data = self.data(state)
        corrupt(data)
        with pytest.raises(PlacementError):
            PlacementState.from_dict(state.cluster, data)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(
                lambda s: s._instances.update(a={FIRST: 1, SECOND: 0}), id="zero"
            ),
            pytest.param(lambda s: s._instances.update(a={FIRST: True}), id="bool"),
            pytest.param(
                lambda s: s._load.update(a={**s._load["a"], "ghost": 0.0}),
                id="load-on-ghost",
            ),
            pytest.param(lambda s: s._node_memory_used.pop(SECOND), id="memory-missing"),
            pytest.param(lambda s: s._node_cpu_used.pop(SECOND), id="cpu-missing"),
            pytest.param(
                lambda s: s._node_memory_used.update(ghost=0.0), id="memory-on-ghost"
            ),
        ],
    )
    def test_validate_refuses(self, state, corrupt):
        self.data(state)
        corrupt(state)
        with pytest.raises(PlacementError):
            state.validate()

    BAD_COUNTS = [
        pytest.param(1.5, id="float"),
        pytest.param(0.5, id="fraction"),
        pytest.param(True, id="bool"),
        pytest.param(0, id="zero"),
        pytest.param(-1, id="negative"),
    ]

    @pytest.mark.parametrize("count", BAD_COUNTS)
    def test_place_refuses_a_count_from_dict_refuses(self, state, count):
        state.place("a", FIRST, memory_mb=100, count=2)
        before = json.dumps(state.to_dict())
        with pytest.raises(PlacementError, match="int above 0"):
            state.place("a", FIRST, memory_mb=100, count=count)
        with pytest.raises(PlacementError, match="int above 0"):
            state.place("b", SECOND, memory_mb=100, count=count)
        assert json.dumps(state.to_dict()) == before
        state.validate()

    @pytest.mark.parametrize("count", BAD_COUNTS)
    def test_remove_refuses_a_count_from_dict_refuses(self, state, count):
        state.place("a", FIRST, memory_mb=100, count=2)
        before = json.dumps(state.to_dict())
        with pytest.raises(PlacementError, match="int above 0"):
            state.remove("a", FIRST, count=count)
        assert json.dumps(state.to_dict()) == before
        state.validate()


# ----------------------------------------------------------------------
# Copies that share history, against a model kept with deep copies
# ----------------------------------------------------------------------
class NaiveState:
    """``P``, ``L`` and the per-node caches as plain nested dicts, every
    copy a deep one, with the mutation rules ``PlacementState`` keeps:
    the same checks, the same float operations in the same order, and
    the same dict insertion order (an application's ``L`` row stays once
    written, possibly empty)."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.instances = {}
        self.load = {}
        self.memory_demand = {}
        self.memory_used = {n.name: 0.0 for n in cluster}
        self.cpu_used = {n.name: 0.0 for n in cluster}

    def copy(self):
        clone = NaiveState.__new__(NaiveState)
        clone.cluster = self.cluster
        for name in ("instances", "load", "memory_demand", "memory_used",
                     "cpu_used"):
            setattr(clone, name, copy.deepcopy(getattr(self, name)))
        return clone

    def place(self, app_id, node, memory_mb, count=1):
        if count <= 0 or node not in self.memory_used:
            raise PlacementError("bad placement")
        known = self.memory_demand.get(app_id)
        if known is not None and abs(known - memory_mb) > EPSILON:
            raise PlacementError("inconsistent memory demand")
        free = self.cluster.node(node).memory_capacity - self.memory_used[node]
        if memory_mb * count > free + EPSILON:
            raise CapacityError("no memory")
        self.memory_demand[app_id] = memory_mb
        nodes = self.instances.setdefault(app_id, {})
        nodes[node] = nodes.get(node, 0) + count
        self.memory_used[node] = self.memory_used[node] + memory_mb * count

    def remove(self, app_id, node, count=1):
        have = self.instances.get(app_id, {}).get(node, 0)
        if count <= 0 or have < count:
            raise PlacementError("not placed")
        nodes = self.instances[app_id]
        nodes[node] = have - count
        if nodes[node] == 0:
            del nodes[node]
        used = self.memory_used[node] - self.memory_demand[app_id] * count
        self.memory_used[node] = 0.0 if used < 0 else used
        if node not in nodes:
            self.set_cpu(app_id, node, 0.0)
        if not nodes:
            del self.instances[app_id]

    def set_cpu(self, app_id, node, cpu_mhz):
        if cpu_mhz < -EPSILON:
            raise PlacementError("negative CPU")
        cpu_mhz = max(0.0, cpu_mhz)
        if cpu_mhz > EPSILON and not self.instances.get(app_id, {}).get(node):
            raise PlacementError("no instance")
        current = self.load.get(app_id, {}).get(node, 0.0)
        used = self.cpu_used[node] - current + cpu_mhz
        if used > self.cluster.node(node).cpu_capacity + EPSILON:
            raise CapacityError("no CPU")
        self.cpu_used[node] = used
        self.load.setdefault(app_id, {})[node] = cpu_mhz
        if cpu_mhz <= EPSILON:
            del self.load[app_id][node]

    def clear_load(self):
        self.load = {}
        self.cpu_used = {n: 0.0 for n in self.cpu_used}

    def to_dict(self):
        return {
            "instances": self.instances,
            "load": self.load,
            "memory_demand": self.memory_demand,
            "node_memory_used": self.memory_used,
            "node_cpu_used": self.cpu_used,
        }

    def apps_on(self, node):
        return [a for a, nodes in self.instances.items() if nodes.get(node)]


HISTORY_CLUSTER = Cluster.homogeneous(3, cpu_capacity=3000, memory_capacity=4000)
HISTORY_NODES = HISTORY_CLUSTER.node_names
HISTORY_APPS = ("a", "b", "c", "d")


def ordered(value) -> str:
    """JSON text that keeps dict order, so equal texts mean equal order."""
    return json.dumps(value)


class SharedHistory(RuleBasedStateMachine):
    """Several states that descend from one another by :meth:`copy`
    (which shares inner dicts) and by a ``to_dict``/``from_dict`` round
    trip, each changed on its own and checked after every step against
    a naive model of it kept with deep copies."""

    def __init__(self):
        super().__init__()
        self.pairs = [
            (PlacementState(HISTORY_CLUSTER), NaiveState(HISTORY_CLUSTER))
        ]

    def apply(self, which, method, *args):
        real, naive = self.pairs[which % len(self.pairs)]
        try:
            getattr(naive, method)(*args)
        except (CapacityError, PlacementError) as exc:
            with pytest.raises(type(exc)):
                getattr(real, method)(*args)
        else:
            getattr(real, method)(*args)

    @rule(
        which=st.integers(0, 7),
        app=st.sampled_from(HISTORY_APPS),
        node=st.sampled_from(HISTORY_NODES),
        memory=st.sampled_from([1000.0, 1500.0]),
        count=st.integers(1, 2),
    )
    def place(self, which, app, node, memory, count):
        self.apply(which, "place", app, node, memory, count)

    @rule(
        which=st.integers(0, 7),
        app=st.sampled_from(HISTORY_APPS),
        node=st.sampled_from(HISTORY_NODES),
        count=st.integers(1, 2),
    )
    def remove(self, which, app, node, count):
        self.apply(which, "remove", app, node, count)

    @rule(
        which=st.integers(0, 7),
        app=st.sampled_from(HISTORY_APPS),
        node=st.sampled_from(HISTORY_NODES),
        cpu=st.sampled_from([0.0, 0.5 * EPSILON, 333.3, 1000.0, 2900.0]),
    )
    def set_cpu(self, which, app, node, cpu):
        self.apply(which, "set_cpu", app, node, cpu)

    @rule(
        which=st.integers(0, 7),
        pick=st.integers(0, 23),
        cpu=st.sampled_from([0.0, 0.5 * EPSILON, 333.3, 1000.0]),
        remove=st.booleans(),
    )
    def touch_an_instance(self, which, pick, cpu, remove):
        """Load or remove an instance the state holds: the writes most
        likely to reach an inner dict another state shares."""
        naive = self.pairs[which % len(self.pairs)][1]
        held = [(a, n) for a, nodes in naive.instances.items() for n in nodes]
        if not held:
            return
        app, node = held[pick % len(held)]
        if remove:
            self.apply(which, "remove", app, node, 1)
        else:
            self.apply(which, "set_cpu", app, node, cpu)

    @rule(which=st.integers(0, 7))
    def clear_load(self, which):
        self.apply(which, "clear_load")

    @rule(which=st.integers(0, 7), round_trip=st.booleans())
    def branch(self, which, round_trip):
        if len(self.pairs) >= 6:
            return
        real, naive = self.pairs[which % len(self.pairs)]
        if round_trip:
            data = json.loads(json.dumps(real.to_dict()))
            clone = PlacementState.from_dict(HISTORY_CLUSTER, data)
        else:
            clone = real.copy()
        self.pairs.append((clone, naive.copy()))

    @invariant()
    def every_state_matches_its_model(self):
        for real, naive in self.pairs:
            real.validate()
            assert ordered(real.to_dict()) == ordered(naive.to_dict())
            matrix = {a: n for a, n in naive.instances.items() if n}
            assert ordered(real.as_matrix()) == ordered(matrix)
            load = {a: n for a, n in naive.load.items() if n}
            assert ordered(real.load_matrix()) == ordered(load)
            for node in HISTORY_NODES:
                assert real.apps_on(node) == naive.apps_on(node)
                assert set(real.hosted_on(node)) == set(naive.apps_on(node))
                assert real.memory_used(node) == naive.memory_used[node]
                assert real.cpu_used(node) == naive.cpu_used[node]
            for app in HISTORY_APPS:
                nodes = naive.instances.get(app, {})
                assert list(real.instances(app).items()) == list(nodes.items())
                assert real.instance_count(app) == sum(nodes.values())
                assert (app in real.placed_apps) == real.is_placed(app) == bool(nodes)


TestSharedHistory = SharedHistory.TestCase
TestSharedHistory.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


def test_apps_on_keeps_insertion_order_not_the_node_index_order():
    """``b`` reaches node 1 first, but ``a`` entered ``P`` first."""
    state = PlacementState(HISTORY_CLUSTER)
    first, second = HISTORY_NODES[:2]
    state.place("a", first, 1000.0)
    state.place("b", second, 1000.0)
    state.place("a", second, 1000.0)
    assert state.apps_on(second) == ["a", "b"]
    state.validate()


WRITES = {
    "place on a held node": lambda s, n: s.place("a", n[0], 1000.0),
    "place a new app": lambda s, n: s.place("c", n[1], 1000.0),
    "remove one of two": lambda s, n: s.remove("b", n[0]),
    "remove the last": lambda s, n: s.remove("a", n[1]),
    "change a load": lambda s, n: s.set_cpu("a", n[0], 700.0),
    "drop a load": lambda s, n: s.set_cpu("b", n[0], 0.0),
    "clear the load": lambda s, n: s.clear_load(),
}


@pytest.mark.parametrize("side", ["copy", "origin"])
@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_write_on_either_side_of_a_copy_leaves_the_other(side, write):
    nodes = HISTORY_NODES
    origin = PlacementState(HISTORY_CLUSTER)
    origin.place("a", nodes[0], 1000.0)
    origin.place("a", nodes[1], 1000.0)
    origin.place("b", nodes[0], 1000.0, count=2)
    origin.set_cpu("a", nodes[0], 500.0)
    origin.set_cpu("a", nodes[1], 200.0)
    origin.set_cpu("b", nodes[0], 100.0)
    clone = origin.copy()
    changed, kept = (clone, origin) if side == "copy" else (origin, clone)
    before = ordered(kept.to_dict())
    WRITES[write](changed, nodes)
    assert ordered(kept.to_dict()) == before
    assert kept.apps_on(nodes[0]) == ["a", "b"]
    kept.validate()
    changed.validate()
