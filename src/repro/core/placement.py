"""Placement (``P``) and load (``L``) matrices.

§3.2: ``P[m][n]`` is the number of instances of application ``m`` on node
``n``; ``L[m][n]`` is the CPU speed consumed by all instances of ``m`` on
``n``.  :class:`PlacementState` bundles both with the cluster's capacity
bookkeeping and is the object the placement algorithm mutates while
searching for a better configuration.

Per-node caches
---------------
Each node's used memory and CPU are kept in one dict each, which every
mutation updates; the snapshot form carries them verbatim.  The sparse
``P``/``L`` dicts stay authoritative for structure because dict insertion
order is semantically significant (see :meth:`PlacementState.to_dict`).

Copies and the node index
-------------------------
A §3.2 search trial is a copy of its base that differs on one node, so
:meth:`PlacementState.copy` copies the outer maps only.  The inner dicts
(one application's ``P`` and ``L`` rows, one node's applications) are
shared between copies and never changed in place: a write replaces the
inner dict it changes.  The node-major index of ``P`` (node -> {app:
count}) makes :meth:`PlacementState.apps_on` cost O(apps on the node).
It still returns the applications in ``P``'s insertion order, which a
scan of ``P`` yields and which the search's stable sorts and float sums
depend on: each application carries its rank in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, KeysView, List, Optional

from repro.cluster import Cluster
from repro.errors import CapacityError, PlacementError
from repro.units import EPSILON, is_count


@dataclass(frozen=True)
class AppDemand:
    """Resource requirements of one application, as seen by the placer.

    Parameters
    ----------
    app_id:
        Stable identifier.
    memory_mb:
        Load-independent demand (§3.2): memory consumed by each instance
        of the application whenever it is started on a node.
    min_cpu_mhz:
        Minimum speed each instance must receive whenever it runs (a job
        stage's ``ω^min``).  0 for transactional applications.
    max_cpu_per_instance_mhz:
        Maximum useful speed of one instance (a job stage's ``ω^max``; for
        a transactional instance, typically the node's per-processor speed
        times the instance's thread-level parallelism — we use the node
        CPU capacity by default).
    max_instances:
        Cap on simultaneous instances; batch jobs are singletons (1),
        transactional applications may be clustered (``None`` = unbounded).
    divisible:
        Whether the application's load can be split across instances on
        different nodes.  True for transactional applications (the router
        balances requests), False for jobs.
    """

    app_id: str
    memory_mb: float
    min_cpu_mhz: float = 0.0
    max_cpu_per_instance_mhz: float = float("inf")
    max_instances: Optional[int] = 1
    divisible: bool = False

    def __post_init__(self) -> None:
        if self.memory_mb < 0:
            raise PlacementError(f"{self.app_id}: negative memory demand")
        if self.min_cpu_mhz < 0:
            raise PlacementError(f"{self.app_id}: negative min CPU")
        if self.max_cpu_per_instance_mhz < self.min_cpu_mhz - EPSILON:
            raise PlacementError(
                f"{self.app_id}: max CPU {self.max_cpu_per_instance_mhz} "
                f"below min CPU {self.min_cpu_mhz}"
            )


def _check_count(count: object) -> None:
    """Raise :class:`PlacementError` unless ``count`` is an int above 0
    and not a bool, as :meth:`PlacementState.from_dict` requires."""
    # The exact-type test spares the common case is_count's ABC check.
    if not (type(count) is int or is_count(count)) or count <= 0:
        raise PlacementError(
            f"instance count must be an int above 0, got {count!r}"
        )


class PlacementState:
    """Mutable placement + load assignment over a cluster.

    Tracks, per node, which application instances are placed and how much
    CPU each consumes; enforces memory and CPU capacity on every mutation.
    Copy-on-explore: the search algorithm calls :meth:`copy` to branch,
    and copies share every inner dict until one of them writes it (see
    the module docstring).
    """

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        # P: app_id -> node -> instance count
        self._instances: Dict[str, Dict[str, int]] = {}
        # L: app_id -> node -> cpu MHz (aggregate over instances there)
        self._load: Dict[str, Dict[str, float]] = {}
        # P by node: node -> app_id -> instance count (positive counts)
        self._apps_by_node: Dict[str, Dict[str, int]] = {
            n.name: {} for n in cluster
        }
        # each key of P -> its rank in P's insertion order
        self._rank: Dict[str, int] = {}
        self._next_rank = 0
        # memory demand per instance, recorded at placement time
        self._memory_demand: Dict[str, float] = {}
        # per-node caches
        self._node_memory_used: Dict[str, float] = {n.name: 0.0 for n in cluster}
        self._node_cpu_used: Dict[str, float] = {n.name: 0.0 for n in cluster}
        # O(1) per-app instance totals (sum over the app's node dict)
        self._inst_total: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cluster(self) -> Cluster:
        return self._cluster

    @property
    def app_ids(self) -> List[str]:
        """Applications with at least one instance placed."""
        return [a for a, nodes in self._instances.items() if nodes]

    def instances(self, app_id: str) -> Dict[str, int]:
        """``{node: count}`` for ``app_id`` (empty if not placed)."""
        return dict(self._instances.get(app_id, {}))

    def instances_on(self, app_id: str, node: str) -> int:
        """``P[app_id][node]`` without copying the app's node dict."""
        return self._instances.get(app_id, {}).get(node, 0)

    def instance_items(self, app_id: str):
        """Read-only ``(node, count)`` view for ``app_id``, in insertion
        order.  Zero-copy; callers must not mutate the state while
        iterating."""
        return self._instances.get(app_id, {}).items()

    def instance_count(self, app_id: str) -> int:
        return self._inst_total.get(app_id, 0)

    def is_placed(self, app_id: str) -> bool:
        return self._inst_total.get(app_id, 0) > 0

    @property
    def placed_apps(self) -> KeysView[str]:
        """Read-only live view of the applications with at least one
        instance: ``a in state.placed_apps`` is ``state.is_placed(a)``."""
        return self._inst_total.keys()

    def nodes_of(self, app_id: str) -> List[str]:
        return [n for n, c in self._instances.get(app_id, {}).items() if c > 0]

    def apps_on(self, node: str) -> List[str]:
        """Applications with instances on ``node``, in insertion order
        (the order a scan of ``P`` yields)."""
        return sorted(self._apps_by_node.get(node, ()), key=self._rank.__getitem__)

    def hosted_on(self, node: str) -> KeysView[str]:
        """Read-only view of the applications with instances on
        ``node``, in no set order, for membership tests.  It shows the
        node as it is now; ask again after changing the node."""
        return self._apps_by_node.get(node, {}).keys()

    def cpu_of(self, app_id: str) -> float:
        """Total CPU allocated to ``app_id`` across the cluster (``ω_m``)."""
        return sum(self._load.get(app_id, {}).values())

    def cpu_on(self, app_id: str, node: str) -> float:
        """CPU allocated to ``app_id`` on ``node`` (``L[m][n]``)."""
        return self._load.get(app_id, {}).get(node, 0.0)

    def memory_demand_of(self, app_id: str) -> Optional[float]:
        """Per-instance memory recorded when the app was first placed
        (``None`` if it never was)."""
        return self._memory_demand.get(app_id)

    def forget_memory_demand(self, app_id: str) -> None:
        """Clear the recorded per-instance memory so the application can
        be re-placed with a different (new stage's) demand.  Only valid
        while the application has no placed instances."""
        if self.instance_count(app_id) > 0:
            raise PlacementError(
                f"{app_id} still has instances; cannot change its demand"
            )
        self._memory_demand.pop(app_id, None)

    def memory_used(self, node: str) -> float:
        return self._node_memory_used[node]

    def memory_available(self, node: str) -> float:
        return self._cluster.node(node).memory_capacity - self._node_memory_used[node]

    def cpu_used(self, node: str) -> float:
        return self._node_cpu_used[node]

    def cpu_available(self, node: str) -> float:
        return self._cluster.node(node).cpu_capacity - self._node_cpu_used[node]

    def allocations(self) -> Dict[str, float]:
        """``{app_id: total CPU}`` over all placed applications."""
        return {app_id: self.cpu_of(app_id) for app_id in self.app_ids}

    def as_matrix(self) -> Dict[str, Dict[str, int]]:
        """A deep copy of the placement matrix ``P``."""
        return {a: dict(nodes) for a, nodes in self._instances.items() if nodes}

    def load_matrix(self) -> Dict[str, Dict[str, float]]:
        """A deep copy of the load matrix ``L``."""
        return {
            a: {n: c for n, c in nodes.items() if c > EPSILON}
            for a, nodes in self._load.items()
            if any(c > EPSILON for c in nodes.values())
        }

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def place(self, app_id: str, node: str, memory_mb: float, count: int = 1) -> None:
        """Place ``count`` instances of ``app_id`` on ``node``.

        Raises :class:`CapacityError` if the node lacks memory.
        """
        _check_count(count)
        if node not in self._node_memory_used:
            raise PlacementError(f"unknown node: {node!r}")
        existing_demand = self._memory_demand.get(app_id)
        if existing_demand is not None and abs(existing_demand - memory_mb) > EPSILON:
            raise PlacementError(
                f"{app_id}: inconsistent memory demand "
                f"({existing_demand} vs {memory_mb})"
            )
        needed = memory_mb * count
        if needed > self.memory_available(node) + EPSILON:
            raise CapacityError(
                f"node {node}: {needed:.0f}MB needed for {count}x {app_id}, "
                f"only {self.memory_available(node):.0f}MB free"
            )
        self._memory_demand[app_id] = memory_mb
        nodes = self._instances.get(app_id)
        if nodes is None:
            nodes = {}
            self._rank[app_id] = self._next_rank
            self._next_rank += 1
        here = nodes.get(node, 0) + count
        # Copy on write: a copy of this state may share both inner dicts.
        self._instances[app_id] = {**nodes, node: here}
        self._apps_by_node[node] = {**self._apps_by_node[node], app_id: here}
        self._node_memory_used[node] += needed
        self._inst_total[app_id] = self._inst_total.get(app_id, 0) + count

    def remove(self, app_id: str, node: str, count: int = 1) -> None:
        """Remove ``count`` instances of ``app_id`` from ``node``.

        Any CPU allocated to the application on the node is released.
        """
        _check_count(count)
        nodes = self._instances.get(app_id, {})
        have = nodes.get(node, 0)
        if have < count:
            raise PlacementError(
                f"cannot remove {count}x {app_id} from {node}: {have} placed"
            )
        # Copy on write, as in place().
        nodes = dict(nodes)
        on = dict(self._apps_by_node[node])
        left = have - count
        if left:
            nodes[node] = on[app_id] = left
        else:
            del nodes[node], on[app_id]
        self._instances[app_id] = nodes
        self._apps_by_node[node] = on
        new_total = self._inst_total.get(app_id, 0) - count
        if new_total > 0:
            self._inst_total[app_id] = new_total
        else:
            self._inst_total.pop(app_id, None)
        new_used = self._node_memory_used[node] - self._memory_demand[app_id] * count
        if new_used < 0:
            new_used = 0.0
        self._node_memory_used[node] = new_used
        if not left:
            self.set_cpu(app_id, node, 0.0)
        if not nodes:
            del self._instances[app_id], self._rank[app_id]

    def set_cpu(self, app_id: str, node: str, cpu_mhz: float) -> None:
        """Set ``L[app_id][node] = cpu_mhz``.

        Raises :class:`CapacityError` on node CPU overflow and
        :class:`PlacementError` if the application has no instance there
        (unless setting to zero).
        """
        if cpu_mhz < -EPSILON:
            raise PlacementError(f"negative CPU allocation: {cpu_mhz}")
        cpu_mhz = max(0.0, cpu_mhz)
        if cpu_mhz > EPSILON and self._instances.get(app_id, {}).get(node, 0) == 0:
            raise PlacementError(f"{app_id} has no instance on {node}")
        loads = self._load.get(app_id)
        current = 0.0 if loads is None else loads.get(node, 0.0)
        new_used = self._node_cpu_used[node] - current + cpu_mhz
        capacity = self._cluster.node(node).cpu_capacity
        if new_used > capacity + EPSILON:
            raise CapacityError(
                f"node {node}: CPU {new_used:.1f}MHz exceeds capacity {capacity:.1f}MHz"
            )
        self._node_cpu_used[node] = new_used
        # Copy on write, as in place().  An application's row stays in
        # L, possibly empty, once written.
        if cpu_mhz > EPSILON:
            self._load[app_id] = {**loads, node: cpu_mhz} if loads else {node: cpu_mhz}
        elif loads is None:
            self._load[app_id] = {}
        elif node in loads:
            loads = dict(loads)
            del loads[node]
            self._load[app_id] = loads

    def clear_load(self) -> None:
        """Zero the entire load matrix (placement is kept)."""
        self._load = {}
        self._node_cpu_used = {n: 0.0 for n in self._node_cpu_used}

    def copy(self) -> "PlacementState":
        """An independent copy: it shares the (immutable) cluster and the
        inner dicts, which neither state changes in place."""
        clone = PlacementState.__new__(PlacementState)
        clone._cluster = self._cluster
        clone._instances = self._instances.copy()
        clone._load = self._load.copy()
        clone._apps_by_node = self._apps_by_node.copy()
        clone._rank = self._rank.copy()
        clone._next_rank = self._next_rank
        clone._memory_demand = self._memory_demand.copy()
        clone._node_memory_used = self._node_memory_used.copy()
        clone._node_cpu_used = self._node_cpu_used.copy()
        clone._inst_total = self._inst_total.copy()
        return clone

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safe simulations)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Verbatim JSON form of the full state, caches included.

        Two things are preserved deliberately: dict *insertion order*
        (both the application order and each application's node order:
        the load distributor's tie-breaking and action diffing iterate
        these dicts, and JSON objects keep key order through a dump/load
        round trip), and the accumulated
        per-node usage caches (re-summing them fresh could differ in the
        last float ulp from the values the original run accumulated,
        breaking byte-identical resume).  Empty ``load`` rows are kept
        for the same order-sensitivity reason: re-allocating to such an
        app must land at its original dict position.  ``instances``
        holds no empty entry: :meth:`remove` drops an app's row with its
        last instance, and every count written is an int above 0.
        """
        return {
            "instances": {a: dict(n) for a, n in self._instances.items()},
            "load": {a: dict(n) for a, n in self._load.items()},
            "memory_demand": dict(self._memory_demand),
            "node_memory_used": dict(self._node_memory_used),
            "node_cpu_used": dict(self._node_cpu_used),
        }

    @classmethod
    def from_dict(cls, cluster: Cluster, data: Dict[str, object]) -> "PlacementState":
        """Rebuild a state captured by :meth:`to_dict` over ``cluster``.

        Raises :class:`PlacementError` when ``data`` does not fit
        ``cluster`` (see :meth:`_check_shape`).
        """
        state = cls.__new__(cls)
        state._cluster = cluster
        state._instances = {
            a: dict(nodes) for a, nodes in data["instances"].items()
        }
        state._load = {
            a: {n: float(c) for n, c in nodes.items()}
            for a, nodes in data["load"].items()
        }
        state._memory_demand = {
            a: float(m) for a, m in data["memory_demand"].items()
        }
        state._node_memory_used = {
            n: float(v) for n, v in data["node_memory_used"].items()
        }
        state._node_cpu_used = {
            n: float(v) for n, v in data["node_cpu_used"].items()
        }
        state._check_shape()
        state._apps_by_node = {n: {} for n in cluster.node_names}
        for app_id, nodes in state._instances.items():
            for node, count in nodes.items():
                state._apps_by_node[node][app_id] = count
        state._rank = {a: i for i, a in enumerate(state._instances)}
        state._next_rank = len(state._rank)
        state._inst_total = {
            a: total
            for a, nodes in state._instances.items()
            if (total := sum(nodes.values()))
        }
        return state

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_shape(self) -> None:
        """Raise :class:`PlacementError` unless every instance count is
        an int above 0, every node that ``P``, ``L`` and the per-node
        caches name is in the cluster, and both caches cover every
        cluster node."""
        nodes = self._cluster.node_names
        known = set(nodes)
        for app_id, where in self._instances.items():
            for node, count in where.items():
                if not is_count(count) or count == 0:
                    raise PlacementError(
                        f"{app_id} on {node}: instance count must be an "
                        f"int above 0, got {count!r}"
                    )
        for matrix in (self._instances, self._load):
            for app_id, where in matrix.items():
                unknown = sorted(n for n in where if n not in known)
                if unknown:
                    raise PlacementError(
                        f"{app_id} is on unknown nodes: {unknown}"
                    )
        for name, cache in (
            ("memory", self._node_memory_used), ("CPU", self._node_cpu_used)
        ):
            unknown = sorted(n for n in cache if n not in known)
            missing = [n for n in nodes if n not in cache]
            if unknown or missing:
                raise PlacementError(
                    f"{name} cache does not match the cluster: unknown "
                    f"nodes {unknown}, missing nodes {missing}"
                )

    def validate(self) -> None:
        """Re-derive caches and assert internal consistency (for tests)."""
        self._check_shape()
        for node in self._cluster:
            mem = sum(
                self._memory_demand.get(a, 0.0) * nodes.get(node.name, 0)
                for a, nodes in self._instances.items()
            )
            if abs(mem - self._node_memory_used[node.name]) > 1e-3:
                raise PlacementError(
                    f"memory cache drift on {node.name}: "
                    f"{mem} vs {self._node_memory_used[node.name]}"
                )
            if mem > node.memory_capacity + EPSILON:
                raise CapacityError(f"node {node.name} memory overcommitted")
            cpu = sum(
                loads.get(node.name, 0.0) for loads in self._load.values()
            )
            if abs(cpu - self._node_cpu_used[node.name]) > 1e-3:
                raise PlacementError(
                    f"CPU cache drift on {node.name}: "
                    f"{cpu} vs {self._node_cpu_used[node.name]}"
                )
            if cpu > node.cpu_capacity + EPSILON:
                raise CapacityError(f"node {node.name} CPU overcommitted")
        for app_id, nodes in self._instances.items():
            if self._inst_total.get(app_id, 0) != sum(nodes.values()):
                raise PlacementError(
                    f"instance-total drift for {app_id}: "
                    f"{self._inst_total.get(app_id, 0)} vs {sum(nodes.values())}"
                )
        for app_id, total in self._inst_total.items():
            if total <= 0 or app_id not in self._instances:
                raise PlacementError(
                    f"stale instance-total entry for {app_id}: {total}"
                )
        by_node: Dict[str, Dict[str, int]] = {}
        for app_id, nodes in self._instances.items():
            for node, count in nodes.items():
                if count > 0:
                    by_node.setdefault(node, {})[app_id] = count
        index = {n: apps for n, apps in self._apps_by_node.items() if apps}
        if index != by_node:
            raise PlacementError(f"node index drift: {index} vs {by_node}")
        ranks = [self._rank.get(a) for a in self._instances]
        if (
            self._rank.keys() != self._instances.keys()
            or any(b <= a for a, b in zip(ranks, ranks[1:]))
            or (ranks and ranks[-1] >= self._next_rank)
        ):
            raise PlacementError(
                f"insertion ranks {self._rank} (next {self._next_rank}) "
                f"disagree with the order {list(self._instances)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placed = sum(self.instance_count(a) for a in self.app_ids)
        return f"PlacementState({len(self.app_ids)} apps, {placed} instances)"
