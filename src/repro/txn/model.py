"""Transactional workload model: plugs web applications into the
placement controller.

Implements the :class:`~repro.core.workload.WorkloadModel` protocol.
Transactional applications are divisible (the request router splits their
load across instances), have no minimum speed, and are always placement
candidates (their clusters can grow/shrink every cycle).  Evaluation is
per-application: unlike batch jobs, a web application's predicted
relative performance depends only on its own aggregate allocation (§3.3).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

import numpy as np

from repro.core.loadbalance import AllocatableApp
from repro.core.placement import AppDemand
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY, PiecewiseLinearRPF
from repro.errors import ConfigurationError
from repro.txn.application import TransactionalApp

#: Allocation-space samples for the piecewise-linear RPF snapshot handed
#: to the load distributor when the app's queuing model has no cheap
#: closed-form inverse (Erlang-C).
_RPF_SNAPSHOT_SAMPLES = 48


class TransactionalWorkloadModel:
    """The transactional workload as seen by the placement controller."""

    def __init__(self, apps: Iterable[TransactionalApp] = ()) -> None:
        self._apps: Dict[str, TransactionalApp] = {}
        for app in apps:
            self.add_app(app)

    def add_app(self, app: TransactionalApp) -> None:
        if app.app_id in self._apps:
            raise ConfigurationError(f"duplicate transactional app: {app.app_id!r}")
        self._apps[app.app_id] = app

    def remove_app(self, app_id: str) -> None:
        if app_id not in self._apps:
            raise ConfigurationError(f"unknown transactional app: {app_id!r}")
        del self._apps[app_id]

    def app(self, app_id: str) -> TransactionalApp:
        try:
            return self._apps[app_id]
        except KeyError:
            raise ConfigurationError(f"unknown transactional app: {app_id!r}") from None

    @property
    def apps(self) -> List[TransactionalApp]:
        return list(self._apps.values())

    def __contains__(self, app_id: str) -> bool:
        return app_id in self._apps

    def __len__(self) -> int:
        return len(self._apps)

    # ------------------------------------------------------------------
    # WorkloadModel protocol
    # ------------------------------------------------------------------
    def begin_cycle(self, now: float) -> None:
        """Nothing to freeze: every answer is a function of ``now``."""

    def end_cycle(self) -> None:
        pass

    def app_specs(self, now: float) -> Dict[str, AllocatableApp]:
        specs: Dict[str, AllocatableApp] = {}
        for app in self._apps.values():
            demand = AppDemand(
                app_id=app.app_id,
                memory_mb=app.memory_mb,
                min_cpu_mhz=0.0,
                max_cpu_per_instance_mhz=float("inf"),
                max_instances=app.max_instances,
                divisible=True,
            )
            specs[app.app_id] = AllocatableApp(
                demand=demand, rpf=self._allocation_rpf(app, now)
            )
        return specs

    @staticmethod
    def _allocation_rpf(app: TransactionalApp, now: float):
        """The RPF handed to the load distributor.

        The processor-sharing model has closed-form inverse queries, so
        it is used directly.  The Erlang-C inverse is a bisection over an
        O(servers) recurrence — far too slow for the distributor's inner
        loop — so it is snapshotted once per cycle as a piecewise-linear
        RPF sampled in allocation space (the controller's own evaluation
        of the chosen placement still uses the exact model).
        """
        rpf = app.rpf_at(now)
        if app.model_type != "erlang":
            return rpf
        model = rpf.model
        lo = max(model.offered_load * 1.001, 1.0)
        hi = max(rpf.saturation_cpu * 1.25, lo * 2.0)
        cpus = np.geomspace(lo, hi, _RPF_SNAPSHOT_SAMPLES)
        points = [(0.0, NEGATIVE_INFINITY_UTILITY)]
        last_u = NEGATIVE_INFINITY_UTILITY
        for cpu in cpus:
            u = max(rpf.utility(float(cpu)), last_u)  # enforce monotone
            points.append((float(cpu), u))
            last_u = u
        return PiecewiseLinearRPF(points)

    def placement_candidates(self, now: float) -> List[str]:
        del now
        return list(self._apps)

    def evaluate(
        self, allocations: Mapping[str, float], now: float, horizon: float
    ) -> Dict[str, float]:
        del horizon  # web predictions are steady-state within a cycle
        return {
            app_id: app.rpf_at(now).utility(allocations.get(app_id, 0.0))
            for app_id, app in self._apps.items()
        }
