"""Live SLO watchdog: streaming alert rules over the running simulation.

The paper's premise (§2) is that batch work may only soak up slack the
transactional SLAs leave behind — which makes "is an SLA burning down
*right now*" the operational question, not a post-hoc one.  Production
co-located clusters are run on exactly the signals this module computes
continuously:

* **txn_sla_burn_rate** — multi-window burn rate on per-app SLA
  attainment: the fraction of recent control cycles an app's relative
  performance sat below its goal, compared against the error budget the
  SLO target leaves (``1 - slo_target``), over a short and a long
  window simultaneously (the classic fast-burn/slow-burn pairing: the
  short window catches the spike, the long window filters blips).
* **batch_deadline_miss** — deadline-miss rate over the last N job
  completions.
* **reconciler_stall** — fraction of recent placement-action attempts
  that stalled (fallible-actuator extension).
* **placement_thrash** — per-app migration/suspend/resume churn per
  window: the ping-pong pathology dynamic placement can fall into.
* **batch_starvation** — queued jobs whose deadline slack has gone
  negative (at the speed cap they can no longer finish in time) for
  several consecutive cycles.
* **node_overload** — a node saturated above a utilization threshold
  while hosting a transactional app that is below its goal.

Alerts have a fire/resolve lifecycle.  Each transition is a first-class
schema-v4 record (``alert_fired`` / ``alert_resolved``) streamed through
an optional :class:`~repro.obs.sink.JsonlSink` the moment it happens, so
a ``tail -f`` of the telemetry file *is* the live alert feed.  The
engine itself is pure bookkeeping over per-cycle
:class:`CycleObservation` values the simulator hands it — it consults no
clock and no RNG, and (like every observability layer here) it is
strictly opt-in: ``SimulationConfig(alerts=None)``, the default, never
constructs one and simulation output stays byte-identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from collections import deque

from repro._compat import from_mapping, keyword_only
from repro.errors import ConfigurationError
from repro.units import is_finite_real

#: The closed vocabulary of rule names (the ``rule`` field of alert
#: records).  New rules are an optional-field addition, not a schema
#: bump, as long as the record shape is unchanged.
RULE_TXN_BURN_RATE = "txn_sla_burn_rate"
RULE_DEADLINE_MISS = "batch_deadline_miss"
RULE_RECONCILER_STALL = "reconciler_stall"
RULE_PLACEMENT_THRASH = "placement_thrash"
RULE_BATCH_STARVATION = "batch_starvation"
RULE_NODE_OVERLOAD = "node_overload"

ALERT_RULES = (
    RULE_TXN_BURN_RATE,
    RULE_DEADLINE_MISS,
    RULE_RECONCILER_STALL,
    RULE_PLACEMENT_THRASH,
    RULE_BATCH_STARVATION,
    RULE_NODE_OVERLOAD,
)

#: Minimum attempts in the stall window before the rate is meaningful.
_STALL_MIN_ATTEMPTS = 4


@keyword_only
@dataclass
class AlertConfig:
    """Declarative thresholds for every watchdog rule.

    Construct with keyword arguments.  All windows are measured in
    control cycles except ``deadline_window`` (job completions).  The
    defaults are deliberately conservative — tuned so a healthy
    paper-scale run fires nothing.
    """

    #: SLO target: fraction of control cycles a transactional app must
    #: spend at or above its goal.  The error budget is ``1 - slo_target``.
    slo_target: float = 0.95
    #: Fast/slow burn windows (cycles) and the shared burn-rate multiple.
    burn_short_window: int = 6
    burn_long_window: int = 36
    burn_threshold: float = 2.0
    #: Deadline-miss rate over the last N completions.
    deadline_window: int = 20
    deadline_miss_threshold: float = 0.25
    #: Stalled-action rate over the last N cycles.
    stall_window: int = 12
    stall_rate_threshold: float = 0.5
    #: Placement actions per app per window before it counts as thrash.
    thrash_window: int = 12
    thrash_moves_threshold: int = 6
    #: Fraction of waiting jobs with negative deadline slack, sustained
    #: for N consecutive cycles.
    starvation_fraction: float = 0.5
    starvation_cycles: int = 3
    #: Node CPU utilization while hosting a below-goal txn app,
    #: sustained for N consecutive cycles.
    overload_utilization: float = 0.9
    overload_cycles: int = 3

    def __post_init__(self) -> None:
        if not (is_finite_real(self.slo_target) and 0.0 < self.slo_target <= 1.0):
            raise ConfigurationError(
                f"slo_target must be in (0, 1], got {self.slo_target!r}"
            )
        for name in (
            "burn_short_window", "burn_long_window", "deadline_window",
            "stall_window", "thrash_window", "starvation_cycles",
            "overload_cycles", "thrash_moves_threshold",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigurationError(f"{name} must be a positive int, got {value!r}")
        if self.burn_short_window > self.burn_long_window:
            raise ConfigurationError(
                f"burn_short_window ({self.burn_short_window}) must not exceed "
                f"burn_long_window ({self.burn_long_window})"
            )
        for name in ("burn_threshold", "stall_rate_threshold"):
            value = getattr(self, name)
            if not (is_finite_real(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        for name in (
            "deadline_miss_threshold", "starvation_fraction", "overload_utilization",
        ):
            value = getattr(self, name)
            if not (is_finite_real(value) and 0.0 < value <= 1.0):
                raise ConfigurationError(f"{name} must be in (0, 1], got {value!r}")

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable representation (round-trips through
        :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AlertConfig":
        return from_mapping(cls, data)


@keyword_only
@dataclass
class CycleObservation:
    """Everything the watchdog sees about one control cycle.

    The simulator builds one of these per cycle (step 5 of the control
    loop); tests build them synthetically to unit-test rules.
    """

    time: float
    cycle: int
    #: Per transactional app: relative performance (>= 0 means the SLA
    #: goal is met this cycle — the paper's utility sign convention).
    txn_utilities: Mapping[str, float] = field(default_factory=dict)
    #: Deadline outcomes of the jobs that completed since the last cycle.
    completions_met: Sequence[bool] = ()
    #: Age (s) of each waiting — queued or suspended — job.
    queued_ages: Sequence[float] = ()
    #: Deadline slack (s) of each waiting job at its speed cap:
    #: ``goal - now - remaining_work / max_speed``.  Negative means the
    #: job can no longer finish in time even if placed immediately.
    queued_slacks: Sequence[float] = ()
    #: Per-app placement actions (suspend + resume + migrate) this cycle.
    app_moves: Mapping[str, int] = field(default_factory=dict)
    #: Per-node CPU utilization in [0, 1].
    node_utilization: Mapping[str, float] = field(default_factory=dict)
    #: Per-node list of hosted transactional apps currently below goal.
    node_below_goal_txn: Mapping[str, Sequence[str]] = field(default_factory=dict)
    #: Fallible-actuator deltas this cycle (0 without a fault model).
    action_attempts: int = 0
    action_stalls: int = 0


@dataclass
class Alert:
    """One fire→resolve lifecycle of one (rule, subject) pair."""

    rule: str
    subject: str
    severity: str
    fired_at: float
    fired_cycle: int
    detail: Dict[str, object] = field(default_factory=dict)
    resolved_at: Optional[float] = None
    resolved_cycle: Optional[int] = None

    @property
    def is_active(self) -> bool:
        return self.resolved_at is None

    def render(self) -> str:
        state = (
            "ACTIVE" if self.is_active else f"resolved@{self.resolved_at:.0f}s"
        )
        detail = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return (
            f"[{self.fired_at:>10.1f}s] {self.severity:<8} {self.rule:<20} "
            f"{self.subject:<16} {state} {detail}".rstrip()
        )


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; NaN on an empty sequence."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class AlertEngine:
    """Evaluates every rule against a stream of per-cycle observations.

    Parameters
    ----------
    config:
        Rule thresholds (:class:`AlertConfig`).
    sink:
        Optional :class:`~repro.obs.sink.JsonlSink`; every fire/resolve
        transition is streamed as a schema-v4 record the moment it
        happens.
    registry:
        Optional :class:`~repro.obs.registry.MetricRegistry`; publishes
        ``repro_alerts_total{rule, event}`` and
        ``repro_alerts_active{rule}``.
    capacity:
        In-memory bound on the alert history (:attr:`alerts`); overflow
        is counted in :attr:`dropped_alerts` (transitions still stream).
    """

    def __init__(
        self,
        config: Optional[AlertConfig] = None,
        sink=None,
        registry=None,
        capacity: int = 10_000,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self.config = config or AlertConfig()
        self._sink = sink
        self._capacity = capacity
        self.alerts: List[Alert] = []
        self.dropped_alerts = 0
        self.fired_count = 0
        self.resolved_count = 0
        self._active: Dict[Tuple[str, str], Alert] = {}
        self._just_fired: List[Alert] = []
        cfg = self.config
        self._burn: Dict[str, Deque[bool]] = {}
        self._deadline: Deque[bool] = deque(maxlen=cfg.deadline_window)
        self._stall: Deque[Tuple[int, int]] = deque(maxlen=cfg.stall_window)
        self._moves: Dict[str, Deque[int]] = {}
        self._starving_streak = 0
        self._overload_streak: Dict[str, int] = {}
        self._cycles_observed = 0
        self._c_total = None
        self._g_active = None
        if registry is not None:
            self._c_total = registry.counter(
                "repro_alerts_total",
                "Alert lifecycle transitions by rule",
                ("rule", "event"),
            )
            self._g_active = registry.gauge(
                "repro_alerts_active",
                "Currently firing alerts by rule",
                ("rule",),
            )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def observe(self, obs: CycleObservation) -> List[Alert]:
        """Feed one cycle; returns the alerts that *fired* this cycle."""
        self._cycles_observed += 1
        self._just_fired: List[Alert] = []
        self._eval_burn_rate(obs)
        self._eval_deadline_miss(obs)
        self._eval_stall_rate(obs)
        self._eval_thrash(obs)
        self._eval_starvation(obs)
        self._eval_overload(obs)
        return list(self._just_fired)

    def _eval_burn_rate(self, obs: CycleObservation) -> None:
        cfg = self.config
        budget = max(1.0 - cfg.slo_target, 1e-9)
        for app, utility in obs.txn_utilities.items():
            window = self._burn.setdefault(
                app, deque(maxlen=cfg.burn_long_window)
            )
            window.append(utility < 0.0)
            if len(window) < cfg.burn_short_window:
                continue
            recent = list(window)
            short = recent[-cfg.burn_short_window:]
            short_burn = (sum(short) / len(short)) / budget
            long_burn = (sum(recent) / len(recent)) / budget
            detail = {
                "short_burn": round(short_burn, 3),
                "long_burn": round(long_burn, 3),
                "threshold": cfg.burn_threshold,
                "budget": round(budget, 4),
            }
            if short_burn >= cfg.burn_threshold and long_burn >= cfg.burn_threshold:
                self._fire(RULE_TXN_BURN_RATE, app, "critical", obs, detail)
            elif short_burn < cfg.burn_threshold:
                self._resolve(RULE_TXN_BURN_RATE, app, obs)

    def _eval_deadline_miss(self, obs: CycleObservation) -> None:
        cfg = self.config
        self._deadline.extend(bool(met) for met in obs.completions_met)
        if len(self._deadline) < cfg.deadline_window:
            return
        miss_rate = 1.0 - sum(self._deadline) / len(self._deadline)
        if miss_rate >= cfg.deadline_miss_threshold:
            self._fire(
                RULE_DEADLINE_MISS, "batch", "warning", obs,
                {
                    "miss_rate": round(miss_rate, 3),
                    "window": cfg.deadline_window,
                    "threshold": cfg.deadline_miss_threshold,
                },
            )
        else:
            self._resolve(RULE_DEADLINE_MISS, "batch", obs)

    def _eval_stall_rate(self, obs: CycleObservation) -> None:
        cfg = self.config
        self._stall.append((int(obs.action_attempts), int(obs.action_stalls)))
        attempts = sum(a for a, _ in self._stall)
        stalls = sum(s for _, s in self._stall)
        if attempts < _STALL_MIN_ATTEMPTS:
            self._resolve(RULE_RECONCILER_STALL, "reconciler", obs)
            return
        rate = stalls / attempts
        if rate >= cfg.stall_rate_threshold:
            self._fire(
                RULE_RECONCILER_STALL, "reconciler", "warning", obs,
                {
                    "stall_rate": round(rate, 3),
                    "attempts": attempts,
                    "threshold": cfg.stall_rate_threshold,
                },
            )
        else:
            self._resolve(RULE_RECONCILER_STALL, "reconciler", obs)

    def _eval_thrash(self, obs: CycleObservation) -> None:
        cfg = self.config
        seen = set(obs.app_moves)
        for app, count in obs.app_moves.items():
            self._moves.setdefault(
                app, deque(maxlen=cfg.thrash_window)
            ).append(int(count))
        # Apps with no action this cycle still age their window.
        for app, window in self._moves.items():
            if app not in seen:
                window.append(0)
            total = sum(window)
            if total >= cfg.thrash_moves_threshold:
                self._fire(
                    RULE_PLACEMENT_THRASH, app, "warning", obs,
                    {
                        "moves": total,
                        "window": cfg.thrash_window,
                        "threshold": cfg.thrash_moves_threshold,
                    },
                )
            else:
                self._resolve(RULE_PLACEMENT_THRASH, app, obs)

    def _eval_starvation(self, obs: CycleObservation) -> None:
        cfg = self.config
        slacks = list(obs.queued_slacks)
        starving = sum(1 for s in slacks if s < 0.0)
        if slacks and starving / len(slacks) >= cfg.starvation_fraction:
            self._starving_streak += 1
        else:
            self._starving_streak = 0
        if self._starving_streak >= cfg.starvation_cycles:
            self._fire(
                RULE_BATCH_STARVATION, "batch", "critical", obs,
                {
                    "waiting": len(slacks),
                    "starving": starving,
                    "worst_slack": round(min(slacks), 1),
                    "age_p90": round(_percentile(list(obs.queued_ages), 0.9), 1),
                    "streak": self._starving_streak,
                },
            )
        elif self._starving_streak == 0:
            self._resolve(RULE_BATCH_STARVATION, "batch", obs)

    def _eval_overload(self, obs: CycleObservation) -> None:
        cfg = self.config
        for node, utilization in obs.node_utilization.items():
            below = list(obs.node_below_goal_txn.get(node, ()))
            hot = utilization >= cfg.overload_utilization and bool(below)
            streak = self._overload_streak.get(node, 0) + 1 if hot else 0
            self._overload_streak[node] = streak
            if streak >= cfg.overload_cycles:
                self._fire(
                    RULE_NODE_OVERLOAD, node, "warning", obs,
                    {
                        "utilization": round(utilization, 3),
                        "below_goal": ",".join(sorted(below)),
                        "streak": streak,
                    },
                )
            elif streak == 0:
                self._resolve(RULE_NODE_OVERLOAD, node, obs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _fire(
        self,
        rule: str,
        subject: str,
        severity: str,
        obs: CycleObservation,
        detail: Dict[str, object],
    ) -> None:
        key = (rule, subject)
        if key in self._active:
            return  # already firing: no re-fire until resolved
        alert = Alert(
            rule=rule,
            subject=subject,
            severity=severity,
            fired_at=obs.time,
            fired_cycle=obs.cycle,
            detail=dict(detail),
        )
        self._active[key] = alert
        self._just_fired.append(alert)
        if len(self.alerts) < self._capacity:
            self.alerts.append(alert)
        else:
            self.dropped_alerts += 1
        self.fired_count += 1
        if self._sink is not None:
            self._sink.write(
                {
                    "type": "alert_fired",
                    "time": obs.time,
                    "cycle": obs.cycle,
                    "rule": rule,
                    "subject": subject,
                    "severity": severity,
                    "detail": dict(detail),
                }
            )
        self._publish(rule, "fired")

    def _resolve(self, rule: str, subject: str, obs: CycleObservation) -> None:
        alert = self._active.pop((rule, subject), None)
        if alert is None:
            return
        alert.resolved_at = obs.time
        alert.resolved_cycle = obs.cycle
        self.resolved_count += 1
        if self._sink is not None:
            self._sink.write(
                {
                    "type": "alert_resolved",
                    "time": obs.time,
                    "cycle": obs.cycle,
                    "rule": rule,
                    "subject": subject,
                    "duration": obs.time - alert.fired_at,
                }
            )
        self._publish(rule, "resolved")

    def _publish(self, rule: str, event: str) -> None:
        if self._c_total is not None:
            self._c_total.inc(rule=rule, event=event)
        self._publish_active(rule)

    def _publish_active(self, rule: str) -> None:
        if self._g_active is not None:
            count = sum(1 for r, _ in self._active if r == rule)
            self._g_active.set(float(count), rule=rule)

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safe simulations)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """History, active alerts, counters, rule windows and streaks as
        JSON data.

        An active alert that is in the history is written as its index
        there, so that after :meth:`restore_state` resolving it updates
        the history entry too.
        """
        position = {id(alert): i for i, alert in enumerate(self.alerts)}
        return {
            "alerts": [dataclasses.asdict(alert) for alert in self.alerts],
            "active": [
                {"history": position[id(alert)]}
                if id(alert) in position
                else {"alert": dataclasses.asdict(alert)}
                for alert in self._active.values()
            ],
            "dropped_alerts": self.dropped_alerts,
            "fired_count": self.fired_count,
            "resolved_count": self.resolved_count,
            "burn": {app: list(window) for app, window in self._burn.items()},
            "deadline": list(self._deadline),
            "stall": [list(pair) for pair in self._stall],
            "moves": {app: list(window) for app, window in self._moves.items()},
            "starving_streak": self._starving_streak,
            "overload_streak": dict(self._overload_streak),
            "cycles_observed": self._cycles_observed,
        }

    def restore_state(self, data: Mapping[str, object]) -> None:
        """Overwrite this engine from :meth:`state_dict` output taken
        under the same :class:`AlertConfig`.

        The sink and the transition counter ``repro_alerts_total`` are
        left untouched: restored transitions were streamed and counted
        when they happened, so a fresh registry counts only those after
        the restore.  The gauge ``repro_alerts_active`` is a level, so it
        is set at once for every rule with an alert in the restored
        history or active set, as the uninterrupted run last set it."""
        cfg = self.config
        self.alerts = [Alert(**alert) for alert in data["alerts"]]
        self._active = {}
        for entry in data["active"]:
            if "history" in entry:
                index = entry["history"]
                if not 0 <= index < len(self.alerts):
                    raise ValueError(f"active alert at history index {index!r}")
                alert = self.alerts[index]
            else:
                alert = Alert(**entry["alert"])
            self._active[(alert.rule, alert.subject)] = alert
        self.dropped_alerts = int(data["dropped_alerts"])
        self.fired_count = int(data["fired_count"])
        self.resolved_count = int(data["resolved_count"])
        self._burn = {
            app: deque(window, maxlen=cfg.burn_long_window)
            for app, window in data["burn"].items()
        }
        self._deadline = deque(data["deadline"], maxlen=cfg.deadline_window)
        self._stall = deque(
            (tuple(pair) for pair in data["stall"]), maxlen=cfg.stall_window
        )
        self._moves = {
            app: deque(window, maxlen=cfg.thrash_window)
            for app, window in data["moves"].items()
        }
        self._starving_streak = int(data["starving_streak"])
        self._overload_streak = {
            node: int(streak) for node, streak in data["overload_streak"].items()
        }
        self._cycles_observed = int(data["cycles_observed"])
        for rule in dict.fromkeys(
            [alert.rule for alert in self.alerts]
            + [rule for rule, _ in self._active]
        ):
            self._publish_active(rule)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def active(self) -> List[Alert]:
        """Currently firing alerts, oldest first."""
        return sorted(self._active.values(), key=lambda a: (a.fired_cycle, a.rule))

    def active_keys(self) -> List[str]:
        """``rule:subject`` labels of firing alerts (for heartbeats)."""
        return sorted(f"{rule}:{subject}" for rule, subject in self._active)

    def health(self):
        """Roll the active alerts up into a
        :class:`~repro.obs.health.HealthReport`."""
        from repro.obs.health import health_from_alerts

        return health_from_alerts(self.active)

    def summary(self) -> Dict[str, int]:
        return {
            "fired": self.fired_count,
            "resolved": self.resolved_count,
            "active": len(self._active),
            "cycles_observed": self._cycles_observed,
            "dropped": self.dropped_alerts,
        }

    def __len__(self) -> int:
        return len(self.alerts)


__all__ = [
    "ALERT_RULES",
    "RULE_BATCH_STARVATION",
    "RULE_DEADLINE_MISS",
    "RULE_NODE_OVERLOAD",
    "RULE_PLACEMENT_THRASH",
    "RULE_RECONCILER_STALL",
    "RULE_TXN_BURN_RATE",
    "Alert",
    "AlertConfig",
    "AlertEngine",
    "CycleObservation",
]
