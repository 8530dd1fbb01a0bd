"""Fault injection for placement actions.

The paper's controller assumes every boot/suspend/resume/migrate it
issues succeeds after a deterministic cost.  Real actuators are not so
kind: control operations fail outright (hypervisor races, transient
image-store errors) or stall (a live migration that never converges).
This module models that unreliability as a *seeded, deterministic*
process the simulator consults before committing each action:

* :class:`FaultSpec` — per-action-type failure/stall probabilities and a
  stall-duration distribution;
* :class:`ActionFaultModel` — the full model: one spec per action type
  plus optional per-node flakiness multipliers and the seed.  The model
  itself is immutable configuration; each simulation run derives a fresh
  :class:`FaultSampler` from it, so re-running the same scenario with
  the same seed reproduces the same fault sequence bit for bit;
* :class:`RetryPolicy` — capped exponential backoff with seeded jitter,
  used by the simulator's reconciliation loop to re-issue failed
  actions;
* :class:`FaultOutcome` — one sampled verdict (ok / failed / stalled
  with a duration).

The model is strictly opt-in: a simulator configured without one (the
default) never draws a random number and behaves exactly as before.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.errors import ConfigurationError
from repro.units import is_count, is_finite_real
from repro.virt.actions import ActionType


@dataclass(frozen=True)
class FaultSpec:
    """Failure behavior of one action type.

    Attributes
    ----------
    failure_probability:
        Chance the action fails immediately (the actuator reports an
        error; nothing moved).
    stall_probability:
        Chance the action neither succeeds nor fails promptly but hangs,
        holding its resources.  Sampled only when the action did not
        fail outright.
    stall_duration_mean:
        Mean of the exponential stall-duration distribution (seconds).
        A sampled stall shorter than the supervisor's timeout merely
        delays the action; a longer one is detected as a failure when
        the timeout fires.
    """

    failure_probability: float = 0.0
    stall_probability: float = 0.0
    stall_duration_mean: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_probability <= 1.0:
            raise ConfigurationError(
                f"failure probability must be in [0, 1], got {self.failure_probability}"
            )
        if not 0.0 <= self.stall_probability <= 1.0:
            raise ConfigurationError(
                f"stall probability must be in [0, 1], got {self.stall_probability}"
            )
        if not (
            is_finite_real(self.stall_duration_mean)
            and self.stall_duration_mean > 0.0
        ):
            raise ConfigurationError(
                "stall_duration_mean must be finite and positive, got "
                f"{self.stall_duration_mean!r}"
            )

    @property
    def active(self) -> bool:
        return self.failure_probability > 0.0 or self.stall_probability > 0.0


@dataclass(frozen=True)
class FaultOutcome:
    """One sampled verdict for one action attempt."""

    failed: bool = False
    stalled: bool = False
    stall_duration: float = 0.0


#: The always-succeeds outcome (no fault model, or an inactive spec).
OUTCOME_OK = FaultOutcome()


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for failed placement actions.

    ``backoff(n)`` — the delay before retry ``n`` (after the ``n``-th
    failure) — is ``base_delay * multiplier**(n-1)``, capped at
    ``max_delay``, with a multiplicative jitter of up to ``jitter``
    drawn from the run's seeded RNG (so same-seed runs back off
    identically).
    """

    max_attempts: int = 3
    base_delay: float = 10.0
    multiplier: float = 2.0
    jitter: float = 0.1
    max_delay: float = 600.0

    def __post_init__(self) -> None:
        if not (is_count(self.max_attempts) and self.max_attempts >= 1):
            raise ConfigurationError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        for name in ("base_delay", "max_delay"):
            value = getattr(self, name)
            if not (is_finite_real(value) and value > 0.0):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        if not (is_finite_real(self.multiplier) and self.multiplier >= 1.0):
            raise ConfigurationError(
                f"multiplier must be finite and >= 1, got {self.multiplier!r}"
            )
        if not (is_finite_real(self.jitter) and self.jitter >= 0.0):
            raise ConfigurationError(
                f"jitter must be finite and >= 0, got {self.jitter!r}"
            )
        if self.max_delay < self.base_delay:
            raise ConfigurationError(
                f"max_delay {self.max_delay} below base_delay {self.base_delay}"
            )

    def backoff(self, failures: int, rng: random.Random) -> float:
        """Delay before the next retry after ``failures`` failed attempts."""
        if failures < 1:
            raise ConfigurationError(f"failures must be >= 1, got {failures}")
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (failures - 1))
        if self.jitter > 0.0:
            raw *= 1.0 + self.jitter * rng.random()
        return raw


@dataclass(frozen=True)
class ActionFaultModel:
    """Seeded, deterministic unreliability model for placement actions.

    ``specs`` maps each :class:`~repro.virt.actions.ActionType` to its
    :class:`FaultSpec`; unlisted types never fault.  ``node_flakiness``
    multiplies both probabilities for actions whose *target* node is
    listed (a flaky hypervisor makes every operation against it risky);
    the product is clamped to 1.
    """

    specs: Mapping[ActionType, FaultSpec] = field(default_factory=dict)
    node_flakiness: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("specs", "node_flakiness"):
            value = getattr(self, name)
            if not isinstance(value, Mapping):
                raise ConfigurationError(
                    f"{name} must be a mapping, got {value!r}"
                )
            object.__setattr__(self, name, dict(value))
        for action, spec in self.specs.items():
            if not isinstance(action, ActionType):
                raise ConfigurationError(f"spec key must be an ActionType, got {action!r}")
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(f"spec for {action} must be a FaultSpec")
        for node, mult in self.node_flakiness.items():
            if not (is_finite_real(mult) and mult >= 0.0):
                raise ConfigurationError(
                    f"node_flakiness for {node!r} must be finite and >= 0, "
                    f"got {mult!r}"
                )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        failure_probability: float = 0.0,
        stall_probability: float = 0.0,
        stall_duration_mean: float = 60.0,
        node_flakiness: Optional[Mapping[str, float]] = None,
        seed: int = 0,
    ) -> "ActionFaultModel":
        """The same spec for every action type the simulator issues."""
        spec = FaultSpec(failure_probability, stall_probability, stall_duration_mean)
        return cls(
            specs={a: spec for a in ActionType},
            node_flakiness=node_flakiness or {},
            seed=seed,
        )

    @classmethod
    def flaky_migrations(
        cls, failure_probability: float, seed: int = 0
    ) -> "ActionFaultModel":
        """Only live migrations fail (the operationally common case)."""
        return cls(
            specs={ActionType.MIGRATE: FaultSpec(failure_probability)}, seed=seed
        )

    @property
    def enabled(self) -> bool:
        """Whether the model can ever produce a fault."""
        return any(spec.active for spec in self.specs.values())

    def sampler(self) -> "FaultSampler":
        """A fresh sampler with its own RNG seeded from this model.

        One sampler per simulation run: reusing the *model* across runs
        is deterministic because each run re-seeds.
        """
        return FaultSampler(self)


class FaultSampler:
    """Draws fault outcomes from an :class:`ActionFaultModel`.

    Holds the run's RNG; the reconciliation loop uses the same RNG for
    retry jitter, so the whole fault/retry sequence is one seeded
    stream.
    """

    def __init__(self, model: ActionFaultModel) -> None:
        self._model = model
        self.rng = random.Random(model.seed)

    @property
    def model(self) -> ActionFaultModel:
        return self._model

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safe simulations)
    # ------------------------------------------------------------------
    def rng_state(self) -> list:
        """The RNG's exact state as a JSON-serializable list.

        ``random.Random.getstate()`` returns nested tuples; JSON turns
        tuples into lists, so the canonical serialized form is the
        list shape — :meth:`set_rng_state` converts back.
        """
        version, internal, gauss_next = self.rng.getstate()
        return [version, list(internal), gauss_next]

    def set_rng_state(self, state) -> None:
        """Restore a state captured by :meth:`rng_state` (resuming the
        fault/jitter stream exactly where a snapshot left it)."""
        version, internal, gauss_next = state
        self.rng.setstate((version, tuple(internal), gauss_next))

    def sample(self, action: ActionType, node: Optional[str]) -> FaultOutcome:
        """Verdict for one attempt of ``action`` against ``node``."""
        spec = self._model.specs.get(action)
        if spec is None or not spec.active:
            return OUTCOME_OK
        mult = 1.0
        if node is not None:
            mult = self._model.node_flakiness.get(node, 1.0)
        p_fail = min(1.0, spec.failure_probability * mult)
        if self.rng.random() < p_fail:
            return FaultOutcome(failed=True)
        p_stall = min(1.0, spec.stall_probability * mult)
        if p_stall > 0.0 and self.rng.random() < p_stall:
            duration = self.rng.expovariate(1.0 / spec.stall_duration_mean)
            return FaultOutcome(stalled=True, stall_duration=duration)
        return OUTCOME_OK


__all__ = [
    "ActionFaultModel",
    "FaultOutcome",
    "FaultSampler",
    "FaultSpec",
    "OUTCOME_OK",
    "RetryPolicy",
]
