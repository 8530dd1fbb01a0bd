"""Pluggable admission ordering for the controller's greedy passes.

The APC's cheap pre-search pass places queued applications into free
capacity in *lowest-relative-performance-first* order (the paper's LRPF
ordering, §1), and the search's inner fill loop visits applications the
same way.  :class:`AdmissionStrategy` makes that ordering an extension
point: the controller asks the strategy to rank the eligible
applications, then runs its (scalar, indexed, or vectorized) placement
mechanics unchanged — so a strategy swaps the *queue discipline* without
forking the placement machinery, and the default strategy reproduces the
historical behavior byte for byte.

Strategies are keyword-only dataclasses registered by name
(:func:`register_admission`) with JSON-lossless ``to_dict``/``from_dict``,
so scenarios can select one declaratively
(``policy_params={"admission": "fcfs"}``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Type, Union

from repro._compat import keyword_only
from repro.core.loadbalance import AllocatableApp
from repro.errors import ConfigurationError

#: Strategy name -> class, filled by :func:`register_admission`.
ADMISSIONS: Dict[str, Type["AdmissionStrategy"]] = {}


def register_admission(
    cls: Type["AdmissionStrategy"],
) -> Type["AdmissionStrategy"]:
    """Class decorator: make a strategy resolvable by name."""
    ADMISSIONS[cls.name] = cls
    return cls


class AdmissionStrategy:
    """Orders the applications the greedy passes try to place.

    :meth:`order` receives the eligible application ids (already
    filtered to unplaced-and-known candidates, in candidate-list order —
    i.e. submission order for batch jobs), the per-application specs,
    and the incumbent placement's predicted utilities.  It returns the
    ids in the order placement should be attempted.  The ordering must
    be deterministic; the controller's placement mechanics (first-fit
    into free capacity, divisible-app flooding, host tie-breaks) are not
    part of the strategy.
    """

    #: Registry key; subclasses override.
    name = "admission"

    def order(
        self,
        eligible: Sequence[str],
        specs: Mapping[str, AllocatableApp],
        utilities: Mapping[str, float],
    ) -> List[str]:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable representation (round-trips through
        :meth:`from_dict`)."""
        out: Dict[str, object] = {"name": self.name}
        if dataclasses.is_dataclass(self):
            for f in dataclasses.fields(self):
                out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AdmissionStrategy":
        """Build a registered strategy from a plain dict (inverse of
        :meth:`to_dict`); unknown names and keys are rejected."""
        payload = dict(data)
        name = payload.pop("name", None)
        target = ADMISSIONS.get(name)  # type: ignore[arg-type]
        if target is None:
            raise ConfigurationError(
                f"unknown admission strategy {name!r}; expected one of "
                f"{sorted(ADMISSIONS)}"
            )
        known = {f.name for f in dataclasses.fields(target)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown {target.__name__} keys: {sorted(unknown)}"
            )
        return target(**payload)


AdmissionLike = Union[None, str, Mapping[str, object], "AdmissionStrategy"]


def resolve_admission(spec: AdmissionLike) -> "AdmissionStrategy":
    """Coerce ``None`` (the paper's LRPF default), a registry name, a
    config dict, or a strategy instance into a strategy."""
    if spec is None:
        return LRPFAdmission()
    if isinstance(spec, AdmissionStrategy):
        return spec
    if isinstance(spec, str):
        return AdmissionStrategy.from_dict({"name": spec})
    if isinstance(spec, Mapping):
        return AdmissionStrategy.from_dict(spec)
    raise ConfigurationError(
        f"cannot resolve an admission strategy from {type(spec).__name__}"
    )


@register_admission
@keyword_only
@dataclass
class LRPFAdmission(AdmissionStrategy):
    """The paper's ordering: lowest relative performance first.

    Applications are ranked by their current predicted utility — falling
    back to the RPF maximum for applications the incumbent prediction
    does not cover — ascending, so the neediest work is placed first.
    The sort is stable, so equal-utility applications keep candidate
    (submission) order; byte-identical to the controller's historical
    hardwired sort.
    """

    name = "lrpf"

    def order(
        self,
        eligible: Sequence[str],
        specs: Mapping[str, AllocatableApp],
        utilities: Mapping[str, float],
    ) -> List[str]:
        def key(app_id: str) -> float:
            # The RPF maximum only for the few the prediction misses.
            if app_id in utilities:
                return utilities[app_id]
            return specs[app_id].rpf.max_utility

        return sorted(eligible, key=key)


@register_admission
@keyword_only
@dataclass
class FCFSAdmission(AdmissionStrategy):
    """Arrival-order admission: place in candidate (submission) order.

    Drops the LRPF re-ranking — the greedy passes then behave like a
    first-come-first-served queue over free capacity.  ``reverse``
    flips to last-come-first-served (useful for adversarial tests of
    the ordering's effect).
    """

    name = "fcfs"

    reverse: bool = False

    def order(
        self,
        eligible: Sequence[str],
        specs: Mapping[str, AllocatableApp],
        utilities: Mapping[str, float],
    ) -> List[str]:
        ordered = list(eligible)
        if self.reverse:
            ordered.reverse()
        return ordered
