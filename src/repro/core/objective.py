"""The optimization objective: a maxmin extension over utility vectors.

The performance of the system under a candidate placement is the vector of
per-application relative performance values *sorted ascending* (§3.2).
Two placements are compared lexicographically on these sorted vectors:
first maximize the worst application's relative performance; when the
worst cannot be improved, maximize the second worst; and so on.  This is
the paper's "extension of a maxmin criterion".

Ties on the utility vector are broken by the number of placement changes —
the controller "employs heuristics that aim to minimize the number of
changes to the current placement", which is also why, in the illustrative
example's Scenario 1, the no-change alternative wins among equal-utility
placements.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Type, Union

from repro._compat import keyword_only
from repro.errors import ConfigurationError
from repro.units import EPSILON


def _lex_compare(
    a: Tuple[float, ...], b: Tuple[float, ...], tolerance: float
) -> int:
    """Tolerant lexicographic comparison of two sorted value tuples.

    Returns -1 (``a < b``), 0 (element-wise tie over equal lengths) or 1.
    Not memoised: the controller compares each candidate vector once
    (:meth:`Objective.better`), so a cache would only hold vectors alive.
    """
    for x, y in zip(a, b):
        if x < y - tolerance:
            return -1
        if x > y + tolerance:
            return 1
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    return 0


def lex_explain(
    candidate: "UtilityVector", incumbent: "UtilityVector"
) -> dict:
    """Explain a lexicographic comparison for the decision flight recorder.

    Mirrors :func:`_lex_compare` exactly (same tolerance resolution as the
    rich comparisons) but additionally reports *which* vector element
    decided the outcome.  Returns a JSON-friendly dict::

        {"result": -1 | 0 | 1,          # candidate vs. incumbent
         "index": int | None,           # deciding position in the sorted
                                        # vectors (None = tie / length)
         "candidate": float | None,     # value at that position
         "incumbent": float | None,
         "tolerance": float}
    """
    tol = max(candidate.tolerance, incumbent.tolerance)
    a, b = candidate.values, incumbent.values
    for i, (x, y) in enumerate(zip(a, b)):
        if x < y - tol:
            return {"result": -1, "index": i, "candidate": x,
                    "incumbent": y, "tolerance": tol}
        if x > y + tol:
            return {"result": 1, "index": i, "candidate": x,
                    "incumbent": y, "tolerance": tol}
    if len(a) != len(b):
        return {"result": -1 if len(a) < len(b) else 1, "index": None,
                "candidate": None, "incumbent": None, "tolerance": tol}
    return {"result": 0, "index": None, "candidate": None,
            "incumbent": None, "tolerance": tol}


@functools.total_ordering
class UtilityVector:
    """An ascending-sorted vector of relative performance values.

    Comparison is lexicographic with a per-element tolerance, so vectors
    whose elements differ only by noise compare equal.  The tolerance is
    configurable because it doubles as the controller's *significance
    threshold*: a candidate placement whose utilities differ from the
    incumbent's by less than the tolerance is a tie, and ties never
    justify placement changes (predicted utilities come from a sampled
    interpolation — §4.2 — so sub-tolerance differences are model noise,
    not real improvements).

    A longer prefix-equal vector compares *greater* than a shorter one
    only through its extra elements; in practice the controller always
    compares vectors over the same application set, so lengths match.
    """

    __slots__ = ("_values", "_tolerance")

    def __init__(self, utilities: Iterable[float], tolerance: float = EPSILON) -> None:
        self._values: Tuple[float, ...] = tuple(sorted(utilities))
        self._tolerance = tolerance

    @classmethod
    def of(
        cls, per_app: Mapping[str, float], tolerance: float = EPSILON
    ) -> "UtilityVector":
        """Build from a mapping of application id to relative performance."""
        return cls(per_app.values(), tolerance=tolerance)

    @property
    def tolerance(self) -> float:
        return self._tolerance

    @property
    def values(self) -> Tuple[float, ...]:
        """The sorted utilities."""
        return self._values

    @property
    def worst(self) -> float:
        """The lowest relative performance (the maxmin objective)."""
        if not self._values:
            return float("inf")
        return self._values[0]

    def __len__(self) -> int:
        return len(self._values)

    def _shared_tolerance(self, other: "UtilityVector") -> float:
        return max(self._tolerance, other._tolerance)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UtilityVector):
            return NotImplemented
        if len(self._values) != len(other._values):
            return False
        tol = self._shared_tolerance(other)
        return _lex_compare(self._values, other._values, tol) == 0

    def __lt__(self, other: "UtilityVector") -> bool:
        if not isinstance(other, UtilityVector):
            return NotImplemented
        tol = self._shared_tolerance(other)
        return _lex_compare(self._values, other._values, tol) == -1

    def __hash__(self) -> int:
        # Consistent with __eq__ only up to epsilon; UtilityVector is not
        # intended as a dict key, but hashability keeps it usable in sets
        # of exact duplicates.
        return hash(tuple(round(v, 6) for v in self._values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v:.3f}" for v in self._values)
        return f"UtilityVector([{inner}])"


@functools.total_ordering
class PlacementScore:
    """A candidate placement's full score: utility vector, then churn.

    ``a > b`` means placement ``a`` is preferable: its utility vector is
    lexicographically greater, or the vectors tie and ``a`` requires fewer
    placement changes.
    """

    __slots__ = ("utilities", "num_changes")

    def __init__(self, utilities: UtilityVector, num_changes: int = 0) -> None:
        self.utilities = utilities
        self.num_changes = num_changes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlacementScore):
            return NotImplemented
        return (
            self.utilities == other.utilities
            and self.num_changes == other.num_changes
        )

    def __lt__(self, other: "PlacementScore") -> bool:
        if not isinstance(other, PlacementScore):
            return NotImplemented
        if self.utilities != other.utilities:
            return self.utilities < other.utilities
        # Equal utility vectors: more churn is worse.
        return self.num_changes > other.num_changes

    def __repr__(self) -> str:
        return f"PlacementScore({self.utilities!r}, changes={self.num_changes})"


# ----------------------------------------------------------------------
# Pluggable objectives
# ----------------------------------------------------------------------
#: Objective name -> class, filled by :func:`register_objective`.
OBJECTIVES: Dict[str, Type["Objective"]] = {}


def register_objective(cls: Type["Objective"]) -> Type["Objective"]:
    """Class decorator: make an :class:`Objective` resolvable by name."""
    OBJECTIVES[cls.name] = cls
    return cls


class Objective:
    """How the placement controller ranks candidate placements.

    The controller evaluates each candidate into per-application
    utilities and a churn count; the objective turns those into a
    :class:`PlacementScore` (:meth:`score`), decides whether a candidate
    beats the incumbent (:meth:`better`), and explains that comparison
    for the decision flight recorder (:meth:`explain`).

    Implementations are keyword-only dataclasses registered by name
    (:func:`register_objective`) and JSON-round-trippable through
    :meth:`to_dict` / :meth:`from_dict`, so a scenario can select one
    declaratively (``policy_params={"objective": "utilitarian"}``).

    ``supports_upper_bound`` gates the controller's sorted-RPF-maxima
    short-circuit, whose soundness argument is specific to the paper's
    lexicographic ordering; objectives that rank differently leave it
    False and simply forgo the shortcut (decisions are unaffected).
    """

    #: Registry key; subclasses override.
    name = "objective"
    #: Whether the RPF-maxima upper-bound short-circuit is sound.
    supports_upper_bound = False

    def score(
        self,
        utilities: Mapping[str, float],
        churn: int,
        tolerance: float,
    ) -> PlacementScore:
        """Score one evaluated candidate placement."""
        raise NotImplementedError

    def better(
        self, candidate: PlacementScore, incumbent: PlacementScore
    ) -> bool:
        """Does ``candidate`` justify replacing ``incumbent``?

        The default requires a strict utility-vector improvement — a tie
        never justifies churn, matching the paper's adoption rule.  It
        is ``candidate.utilities > incumbent.utilities`` in one
        comparison: the rich ``>`` asks ``<`` and then ``==``.
        """
        a, b = candidate.utilities, incumbent.utilities
        return _lex_compare(a.values, b.values, a._shared_tolerance(b)) == 1

    def explain(
        self, candidate: PlacementScore, incumbent: PlacementScore
    ) -> dict:
        """A JSON-friendly account of :meth:`better`'s comparison."""
        return lex_explain(candidate.utilities, incumbent.utilities)

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable representation (round-trips through
        :meth:`from_dict`)."""
        out: Dict[str, object] = {"name": self.name}
        if dataclasses.is_dataclass(self):
            for f in dataclasses.fields(self):
                out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Objective":
        """Build a registered objective from a plain dict (inverse of
        :meth:`to_dict`); unknown names and keys are rejected."""
        payload = dict(data)
        name = payload.pop("name", None)
        target = OBJECTIVES.get(name)  # type: ignore[arg-type]
        if target is None:
            raise ConfigurationError(
                f"unknown objective {name!r}; expected one of "
                f"{sorted(OBJECTIVES)}"
            )
        known = {f.name for f in dataclasses.fields(target)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown {target.__name__} keys: {sorted(unknown)}"
            )
        return target(**payload)


ObjectiveLike = Union[None, str, Mapping[str, object], Objective]


def resolve_objective(spec: ObjectiveLike) -> Objective:
    """Coerce ``None`` (the paper's default), a registry name, a config
    dict, or an :class:`Objective` instance into an objective."""
    if spec is None:
        return LexMaxMinObjective()
    if isinstance(spec, Objective):
        return spec
    if isinstance(spec, str):
        return Objective.from_dict({"name": spec})
    if isinstance(spec, Mapping):
        return Objective.from_dict(spec)
    raise ConfigurationError(
        f"cannot resolve an objective from {type(spec).__name__}"
    )


@register_objective
@keyword_only
@dataclass
class LexMaxMinObjective(Objective):
    """The paper's objective: tolerant lexicographic maxmin (§3.2).

    Byte-identical to the controller's historical hardwired scoring:
    the sorted utility vector compared lexicographically with the
    evaluation tolerance, ties broken by churn.  ``tolerance_override``
    replaces the controller-supplied comparison tolerance when set
    (``None``, the default, preserves the stock behavior exactly).
    """

    name = "lex_maxmin"
    supports_upper_bound = True

    tolerance_override: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            self.tolerance_override is not None
            and self.tolerance_override < 0.0
        ):
            raise ConfigurationError(
                f"tolerance override must be >= 0, got {self.tolerance_override}"
            )

    def score(
        self,
        utilities: Mapping[str, float],
        churn: int,
        tolerance: float,
    ) -> PlacementScore:
        tol = (
            tolerance
            if self.tolerance_override is None
            else self.tolerance_override
        )
        return PlacementScore(
            UtilityVector(utilities.values(), tolerance=tol), churn
        )


@register_objective
@keyword_only
@dataclass
class UtilitarianObjective(Objective):
    """A rival objective: rank by aggregate utility, not the worst app.

    The score vector is the single value ``(1 - worst_weight) * mean +
    worst_weight * worst`` — pure utilitarian at the default weight 0,
    blending back toward the paper's egalitarian objective as the
    weight approaches 1.  Exists to exercise the extension point (and
    ablate the maxmin choice); it deliberately trades fairness for
    throughput.
    """

    name = "utilitarian"

    worst_weight: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.worst_weight <= 1.0:
            raise ConfigurationError(
                f"worst weight must be in [0, 1], got {self.worst_weight}"
            )

    def score(
        self,
        utilities: Mapping[str, float],
        churn: int,
        tolerance: float,
    ) -> PlacementScore:
        values = list(utilities.values())
        if not values:
            return PlacementScore(UtilityVector((), tolerance=tolerance), churn)
        mean = sum(values) / len(values)
        blended = (1.0 - self.worst_weight) * mean + self.worst_weight * min(
            values
        )
        return PlacementScore(
            UtilityVector((blended,), tolerance=tolerance), churn
        )
