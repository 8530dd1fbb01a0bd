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

import functools
from typing import Iterable, Mapping, Tuple

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


class Objective:
    """How the placement controller ranks candidate placements (§3.2).

    The controller evaluates each candidate into per-application
    utilities and a churn count; the objective turns those into a
    :class:`PlacementScore` (:meth:`score`), decides whether a candidate
    beats the incumbent (:meth:`better`), and explains that comparison
    for the decision flight recorder (:meth:`explain`).  The ranking is
    the paper's tolerant lexicographic maxmin over the sorted utility
    vector, ties broken by churn.
    """

    def score(
        self,
        utilities: Mapping[str, float],
        churn: int,
        tolerance: float,
    ) -> PlacementScore:
        """Score one evaluated candidate placement: its sorted utility
        vector, compared with ``tolerance``, and its churn."""
        return PlacementScore(
            UtilityVector(utilities.values(), tolerance=tolerance), churn
        )

    def better(
        self, candidate: PlacementScore, incumbent: PlacementScore
    ) -> bool:
        """Does ``candidate`` justify replacing ``incumbent``?

        Only a strict utility-vector improvement does — a tie never
        justifies churn, matching the paper's adoption rule.  It is
        ``candidate.utilities > incumbent.utilities`` in one comparison:
        the rich ``>`` asks ``<`` and then ``==``.
        """
        a, b = candidate.utilities, incumbent.utilities
        return _lex_compare(a.values, b.values, a._shared_tolerance(b)) == 1

    def explain(
        self, candidate: PlacementScore, incumbent: PlacementScore
    ) -> dict:
        """A JSON-friendly account of :meth:`better`'s comparison."""
        return lex_explain(candidate.utilities, incumbent.utilities)
