"""Unit conventions shared across the library.

The paper (and therefore this reproduction) works in the following units:

* **CPU speed / allocation**: megahertz (MHz), interpreted as megacycles
  per second.  A node with four 3.9 GHz processors has a CPU capacity of
  ``4 * 3900 = 15600`` MHz.
* **Work**: megacycles (Mcycles).  A job that needs 68,640,000 Mcycles and
  runs at 3900 MHz completes in ``68_640_000 / 3900 = 17_600`` seconds.
* **Memory**: megabytes (MB).
* **Time**: seconds.

Keeping every quantity in these base units means there are no hidden
conversion factors anywhere in the code: ``speed * time == work`` and
``work / speed == time`` always hold.

This module provides a handful of named helpers so that call sites read
naturally and conversions are greppable.
"""

from __future__ import annotations

import math
import numbers

#: Tolerance used for floating-point resource comparisons throughout the
#: library.  Resource quantities are physical (MHz, MB, seconds), so an
#: absolute epsilon is appropriate.
EPSILON = 1e-6

#: One gigahertz expressed in the library's base CPU unit (MHz).
GHZ = 1000.0

#: One gigabyte expressed in the library's base memory unit (MB).
GB = 1024.0

#: One hour in seconds.
HOUR = 3600.0

#: One minute in seconds.
MINUTE = 60.0


def mhz(value: float) -> float:
    """Identity helper marking a literal as a CPU speed in MHz."""
    return float(value)


def mcycles(value: float) -> float:
    """Identity helper marking a literal as an amount of work in Mcycles."""
    return float(value)


def megabytes(value: float) -> float:
    """Identity helper marking a literal as a memory size in MB."""
    return float(value)


def seconds(value: float) -> float:
    """Identity helper marking a literal as a duration in seconds."""
    return float(value)


def work_done(speed_mhz: float, duration_s: float) -> float:
    """Work (Mcycles) accomplished running at ``speed_mhz`` for ``duration_s``."""
    return speed_mhz * duration_s


def time_to_complete(work_mcycles: float, speed_mhz: float) -> float:
    """Seconds needed to complete ``work_mcycles`` at ``speed_mhz``.

    Returns ``float('inf')`` for a non-positive speed: a job that is not
    allocated CPU never finishes, which is exactly how callers use this.
    """
    if speed_mhz <= 0.0:
        return float("inf")
    return work_mcycles / speed_mhz


def approx_equal(a: float, b: float, tolerance: float = EPSILON) -> bool:
    """Absolute-epsilon float comparison for resource quantities."""
    return abs(a - b) <= tolerance


def approx_leq(a: float, b: float, tolerance: float = EPSILON) -> bool:
    """``a <= b`` with an absolute tolerance for resource quantities."""
    return a <= b + tolerance


def approx_geq(a: float, b: float, tolerance: float = EPSILON) -> bool:
    """``a >= b`` with an absolute tolerance for resource quantities."""
    return a + tolerance >= b


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into ``[low, high]``.

    Raises :class:`ValueError` if ``low > high`` — a sign of a logic error
    at the call site that should never be silently absorbed.
    """
    if low > high:
        raise ValueError(f"clamp range is empty: low={low!r} > high={high!r}")
    if value < low:
        return low
    if value > high:
        return high
    return value


def is_count(value: object) -> bool:
    """Whether ``value`` is an integer >= 0 that is not a bool (a count
    of cycles, sweeps or jobs; ``True`` would silently mean 1)."""
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= 0
    )


def is_finite_real(value: object) -> bool:
    """Whether ``value`` is a finite real number that is not a bool (a
    duration, rate or threshold; NaN passes every ``<`` test as false,
    so comparisons alone let it through)."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )
