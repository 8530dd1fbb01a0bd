"""Relative performance of batch jobs.

§4.1, equation (2): if job ``m`` completes at time ``t_m``, the relative
distance of its completion time from the goal is

    u_m(t_m) = (τ_m − t_m) / (τ_m − τ^start_m)

This module provides that mapping plus :class:`JobAllocationRPF` — the
per-job function of *CPU allocation* that underpins the hypothetical
relative performance of §4.2: if a job sustains an average speed ``ω``
over its remaining lifetime, it completes at ``t_now + α_rem/ω`` and the
equation above yields its relative performance.  The inverse,
``ω_m(u) = α_rem / (t_m(u) − t_now)`` with
``t_m(u) = τ − u·(τ − τ_start)``, is equation (3) of the paper and forms
the entries of the ``W`` matrix.

:class:`JobAllocationRPF` is defined in :mod:`repro.core.rpf`, beside
the other RPF shapes, because the load distributor works out a job's
targets in closed form from its fields; it is re-exported here.
"""

from __future__ import annotations

from repro.batch.job import Job
from repro.core.rpf import JobAllocationRPF  # re-exported
from repro.errors import ModelError


def job_relative_performance(job: Job, completion_time: float) -> float:
    """Equation (2): relative performance at a given completion time."""
    return (job.completion_goal - completion_time) / job.relative_goal


def completion_time_for_utility(job: Job, utility: float) -> float:
    """Invert equation (2): ``t_m(u) = τ_m − u · (τ_m − τ^start_m)``."""
    return job.completion_goal - utility * job.relative_goal


def make_allocation_rpf(job: Job, now: float) -> JobAllocationRPF:
    """Convenience factory mirroring the paper's notation."""
    if not job.is_incomplete:
        raise ModelError(f"job {job.job_id} is complete; no allocation RPF")
    return JobAllocationRPF(job, now)
