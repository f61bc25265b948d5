"""The SOFR step (Section 2.3).

``FailureRate_sys = sum_i 1/MTTF_i`` and ``MTTF_sys = 1/FailureRate_sys``
— the industry-standard sum-of-failure-rates combination. The step
assumes each component's time to failure is exponential with constant
rate; Section 3.2 shows architectural masking can break this.

Two entry points are provided, matching how the paper isolates errors:

* :func:`avf_sofr_mttf` — the full AVF+SOFR pipeline (AVF-step component
  MTTFs fed into SOFR);
* :func:`sofr_mttf_from_components` — the SOFR step alone, fed with
  externally supplied component MTTFs ("In our SOFR experiments, we use
  component MTTFs obtained from the Monte Carlo method; therefore, the
  error reported is only that caused by the SOFR step", Section 4.2).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from ..reliability.metrics import MTTFEstimate
from ..reliability.series import _sofr_runs, sofr_mttf
from .avf import avf_mttf
from .system import Component, SystemModel


def avf_sofr_mttf(system: SystemModel) -> MTTFEstimate:
    """The complete AVF+SOFR method applied to a system (Figure 1)."""
    estimate = sofr_mttf_from_components(
        system, lambda c: avf_mttf(c.rate_per_second, c.profile)
    )
    return replace(estimate, method="avf+sofr")


def sofr_mttf_from_components(
    system: SystemModel,
    component_mttf: Callable[[Component], float],
) -> MTTFEstimate:
    """The SOFR step alone, with caller-supplied component MTTFs.

    ``component_mttf`` maps a single component *instance* to its MTTF in
    seconds; each component's value then counts once per instance.
    """
    components = system.components
    mttf = _sofr_runs(
        [component_mttf(c) for c in components],
        [c.multiplicity for c in components],
    )
    return MTTFEstimate(mttf_seconds=mttf, method="sofr")


def sofr_mttf_from_values(
    component_mttfs: Sequence[float],
    multiplicities: Sequence[int] | None = None,
) -> MTTFEstimate:
    """The SOFR step on raw MTTF values (convenience for analytics)."""
    if multiplicities is None:
        mttf = sofr_mttf(component_mttfs)
    else:
        runs = list(zip(component_mttfs, multiplicities, strict=True))
        mttf = _sofr_runs([v for v, _ in runs], [m for _, m in runs])
    return MTTFEstimate(mttf_seconds=mttf, method="sofr")
