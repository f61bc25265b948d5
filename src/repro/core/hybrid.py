"""Hybrid MTTF estimation: the paper's concluding recommendation.

The paper closes by motivating "future work to determine the best
combination of methodologies that will provide the best MTTF estimates
across all relevant scenarios". This module implements the obvious such
combination, built from the validity analysis:

* in the **safe** regime (tiny hazard mass per iteration) the AVF+SOFR
  pipeline is exact to first order and costs almost nothing — use it;
* in the **caution** regime the first-order phase-skew correction
  (:mod:`repro.core.bounds`) removes the leading error at the same
  cost — use the corrected estimator;
* in the **unreliable** regime no closed-form shortcut is safe — fall
  back to the exact first-principles renewal computation (equivalently
  SoftArch), which this library makes as cheap as the masking profile's
  segment count.

Every estimate records which path produced it and the a priori error
bound that justified the choice, so downstream consumers can audit the
decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..reliability.metrics import MTTFEstimate
from .avf import avf_mttf
from .bounds import avf_error_bound, corrected_avf_mttf
from .firstprinciples import exact_component_mttf, first_principles_mttf
from .sofr import sofr_mttf_from_components
from .system import Component, SystemModel
from .validity import (
    SAFE_MASS_THRESHOLD,
    UNRELIABLE_MASS_THRESHOLD,
    Regime,
)


@dataclass(frozen=True)
class HybridEstimate:
    """An MTTF with the method-selection audit trail.

    Attributes
    ----------
    estimate:
        The selected MTTF estimate.
    regime:
        The validity regime that drove the selection.
    error_bound:
        A priori bound on the *uncorrected* AVF-step error at this
        configuration (``λ·V(L)/2`` summed over components); reported
        even when an exact path was taken, as the audit trail.
    """

    estimate: MTTFEstimate
    regime: Regime
    error_bound: float

    def __str__(self) -> str:
        return (
            f"{self.estimate} [regime={self.regime.value}, "
            f"avf-bound={self.error_bound:.2e}]"
        )


def _component_regime(component: Component) -> Regime:
    mass = component.intensity.mass
    if mass < SAFE_MASS_THRESHOLD:
        return Regime.SAFE
    if mass < UNRELIABLE_MASS_THRESHOLD:
        return Regime.CAUTION
    return Regime.UNRELIABLE


def hybrid_component_mttf(component: Component) -> HybridEstimate:
    """Best-method MTTF for a single component."""
    regime = _component_regime(component)
    bound = avf_error_bound(component.rate_per_second, component.profile)
    if regime is Regime.SAFE:
        value = avf_mttf(component.rate_per_second, component.profile)
        method = "hybrid[avf]"
    elif regime is Regime.CAUTION:
        value = corrected_avf_mttf(
            component.rate_per_second, component.profile
        )
        method = "hybrid[avf+correction]"
    else:
        value = exact_component_mttf(
            component.rate_per_second, component.profile
        )
        method = "hybrid[first_principles]"
    return HybridEstimate(
        estimate=MTTFEstimate(mttf_seconds=value, method=method),
        regime=regime,
        error_bound=bound,
    )


def hybrid_system_mttf(system: SystemModel) -> HybridEstimate:
    """Best-method MTTF for a series system.

    The SOFR combination is only used when the *system-level* hazard
    mass per iteration is small (the Section-3.2 exponentiality
    condition); otherwise the exact combined-hazard renewal value is
    computed directly.
    """
    system_mass = sum(
        c.multiplicity * c.intensity.mass for c in system.components
    )
    component_bound = sum(
        c.multiplicity
        * avf_error_bound(c.rate_per_second, c.profile)
        for c in system.components
    )
    if system_mass < SAFE_MASS_THRESHOLD:
        mttf = sofr_mttf_from_components(
            system, lambda c: hybrid_component_mttf(c).estimate.mttf_seconds
        ).mttf_seconds
        return HybridEstimate(
            estimate=MTTFEstimate(
                mttf_seconds=mttf, method="hybrid[avf+sofr]"
            ),
            regime=Regime.SAFE,
            error_bound=component_bound,
        )
    exact = first_principles_mttf(system)
    regime = (
        Regime.CAUTION
        if system_mass < UNRELIABLE_MASS_THRESHOLD
        else Regime.UNRELIABLE
    )
    return HybridEstimate(
        estimate=MTTFEstimate(
            mttf_seconds=exact.mttf_seconds,
            method="hybrid[first_principles]",
        ),
        regime=regime,
        error_bound=component_bound,
    )
