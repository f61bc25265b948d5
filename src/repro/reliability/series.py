"""Series (first-failure) systems.

The SOFR step models a system as failing at the first failure of any
component (a series system without redundancy — Section 2.3 assumption 2,
which this library keeps, following the paper). This module provides:

* :func:`sofr_mttf` — the SOFR combination itself (sum of reciprocal
  component MTTFs), i.e. the step under examination;
* :class:`SeriesSystem` — the *exact* series system built by hazard
  superposition: for independent components the first-failure process is
  an inhomogeneous Poisson process whose intensity is the sum of the
  component intensities, so the exact machinery of
  :class:`~repro.reliability.process.FailureProcess` applies unchanged;
* :func:`min_of_iid_mttf` — numerical MTTF of the minimum of ``n`` i.i.d.
  variables given a survival function (used by the Section 3.2.2
  half-normal analysis, Figure 4).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import integrate

from ..errors import ConfigurationError
from .hazard import CyclicIntensity, PiecewiseHazard, merge_piecewise
from .process import FailureProcess


#: Instances one ``cumsum`` covers in :func:`_sofr_runs`; bounds its
#: scratch memory whatever the multiplicities.
_BLOCK = 1 << 16


def _sofr_runs(
    values: Iterable[float], multiplicities: Iterable[int]
) -> float:
    """The SOFR step over runs of equal MTTFs: ``values[i]`` repeated
    ``multiplicities[i]`` times, in instance order.

    Returns exactly the bits of the left fold ``total += 1/MTTF`` over the
    expanded instances without expanding them: ``np.cumsum`` is a
    sequential accumulate, so a block of one run's reciprocals, seeded
    with the running total, rounds after every addition just as the loop
    does (``np.sum`` pairs terms and ``m * (1/v)`` rounds once; both
    differ). An infinite MTTF adds ``1/inf = 0.0``, which leaves any
    total ``>= +0`` unchanged. Runs are validated in order; a run with
    multiplicity ``<= 0`` stands for no instance and is not checked.
    """
    kept: list[float] = []
    counts: list[int] = []
    for value, count in zip(values, multiplicities):
        count = operator.index(count)
        if count <= 0:
            continue
        if value <= 0:
            raise ConfigurationError(f"MTTF must be positive, got {value}")
        kept.append(float(value))
        counts.append(count)
    if not counts:
        raise ConfigurationError("need at least one component MTTF")
    ends = np.cumsum(counts)
    starts = ends - counts
    total = 0.0
    # Subnormal MTTFs overflow to an infinite rate, and the sum can
    # overflow too; Python's float arithmetic gives the same inf silently.
    with np.errstate(over="ignore", divide="ignore"):
        rates = 1.0 / np.array(kept)
        for lo in range(0, int(ends[-1]), _BLOCK):
            hi = min(lo + _BLOCK, int(ends[-1]))
            first = int(np.searchsorted(ends, lo, side="right"))
            last = int(np.searchsorted(starts, hi, side="left"))
            reps = np.minimum(ends[first:last], hi) - np.maximum(
                starts[first:last], lo
            )
            block = np.concatenate(
                ([total], np.repeat(rates[first:last], reps))
            )
            total = float(np.cumsum(block)[-1])
    if total == 0.0:
        return math.inf
    return 1.0 / total


def sofr_mttf(component_mttfs: Sequence[float]) -> float:
    """The SOFR step: ``MTTF_sys = 1 / sum_i (1 / MTTF_i)``.

    Infinite component MTTFs contribute zero failure rate. If every
    component is infinite the system MTTF is infinite.
    """
    return _sofr_runs(component_mttfs, itertools.repeat(1))


class SeriesSystem:
    """Exact series system of independent cyclically masked components.

    Each component contributes a failure intensity (raw rate x
    vulnerability profile). Independent Poisson processes superpose, so
    the system's first-failure process has the summed intensity.

    Components whose intensities are :class:`PiecewiseHazard` instances
    with one common period are merged into a single breakpoint-refined
    hazard; a ``multiplicity`` may be attached to each component to model
    ``C`` identical components (e.g. a homogeneous cluster) without
    enumerating them.
    """

    def __init__(
        self,
        components: Sequence[CyclicIntensity],
        multiplicities: Sequence[int] | None = None,
    ):
        if not components:
            raise ConfigurationError("need at least one component")
        if multiplicities is None:
            multiplicities = [1] * len(components)
        if len(multiplicities) != len(components):
            raise ConfigurationError(
                "multiplicities must match components in length"
            )
        for m in multiplicities:
            if m < 1:
                raise ConfigurationError(f"multiplicity must be >= 1, got {m}")
        self._components = list(components)
        self._multiplicities = list(multiplicities)
        self._combined = self._combine()

    def _combine(self) -> CyclicIntensity:
        scaled = [
            comp.scaled(float(mult)) if mult != 1 else comp
            for comp, mult in zip(self._components, self._multiplicities)
        ]
        if len(scaled) == 1:
            return scaled[0]
        if all(isinstance(c, PiecewiseHazard) for c in scaled):
            return merge_piecewise(scaled)  # type: ignore[arg-type]
        raise ConfigurationError(
            "heterogeneous composition of nested hazards requires a common "
            "piecewise representation; flatten nested hazards first"
        )

    @property
    def combined_intensity(self) -> CyclicIntensity:
        return self._combined

    @property
    def component_count(self) -> int:
        return sum(self._multiplicities)

    def process(self) -> FailureProcess:
        """The exact first-failure process of the whole system."""
        return FailureProcess(self._combined)

    def component_processes(self) -> list[FailureProcess]:
        """Per-component (single-instance) failure processes."""
        return [FailureProcess(c) for c in self._components]

    def mttf(self) -> float:
        """Exact system MTTF from first principles."""
        return self.process().mttf()


def min_of_iid_mttf(
    survival: Callable[[np.ndarray], np.ndarray],
    n: int,
    upper: float = np.inf,
) -> float:
    """MTTF of ``min(X_1..X_n)`` for i.i.d. ``X`` with the given survival.

    Uses ``E[min] = ∫_0^∞ S(t)^n dt`` (valid for non-negative variables),
    evaluated with adaptive quadrature. This is the "first principles"
    side of the paper's Figure 4 analysis.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")

    def integrand(t: float) -> float:
        return float(survival(np.asarray(t))) ** n

    value, _abserr = integrate.quad(integrand, 0.0, upper, limit=200)
    return value
