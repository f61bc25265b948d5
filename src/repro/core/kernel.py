"""Compiled sampling kernels: fingerprint-cached intensity plans.

The Monte-Carlo reference spends its life in two places: drawing
inverse-hazard samples, and — before PR 7 — *rebuilding the objects it
draws from*. Every chunk task used to call
:meth:`~repro.core.system.SystemModel.combined_intensity`, re-running
``merge_piecewise``/``_merge_nested`` per chunk, and ``NestedHazard``'s
``cumulative``/``invert`` walked ``np.unique(seg)`` in Python per call.
This module compiles any :class:`~repro.reliability.hazard.CyclicIntensity`
into a **plan**: dense NumPy tables (breakpoints, rates, cumulative-hazard
and cumulative-mass arrays) built once per design point and memoized on
the existing content fingerprints.

Three layers:

* **Compiled intensities** — :class:`CompiledPiecewise` and
  :class:`CompiledNested` replicate the exact floating-point arithmetic
  of their :mod:`~repro.reliability.hazard` counterparts (same search
  results, same guard arithmetic, same clips) while dropping the
  per-call Python overhead (object traversal, ``np.unique``,
  re-validation of static tables). Same inputs, same bits. Two
  shortcuts keep the bits: long tables find each key's segment through
  a guide table checked against the binary search's own definition
  (:meth:`CompiledPiecewise._search`), and the rarely taken period
  guards correct only the keys they select, in place.
* **Sampling plans** — :class:`SamplingPlan` bundles a compiled
  intensity with the component wire forms (for the arrival sampler,
  which needs the full model) under the owning model's content
  fingerprint, and serializes losslessly via :meth:`SamplingPlan.to_dict`
  (``repro.plan/v1``).
* **Kernel backends** — :func:`get_backend` resolves
  ``MonteCarloConfig.kernel`` to an execution backend. ``"numpy"``
  (default) is bit-identical to the legacy sampler; ``"legacy"`` is
  handled by the callers (``repro.core.montecarlo`` and the batch
  engine route around plans entirely) and exists so benchmarks can
  measure the old path.

The **worker-side hydration cache** (:func:`run_plan_chunks`) lets the
batch engine ship a plan to a process pool *once*: tasks carry only the
fingerprint after the first send, workers keep hydrated plans in a
process-global table, and an unknown fingerprint returns a ``"miss"``
the parent answers by resubmitting with the plan attached. Batched
tasks return ``(chunk_index, SampleMoments)`` pairs so the parent's
:class:`~repro.core.montecarlo.MomentAccumulator` still folds every
chunk in strict index order — the determinism invariants of the
scheduler stack (workers=1 vs N, thread vs process, shards, ledger
replay) are untouched; see docs/SCHEDULER.md.

The kernel choice is deliberately **not** part of
:func:`repro.methods.cache.mc_token` or the job wire forms: backends
produce bit-identical estimates, so all of them share one cache entry
and one request fingerprint.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigurationError, EstimationError, ProfileError
from ..reliability.hazard import (
    _REL_TOL,
    CyclicIntensity,
    NestedHazard,
    PiecewiseHazard,
)
from .system import Component, SystemModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .montecarlo import MonteCarloConfig, SampleMoments

#: Schema tag embedded in every serialized sampling plan.
PLAN_SCHEMA = "repro.plan/v1"

#: Recognised values of ``MonteCarloConfig.kernel``.
KERNELS = ("numpy", "legacy")

_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal

#: Tables at least this long search through a guide (``_search``).
_GUIDE_MIN_ENTRIES = 16

#: Upward steps from a guide entry before a key takes the full search.
_GUIDE_STEPS = 3


# ---------------------------------------------------------------------------
# Compiled intensities.
# ---------------------------------------------------------------------------


def _wrap(u: np.ndarray, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Whole periods ``k`` and remainder in ``[smallest subnormal, mass]``.

    Rounding can leave a remainder at or below 0 or above ``mass``;
    those rare keys move by one period in place, with the same
    operations as the hazard objects' guards, so the bits match theirs.
    """
    k = np.floor(u / mass)
    rem = u - k * mass
    under = rem <= 0.0
    if under.any():
        k[under] -= 1
        rem[under] += mass
    over = rem > mass
    if over.any():
        k[over] += 1
        rem[over] -= mass
    np.clip(rem, _SMALLEST_SUBNORMAL, mass, out=rem)
    return k, rem


class CompiledPiecewise:
    """Dense-table replica of :class:`PiecewiseHazard`.

    Holds exactly the arrays the hazard object derives at construction —
    breakpoints, per-segment rates, and the cumulative-hazard table —
    and evaluates ``cumulative``/``invert`` with the *identical*
    floating-point operation sequence, so every sample drawn through a
    plan matches the legacy sampler bit for bit.
    """

    __slots__ = ("bp", "rates", "cum", "period", "mass", "_guide", "_scale")

    kind = "piecewise"

    def __init__(
        self, bp: np.ndarray, rates: np.ndarray, cum: np.ndarray
    ) -> None:
        self.bp = np.ascontiguousarray(bp, dtype=float)
        self.rates = np.ascontiguousarray(rates, dtype=float)
        self.cum = np.ascontiguousarray(cum, dtype=float)
        if self.bp.size != self.rates.size + 1 or (
            self.cum.size != self.bp.size
        ):
            raise ConfigurationError(
                "compiled piecewise tables are inconsistent: "
                f"{self.bp.size} breakpoints, {self.rates.size} rates, "
                f"{self.cum.size} cumulative entries"
            )
        self.period = float(self.bp[-1])
        self.mass = float(self.cum[-1])
        self._guide = None
        self._scale = 0.0
        if (
            self.cum.size >= _GUIDE_MIN_ENTRIES
            and self.mass > 0
            and np.all(self.cum[1:] >= self.cum[:-1])
        ):
            bins = 2 * self.cum.size
            self._scale = bins / self.mass
            guide = np.searchsorted(
                self.cum, np.arange(bins) / self._scale, side="left"
            )
            # Capped so the upward steps never index past the table.
            top = self.cum.size - 1 - _GUIDE_STEPS
            self._guide = np.minimum(guide, top).astype(np.int32)

    def __getstate__(self) -> tuple:
        # The guide is derived from ``cum``: rebuilt on arrival, never sent.
        return (self.bp, self.rates, self.cum)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    @classmethod
    def from_hazard(cls, hazard: PiecewiseHazard) -> "CompiledPiecewise":
        return cls(
            hazard.breakpoints,
            hazard.rates,
            hazard._cum,  # noqa: SLF001 - module-internal compilation
        )

    def cumulative(self, tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if np.any((tau < 0) | (tau > self.period * (1 + _REL_TOL))):
            raise ProfileError("tau outside [0, period]")
        tau = np.clip(tau, 0.0, self.period)
        idx = np.clip(
            np.searchsorted(self.bp, tau, side="right") - 1,
            0,
            self.rates.size - 1,
        )
        return self.cum[idx] + self.rates[idx] * (tau - self.bp[idx])

    def invert(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0) | (u > self.mass * (1 + _REL_TOL))):
            raise ProfileError("u outside (0, mass]")
        scalar = u.ndim == 0
        u = np.minimum(np.atleast_1d(u), self.mass)
        idx = self._search(u)
        idx -= 1
        np.clip(idx, 0, self.rates.size - 1, out=idx)
        rate = self.rates[idx]
        frac = u - self.cum[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac /= rate
        frac[~(rate > 0)] = 0.0
        out = np.add(self.bp[idx], frac, out=frac)
        np.minimum(out, self.period, out=out)
        return out[0] if scalar else out

    def _search(self, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self.cum, u, side="left")``, through the guide.

        Bin ``b`` of the guide holds the search result for the key
        ``b / scale``, a lower bound for the keys that fall in it; a few
        upward steps usually reach the answer. Every key is then checked
        against the definition of the left-side search,
        ``cum[i] >= u and cum[i - 1] < u``, and those that fail (NaN,
        keys beyond ``mass``, crowded bins, ``i == 0`` where ``cum[-1]``
        wraps to ``mass``) are searched in full: the result is the
        binary search's, exactly, for every key.
        """
        if self._guide is None:
            return np.searchsorted(self.cum, u, side="left")
        cum = self.cum
        scaled = u * self._scale
        np.fmax(scaled, 0.0, out=scaled)  # NaN lands in bin 0.
        np.fmin(scaled, self._guide.size - 1, out=scaled)
        i = self._guide[scaled.astype(np.intp)].astype(np.intp)
        for _ in range(_GUIDE_STEPS):
            i += cum[i] < u
        miss = ~((cum[i] >= u) & (cum[i - 1] < u))
        if miss.any():
            i[miss] = np.searchsorted(cum, u[miss], side="left")
        return i

    def to_dict(self) -> dict:
        return {
            "type": "piecewise",
            "breakpoints": self.bp.tolist(),
            "rates": self.rates.tolist(),
            "cum": self.cum.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompiledPiecewise":
        try:
            compiled = cls(
                np.asarray(data["breakpoints"], dtype=float),
                np.asarray(data["rates"], dtype=float),
                np.asarray(data["cum"], dtype=float),
            )
        except KeyError as missing:
            raise ConfigurationError(
                f"piecewise plan wire form is missing {missing}"
            ) from None
        compiled._check()
        return compiled

    def _check(self) -> None:
        """Reject tables :class:`PiecewiseHazard` could not have built.

        A wire form comes from elsewhere; a negative rate or a ``cum``
        that is not the running integral of the rates would sample wrong
        times without any error. ``cum`` is compared bit for bit with
        the hazard's own construction, so no tolerance is involved.
        """
        bp, rates = self.bp, self.rates
        if not (
            bp.ndim == 1
            and bp.size >= 2
            and np.all(np.isfinite(bp))
            and bp[0] == 0.0
            and np.all(np.diff(bp) > 0)
        ):
            raise ConfigurationError(
                "piecewise plan breakpoints must be finite, start at 0 "
                "and strictly increase"
            )
        if not (np.all(np.isfinite(rates)) and np.all(rates >= 0)):
            raise ConfigurationError(
                "piecewise plan rates must be finite and non-negative"
            )
        cum = np.concatenate(([0.0], np.cumsum(rates * np.diff(bp))))
        if cum.tobytes() != self.cum.tobytes():
            raise ConfigurationError(
                "piecewise plan cum is not the running integral of its rates"
            )


class CompiledNested:
    """Dense-table replica of :class:`NestedHazard`.

    Outer tables (segment starts, durations, cumulative mass) plus one
    :class:`CompiledPiecewise` per outer segment. ``cumulative`` and
    ``invert`` reproduce the hazard object's grouped evaluation, with
    one deliberate pass-reduction: segment membership is counted with
    ``np.bincount`` instead of sorting the whole index array through
    ``np.unique`` per call. Iteration stays in ascending segment order
    and the per-element arithmetic is unchanged, so the outputs are
    bit-identical.
    """

    __slots__ = ("starts", "durations", "cum_mass", "inners", "period", "mass")

    kind = "nested"

    def __init__(
        self,
        starts: np.ndarray,
        durations: np.ndarray,
        cum_mass: np.ndarray,
        inners: Sequence[CompiledPiecewise],
    ) -> None:
        self.starts = np.ascontiguousarray(starts, dtype=float)
        self.durations = np.ascontiguousarray(durations, dtype=float)
        self.cum_mass = np.ascontiguousarray(cum_mass, dtype=float)
        self.inners = tuple(inners)
        if (
            self.starts.size != len(self.inners) + 1
            or self.durations.size != len(self.inners)
            or self.cum_mass.size != len(self.inners) + 1
        ):
            raise ConfigurationError(
                "compiled nested tables are inconsistent: "
                f"{len(self.inners)} segments, {self.starts.size} starts, "
                f"{self.cum_mass.size} cumulative-mass entries"
            )
        self.period = float(self.starts[-1])
        self.mass = float(self.cum_mass[-1])

    @classmethod
    def from_hazard(cls, hazard: NestedHazard) -> "CompiledNested":
        return cls(
            hazard._starts,  # noqa: SLF001 - module-internal compilation
            np.asarray(hazard._durations, dtype=float),  # noqa: SLF001
            hazard._cum_mass,  # noqa: SLF001
            [
                CompiledPiecewise.from_hazard(inner)
                for inner in hazard._inners  # noqa: SLF001
            ],
        )

    @property
    def segment_count(self) -> int:
        return len(self.inners)

    def cumulative(self, tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        scalar = tau.ndim == 0
        tau = np.atleast_1d(tau)
        if np.any((tau < 0) | (tau > self.period * (1 + _REL_TOL))):
            raise ProfileError("tau outside [0, period]")
        tau = np.clip(tau, 0.0, self.period)
        seg = np.clip(
            np.searchsorted(self.starts, tau, side="right") - 1,
            0,
            self.segment_count - 1,
        )
        counts = np.bincount(seg, minlength=self.segment_count)
        out = np.empty_like(tau)
        for j in range(self.segment_count):
            if counts[j] == 0:
                continue
            sel = seg == j
            local = tau[sel] - self.starts[j]
            inner = self.inners[j]
            k = np.floor(local / inner.period)
            rem = np.clip(local - k * inner.period, 0.0, inner.period)
            out[sel] = (
                self.cum_mass[j] + k * inner.mass + inner.cumulative(rem)
            )
        return out[0] if scalar else out

    def invert(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if np.any((u <= 0) | (u > self.mass * (1 + _REL_TOL))):
            raise ProfileError("u outside (0, mass]")
        u = np.minimum(u, self.mass)
        seg = np.clip(
            np.searchsorted(self.cum_mass, u, side="left") - 1,
            0,
            self.segment_count - 1,
        )
        counts = np.bincount(seg, minlength=self.segment_count)
        out = np.empty_like(u)
        for j in range(self.segment_count):
            if counts[j] == 0:
                continue
            sel = seg == j
            inner = self.inners[j]
            rem = u[sel] - self.cum_mass[j]
            if inner.mass <= 0:
                out[sel] = self.starts[j]
                continue
            k, inner_rem = _wrap(rem, inner.mass)
            k *= inner.period
            k += self.starts[j]
            k += inner.invert(inner_rem)
            out[sel] = k
        out = np.minimum(out, self.period)
        return out[0] if scalar else out

    def to_dict(self) -> dict:
        return {
            "type": "nested",
            "starts": self.starts.tolist(),
            "durations": self.durations.tolist(),
            "cum_mass": self.cum_mass.tolist(),
            "inners": [inner.to_dict() for inner in self.inners],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompiledNested":
        try:
            compiled = cls(
                np.asarray(data["starts"], dtype=float),
                np.asarray(data["durations"], dtype=float),
                np.asarray(data["cum_mass"], dtype=float),
                [
                    CompiledPiecewise.from_dict(inner)
                    for inner in data["inners"]
                ],
            )
        except KeyError as missing:
            raise ConfigurationError(
                f"nested plan wire form is missing {missing}"
            ) from None
        compiled._check()
        return compiled

    def _check(self) -> None:
        """Reject outer tables :class:`NestedHazard` could not have built.

        ``starts`` and ``cum_mass`` must be bit-equal to what the hazard
        derives from the durations and the (already checked) inners.
        """
        durations = self.durations
        if not (
            durations.ndim == 1
            and durations.size >= 1
            and np.all(np.isfinite(durations))
            and np.all(durations > 0)
        ):
            raise ConfigurationError(
                "nested plan durations must be finite and positive"
            )
        starts = np.concatenate(([0.0], np.cumsum(durations)))
        if starts.tobytes() != self.starts.tobytes():
            raise ConfigurationError(
                "nested plan starts are not the running sum of its durations"
            )
        seg_mass = np.asarray(
            [
                NestedHazard._segment_mass(inner, duration)  # noqa: SLF001
                for inner, duration in zip(self.inners, durations.tolist())
            ]
        )
        cum_mass = np.concatenate(([0.0], np.cumsum(seg_mass)))
        if cum_mass.tobytes() != self.cum_mass.tobytes():
            raise ConfigurationError(
                "nested plan cum_mass is not the running mass of its inners"
            )


#: A compiled intensity of either shape.
CompiledIntensity = CompiledPiecewise | CompiledNested


def compile_intensity(intensity: CyclicIntensity) -> CompiledIntensity:
    """Flatten a cyclic intensity into its dense-table plan form."""
    if isinstance(intensity, PiecewiseHazard):
        return CompiledPiecewise.from_hazard(intensity)
    if isinstance(intensity, NestedHazard):
        return CompiledNested.from_hazard(intensity)
    raise ConfigurationError(
        f"cannot compile intensity of type {type(intensity).__name__}"
    )


def _intensity_from_dict(data: dict) -> CompiledIntensity:
    kind = data.get("type")
    if kind == "piecewise":
        return CompiledPiecewise.from_dict(data)
    if kind == "nested":
        return CompiledNested.from_dict(data)
    raise ConfigurationError(
        f"unknown compiled-intensity type {kind!r}"
    )


# ---------------------------------------------------------------------------
# Extended (cyclic) evaluation — replicas of CyclicIntensity's helpers.
# ---------------------------------------------------------------------------


def _cumulative_extended(
    intensity: CompiledIntensity, t: np.ndarray
) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ProfileError("time must be non-negative")
    k = np.floor(t / intensity.period)
    rem = t - k * intensity.period
    rem = np.clip(rem, 0.0, intensity.period)
    return k * intensity.mass + intensity.cumulative(rem)


def _invert_extended(
    intensity: CompiledIntensity, u: np.ndarray
) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ProfileError("hazard target must be positive")
    if intensity.mass <= 0:
        return np.full_like(u, np.inf)
    k, rem = _wrap(u, intensity.mass)
    k *= intensity.period
    k += intensity.invert(rem)
    return k


# ---------------------------------------------------------------------------
# Kernel backends.
# ---------------------------------------------------------------------------


class NumpyKernel:
    """Default backend: the compiled tables through NumPy ufuncs.

    Bit-identical to the legacy object-based sampler for every
    (method, start_phase, chunking, stopping-rule) configuration — the
    property-test suite in ``tests/test_kernel.py`` enforces this.
    """

    name = "numpy"

    def inverse_ttf(
        self,
        intensity: CompiledIntensity,
        config: "MonteCarloConfig",
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Inverse-hazard sampling against a compiled plan.

        Replicates ``montecarlo._inverse_samples`` — same draw order,
        same start-phase convention, same extended-inversion guards.
        """
        if intensity.mass <= 0:
            return np.full(config.trials, np.inf)
        e = rng.exponential(size=config.trials)
        if config.start_phase == "zero":
            return _invert_extended(intensity, e)
        offsets = rng.uniform(0.0, intensity.period, size=config.trials)
        accrued = _cumulative_extended(intensity, offsets)
        return _invert_extended(intensity, e + accrued) - offsets


_BACKENDS = {"numpy": NumpyKernel()}


def available_kernels() -> tuple[str, ...]:
    """The kernel names this interpreter can execute: all of them."""
    return KERNELS


def get_backend(name: str) -> NumpyKernel:
    """Resolve a kernel name to its execution backend.

    ``"legacy"`` is not an executable backend — callers route around
    plans for it — so requesting it here is a programming error.
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise EstimationError(
            f"unknown kernel {name!r}; choose from {KERNELS}"
        )
    return backend


# ---------------------------------------------------------------------------
# Sampling plans.
# ---------------------------------------------------------------------------


class SamplingPlan:
    """Everything a worker needs to draw one target's TTF samples.

    ``kind`` is ``"system"`` (inverse draws use the superposed
    intensity; arrival draws rebuild the full :class:`SystemModel`) or
    ``"component"`` (one instance: inverse draws use the component's own
    intensity). ``components`` are the lossless component wire dicts —
    they make the plan self-contained: the arrival sampler, which needs
    ``profile.value_at``, reconstructs the model once per process and
    caches it on the plan.
    """

    __slots__ = ("kind", "fingerprint", "intensity", "components", "_model")

    def __init__(
        self,
        kind: str,
        fingerprint: str,
        intensity: CompiledIntensity,
        components: Sequence[dict],
    ) -> None:
        if kind not in ("system", "component"):
            raise ConfigurationError(f"unknown plan kind {kind!r}")
        self.kind = kind
        self.fingerprint = fingerprint
        self.intensity = intensity
        self.components = tuple(components)
        self._model: SystemModel | Component | None = None

    def __getstate__(self) -> dict:
        # The rebuilt model is a per-process cache, never shipped.
        return {
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "intensity": self.intensity,
            "components": self.components,
        }

    def __setstate__(self, state: dict) -> None:
        self.kind = state["kind"]
        self.fingerprint = state["fingerprint"]
        self.intensity = state["intensity"]
        self.components = state["components"]
        self._model = None

    @property
    def cache_key(self) -> str:
        """Hydration-cache key: fingerprints are namespaced by kind."""
        return f"{self.kind}:{self.fingerprint}"

    def model(self) -> SystemModel | Component:
        """The original model, rebuilt (once) from the wire forms."""
        if self._model is None:
            components = [
                Component.from_dict(data) for data in self.components
            ]
            self._model = (
                SystemModel(components)
                if self.kind == "system"
                else components[0]
            )
        return self._model

    def sample_ttf(self, config: "MonteCarloConfig") -> np.ndarray:
        """Draw ``config.trials`` i.i.d. TTF samples against this plan.

        Bit-identical to ``sample_system_ttf``/``sample_component_ttf``
        on the original model: the RNG is constructed from the same
        seed, the inverse path replicates the legacy arithmetic, and
        the arrival path *is* the legacy sampler run on the rebuilt
        (fingerprint-identical) model.
        """
        from . import montecarlo as mc

        rng = np.random.default_rng(config.seed)
        if config.method == "inverse":
            backend = get_backend(
                config.kernel if config.kernel != "legacy" else "numpy"
            )
            return backend.inverse_ttf(self.intensity, config, rng)
        model = self.model()
        if self.kind == "system":
            return mc._arrival_system_ttf(  # noqa: SLF001
                model, config.trials, rng, config
            )
        return mc._arrival_component_ttf(  # noqa: SLF001
            model, config.trials, rng, config
        )

    def chunk_moments(self, config: "MonteCarloConfig") -> "SampleMoments":
        """One chunk's sufficient statistics (see ``moments_from_samples``)."""
        from .montecarlo import moments_from_samples

        return moments_from_samples(self.sample_ttf(config))

    def to_dict(self) -> dict:
        """Lossless plain-dict wire form (inverse of :meth:`from_dict`)."""
        return {
            "schema": PLAN_SCHEMA,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "intensity": self.intensity.to_dict(),
            "components": [dict(c) for c in self.components],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SamplingPlan":
        """Rebuild a plan from its :meth:`to_dict` form."""
        if data.get("schema") != PLAN_SCHEMA:
            raise ConfigurationError(
                f"not a {PLAN_SCHEMA} document "
                f"(schema={data.get('schema')!r})"
            )
        try:
            return cls(
                kind=str(data["kind"]),
                fingerprint=str(data["fingerprint"]),
                intensity=_intensity_from_dict(data["intensity"]),
                components=[dict(c) for c in data["components"]],
            )
        except KeyError as missing:
            raise ConfigurationError(
                f"plan wire form is missing {missing}"
            ) from None


# ---------------------------------------------------------------------------
# Fingerprint-keyed plan cache (parent-side build, worker-side hydration).
# ---------------------------------------------------------------------------

#: One process-global table serves both roles: the parent memoizes plans
#: it compiles, and pool workers store plans shipped to them. With the
#: ``fork`` start method children inherit the parent's hot entries for
#: free; with ``spawn`` the miss protocol of :func:`run_plan_chunks`
#: hydrates them on first use.
_PLANS: dict[str, SamplingPlan] = {}
_PLANS_LOCK = threading.Lock()
_PLANS_CAP = 256


def _remember(plan: SamplingPlan) -> SamplingPlan:
    with _PLANS_LOCK:
        existing = _PLANS.get(plan.cache_key)
        if existing is not None:
            return existing
        while len(_PLANS) >= _PLANS_CAP:
            _PLANS.pop(next(iter(_PLANS)))
        _PLANS[plan.cache_key] = plan
    return plan


def plan_for_system(system: SystemModel) -> SamplingPlan:
    """The (memoized) sampling plan of a series system."""
    key = f"system:{system.content_fingerprint}"
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
    if plan is not None:
        return plan
    return _remember(
        SamplingPlan(
            kind="system",
            fingerprint=system.content_fingerprint,
            intensity=compile_intensity(system.combined_intensity()),
            components=[c.to_dict() for c in system.components],
        )
    )


def plan_for_component(component: Component) -> SamplingPlan:
    """The (memoized) sampling plan of a single component instance."""
    key = f"component:{component.content_fingerprint}"
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
    if plan is not None:
        return plan
    return _remember(
        SamplingPlan(
            kind="component",
            fingerprint=component.content_fingerprint,
            intensity=compile_intensity(component.intensity),
            components=[component.to_dict()],
        )
    )


def clear_plan_cache() -> None:
    """Drop every cached plan (test isolation helper)."""
    with _PLANS_LOCK:
        _PLANS.clear()


#: First element of a :func:`run_plan_chunks` result whose worker did
#: not hold the plan: the parent must resubmit with the plan attached.
PLAN_MISS = "miss"

#: First element of a successful :func:`run_plan_chunks` result.
PLAN_OK = "ok"


def run_plan_chunks(
    cache_key: str,
    plan: SamplingPlan | None,
    jobs: Sequence[tuple[int, "MonteCarloConfig"]],
):
    """Run a batch of chunk tasks against one plan (pool-safe top level).

    ``jobs`` are ``(chunk_index, chunk_config)`` pairs. Returns
    ``(PLAN_OK, [(chunk_index, SampleMoments), ...])`` — the parent
    folds each pair into its :class:`MomentAccumulator`, which orders
    the folds by chunk index regardless of batching — or
    ``(PLAN_MISS, cache_key)`` when ``plan`` is ``None`` and this
    worker has not been hydrated yet (fresh process, evicted entry):
    the parent resubmits the same jobs with the plan attached. Shipping
    the plan instead of the model, and only on first use, is what
    makes paper-scale chunk fan-out cheap: steady-state tasks carry a
    64-byte key and a few chunk configs.
    """
    if plan is not None:
        plan = _remember(plan)
    else:
        with _PLANS_LOCK:
            plan = _PLANS.get(cache_key)
        if plan is None:
            return (PLAN_MISS, cache_key)
    return (
        PLAN_OK,
        [(index, plan.chunk_moments(config)) for index, config in jobs],
    )
