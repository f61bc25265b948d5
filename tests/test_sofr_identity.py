"""Bit-identity gate for the SOFR composers.

The SOFR step, ``MTTF_sys = 1 / sum_i 1/MTTF_i``, is summed over every
component *instance*: a component of multiplicity C contributes C equal
reciprocals, added one at a time in instance order. The values below were
taken from the per-instance loop that expanded every multiplicity into a
list of C copies; any rewrite of the summation must reproduce them
exactly, as ``float.hex``, for the three composers that use it:

* ``avf_sofr`` (:func:`~repro.core.sofr.avf_sofr_mttf`),
* ``sofr_only`` with a Monte-Carlo reference at a small fixed trial count
  (:func:`~repro.core.sofr.sofr_mttf_from_components`),
* ``hybrid`` (:func:`~repro.core.hybrid.hybrid_system_mttf`; its SAFE
  branch composes with SOFR, the others are pinned as they stand).

Two system shapes cover one and several runs of equal MTTFs: fig6b's
processor-level cluster (one component, multiplicity C, dilated SPEC
profile) and the four-unit SPEC uniprocessor with every unit replicated
C times. SPEC profiles come from a short 4k-instruction window so the
gate stays fast.

The second half keeps the per-instance loop as an oracle and compares it
with the library on generated inputs: infinities, NaN, subnormal values,
Python ints (huge ones too), and zero or negative multiplicities. Values,
raised exception types and messages must match, and no ``RuntimeWarning``
may escape the library.

To print the table for the current code (only ever needed if the SOFR
step itself is meant to change)::

    PYTHONPATH=src python tests/test_sofr_identity.py
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Component, MonteCarloConfig, SystemModel
from repro.core.hybrid import hybrid_system_mttf
from repro.core.sofr import (
    avf_sofr_mttf,
    sofr_mttf_from_components,
    sofr_mttf_from_values,
)
from repro.errors import ConfigurationError, ReproError
from repro.harness.experiments import REPRESENTATIVE_SPEC
from repro.harness.spec_setup import processor_profile, spec_uniprocessor_system
from repro.methods import registry
from repro.methods.base import MethodConfig
from repro.reliability.metrics import MTTFEstimate
from repro.reliability.series import sofr_mttf
from repro.ser.rates import component_rate_per_second

WINDOW = 4_000
NXS = (1e8, 1e9)
COUNTS = (1, 2, 8, 5000, 50000, 500000)
MC = MonteCarloConfig(trials=1_024, seed=16)

#: ``{(shape, benchmark, N x S, C): (avf_sofr, sofr_only, hybrid)}`` as
#: ``float.hex``; the uniprocessor uses the paper's unit rates (no N x S).
PINNED = {
    ('cluster', 'gzip', 100000000.0, 1): ('0x1.3d93cdd8f3a41p+29', '0x1.491b6b7d30f48p+29', '0x1.3d93cdd8f3a41p+29'),
    ('cluster', 'gzip', 100000000.0, 2): ('0x1.3d93cdd8f3a41p+28', '0x1.491b6b7d30f48p+28', '0x1.3d93cdd8f3a41p+28'),
    ('cluster', 'gzip', 100000000.0, 8): ('0x1.3d93cdd8f3a40p+26', '0x1.491b6b7d30f48p+26', '0x1.3d93cdd8f3a40p+26'),
    ('cluster', 'gzip', 100000000.0, 5000): ('0x1.0428ccaccfcfdp+17', '0x1.0d9ac35ec631dp+17', '0x1.0428ccaccfcfdp+17'),
    ('cluster', 'gzip', 100000000.0, 50000): ('0x1.a041477ae61a2p+13', '0x1.af5e05647213bp+13', '0x1.a041477ae61a2p+13'),
    ('cluster', 'gzip', 100000000.0, 500000): ('0x1.4d0105fbd93abp+10', '0x1.5918045062e11p+10', '0x1.4d0105fbd93abp+10'),
    ('cluster', 'gzip', 1000000000.0, 1): ('0x1.fc1fafc185d33p+25', '0x1.074922cb5b2fep+26', '0x1.fc1fafc185d33p+25'),
    ('cluster', 'gzip', 1000000000.0, 2): ('0x1.fc1fafc185d33p+24', '0x1.074922cb5b2fep+25', '0x1.fc1fafc185d33p+24'),
    ('cluster', 'gzip', 1000000000.0, 8): ('0x1.fc1fafc185d33p+22', '0x1.074922cb5b2ffp+23', '0x1.fc1fafc185d33p+22'),
    ('cluster', 'gzip', 1000000000.0, 5000): ('0x1.a041477ae6185p+13', '0x1.af5e0565c14e0p+13', '0x1.a041477ae6185p+13'),
    ('cluster', 'gzip', 1000000000.0, 50000): ('0x1.4d0105fbeb481p+10', '0x1.5918045166d73p+10', '0x1.4d0105fbeb481p+10'),
    ('cluster', 'gzip', 1000000000.0, 500000): ('0x1.0a6737fcb1693p+7', '0x1.141336a79049fp+7', '0x1.0a6e355718195p+7'),
    ('cluster', 'mcf', 100000000.0, 1): ('0x1.702efe4e6e9d8p+30', '0x1.7d8cf397156e8p+30', '0x1.702efe4e6e9d8p+30'),
    ('cluster', 'mcf', 100000000.0, 2): ('0x1.702efe4e6e9d8p+29', '0x1.7d8cf397156e8p+29', '0x1.702efe4e6e9d8p+29'),
    ('cluster', 'mcf', 100000000.0, 8): ('0x1.702efe4e6e9d8p+27', '0x1.7d8cf397156e9p+27', '0x1.702efe4e6e9d8p+27'),
    ('cluster', 'mcf', 100000000.0, 5000): ('0x1.2d9db0c9e079bp+18', '0x1.3890f56c9cb97p+18', '0x1.2d9db0c9e079bp+18'),
    ('cluster', 'mcf', 100000000.0, 50000): ('0x1.e295e7a969560p+14', '0x1.f41b2247629f2p+14', '0x1.e295e7a969560p+14'),
    ('cluster', 'mcf', 100000000.0, 500000): ('0x1.8211862120177p+11', '0x1.9015b505f23ccp+11', '0x1.8211862120177p+11'),
    ('cluster', 'mcf', 1000000000.0, 1): ('0x1.268bfea5254adp+27', '0x1.313d8fac388ccp+27', '0x1.268bfea5254adp+27'),
    ('cluster', 'mcf', 1000000000.0, 2): ('0x1.268bfea5254adp+26', '0x1.313d8fac388ccp+26', '0x1.268bfea5254adp+26'),
    ('cluster', 'mcf', 1000000000.0, 8): ('0x1.268bfea5254acp+24', '0x1.313d8fac388cdp+24', '0x1.268bfea5254acp+24'),
    ('cluster', 'mcf', 1000000000.0, 5000): ('0x1.e295e7a96734ep+14', '0x1.f41b2247a1bf3p+14', '0x1.e295e7a96734ep+14'),
    ('cluster', 'mcf', 1000000000.0, 50000): ('0x1.8211862120cfdp+11', '0x1.9015b5061c7bep+11', '0x1.8211862120cfdp+11'),
    ('cluster', 'mcf', 1000000000.0, 500000): ('0x1.34dad1b40f77cp+8', '0x1.40115d9e7362dp+8', '0x1.34dc2c3bacff7p+8'),
    ('cluster', 'swim', 100000000.0, 1): ('0x1.ec2580fe65665p+26', '0x1.fe0397ff004b7p+26', '0x1.ec2580fe65665p+26'),
    ('cluster', 'swim', 100000000.0, 2): ('0x1.ec2580fe65665p+25', '0x1.fe0397ff004b7p+25', '0x1.ec2580fe65665p+25'),
    ('cluster', 'swim', 100000000.0, 8): ('0x1.ec2580fe65665p+23', '0x1.fe0397ff004b7p+23', '0x1.ec2580fe65665p+23'),
    ('cluster', 'swim', 100000000.0, 5000): ('0x1.932a9a0124a0cp+14', '0x1.a1cdb22c3cc90p+14', '0x1.932a9a0124a0cp+14'),
    ('cluster', 'swim', 100000000.0, 50000): ('0x1.42887b341edfdp+11', '0x1.4e3e282364f2bp+11', '0x1.42887b341edfdp+11'),
    ('cluster', 'swim', 100000000.0, 500000): ('0x1.0206c8f6740bfp+8', '0x1.0b64ece928368p+8', '0x1.0206c8f6740bfp+8'),
    ('cluster', 'swim', 1000000000.0, 1): ('0x1.89b79a651deb7p+23', '0x1.9802e001dea10p+23', '0x1.89b79a651deb7p+23'),
    ('cluster', 'swim', 1000000000.0, 2): ('0x1.89b79a651deb7p+22', '0x1.9802e001dea10p+22', '0x1.89b79a651deb7p+22'),
    ('cluster', 'swim', 1000000000.0, 8): ('0x1.89b79a651deb6p+20', '0x1.9802e001dea0ep+20', '0x1.89b79a651deb6p+20'),
    ('cluster', 'swim', 1000000000.0, 5000): ('0x1.42887b341d75cp+11', '0x1.4e3e28259364ep+11', '0x1.42887b341d75cp+11'),
    ('cluster', 'swim', 1000000000.0, 50000): ('0x1.0206c8f67cf96p+8', '0x1.0b64eceadc410p+8', '0x1.0206c8f67cf96p+8'),
    ('cluster', 'swim', 1000000000.0, 500000): ('0x1.9cd7a7f0bf948p+4', '0x1.abd4ae44a517bp+4', '0x1.9cef90bd1b048p+4'),
    ('uniproc', 'gzip', None, 1): ('0x1.5f427d728c3bbp+42', '0x1.6c0327bcfe3fap+42', '0x1.5f427d728c3bbp+42'),
    ('uniproc', 'gzip', None, 2): ('0x1.5f427d728c3bap+41', '0x1.6c0327bcfe3f9p+41', '0x1.5f427d728c3bap+41'),
    ('uniproc', 'gzip', None, 8): ('0x1.5f427d728c3bbp+39', '0x1.6c0327bcfe3f9p+39', '0x1.5f427d728c3bbp+39'),
    ('uniproc', 'gzip', None, 5000): ('0x1.1fc080fb1fa60p+30', '0x1.2a32eae55eaafp+30', '0x1.1fc080fb1fa60p+30'),
    ('uniproc', 'gzip', None, 50000): ('0x1.cc6734c4ff3b0p+26', '0x1.dd1e44a232fdcp+26', '0x1.cc6734c4ff3b0p+26'),
    ('uniproc', 'gzip', None, 500000): ('0x1.7052909d9ae66p+23', '0x1.7db1d081ac86ep+23', '0x1.7052909d9ae66p+23'),
    ('uniproc', 'mcf', None, 1): ('0x1.bff8de005cafep+42', '0x1.d03c64b0313e7p+42', '0x1.bff8de005cafep+42'),
    ('uniproc', 'mcf', None, 2): ('0x1.bff8de005cb00p+41', '0x1.d03c64b0313e7p+41', '0x1.bff8de005cb00p+41'),
    ('uniproc', 'mcf', None, 8): ('0x1.bff8de005cafep+39', '0x1.d03c64b0313e7p+39', '0x1.bff8de005cafep+39'),
    ('uniproc', 'mcf', None, 5000): ('0x1.6efa90ffe2f6bp+30', '0x1.7c4d53b66dcfep+30', '0x1.6efa90ffe2f6bp+30'),
    ('uniproc', 'mcf', None, 50000): ('0x1.259540ccb55c5p+27', '0x1.303ddc91f23dcp+27', '0x1.259540ccb55c5p+27'),
    ('uniproc', 'mcf', None, 500000): ('0x1.d5bb9ae12c34cp+23', '0x1.e6c960e969017p+23', '0x1.d5bb9ae12c34cp+23'),
    ('uniproc', 'swim', None, 1): ('0x1.017be93954001p+41', '0x1.0ad5027418388p+41', '0x1.017be93954001p+41'),
    ('uniproc', 'swim', None, 2): ('0x1.017be93954000p+40', '0x1.0ad5027418388p+40', '0x1.017be93954000p+40'),
    ('uniproc', 'swim', None, 8): ('0x1.017be93954000p+38', '0x1.0ad5027418389p+38', '0x1.017be93954000p+38'),
    ('uniproc', 'swim', None, 5000): ('0x1.a5dca0ee1ad34p+28', '0x1.b52d7b36a1b65p+28', '0x1.a5dca0ee1ad34p+28'),
    ('uniproc', 'swim', None, 50000): ('0x1.517d4d8b49757p+25', '0x1.5dbdfc2bb4b18p+25', '0x1.517d4d8b49757p+25'),
    ('uniproc', 'swim', None, 500000): ('0x1.0dfdd7a2a8c7bp+22', '0x1.17cb30230b13bp+22', '0x1.0dfdd7a2a8c7bp+22'),
}


@functools.lru_cache(maxsize=None)
def _system(shape: str, benchmark: str, n_times_s, count: int) -> SystemModel:
    if shape == "cluster":
        rate = component_rate_per_second(n_times_s, 1.0)
        profile = processor_profile(
            benchmark, WINDOW, dilate_to_paper_window=True
        )
        return SystemModel(
            [Component(benchmark, rate, profile, multiplicity=count)]
        )
    base = spec_uniprocessor_system(benchmark, WINDOW)
    return SystemModel(
        [
            dataclasses.replace(c, multiplicity=count)
            for c in base.components
        ]
    )


def signature(shape: str, benchmark: str, n_times_s, count: int) -> tuple:
    system = _system(shape, benchmark, n_times_s, count)
    sofr_only = registry.get("sofr_only").estimate(
        system, MethodConfig(mc=MC)
    )
    return (
        float.hex(avf_sofr_mttf(system).mttf_seconds),
        float.hex(sofr_only.mttf_seconds),
        float.hex(hybrid_system_mttf(system).estimate.mttf_seconds),
    )


CASES = [
    ("cluster", benchmark, n_times_s, count)
    for benchmark in REPRESENTATIVE_SPEC
    for n_times_s in NXS
    for count in COUNTS
] + [
    ("uniproc", benchmark, None, count)
    for benchmark in REPRESENTATIVE_SPEC
    for count in COUNTS
]


@pytest.mark.parametrize("shape,workload,n_times_s,count", CASES)
def test_composers_match_pinned_bits(shape, workload, n_times_s, count):
    assert signature(shape, workload, n_times_s, count) == PINNED[
        (shape, workload, n_times_s, count)
    ]


# ---------------------------------------------------------------------------
# The per-instance loop, kept as the oracle.
# ---------------------------------------------------------------------------


def loop_sofr_mttf(component_mttfs) -> float:
    if not len(component_mttfs):
        raise ConfigurationError("need at least one component MTTF")
    total_rate = 0.0
    for m in component_mttfs:
        if m <= 0:
            raise ConfigurationError(f"MTTF must be positive, got {m}")
        if math.isinf(m):
            continue
        total_rate += 1.0 / m
    if total_rate == 0.0:
        return math.inf
    return 1.0 / total_rate


def loop_sofr_mttf_from_values(component_mttfs, multiplicities=None):
    if multiplicities is None:
        values = list(component_mttfs)
    else:
        values = []
        for mttf, mult in zip(component_mttfs, multiplicities, strict=True):
            values.extend([mttf] * mult)
    return MTTFEstimate(mttf_seconds=loop_sofr_mttf(values)).mttf_seconds


def loop_sofr_mttf_from_components(system, component_mttf):
    mttfs = []
    for comp in system.components:
        mttfs.extend([component_mttf(comp)] * comp.multiplicity)
    return MTTFEstimate(mttf_seconds=loop_sofr_mttf(mttfs)).mttf_seconds


def outcome(fn, *args, quiet: bool = False):
    """``("ok", float.hex)`` or ``("raise", type, message)``.

    With ``quiet`` every warning is silenced (the oracle's own arithmetic
    may warn on NumPy scalars); otherwise a ``RuntimeWarning`` is an error.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore" if quiet else "error", RuntimeWarning)
        try:
            value = fn(*args)
        except (ReproError, OverflowError, ValueError) as exc:
            return ("raise", type(exc), str(exc))
    assert type(value) is float
    return ("ok", float.hex(value))


_SPECIAL = st.sampled_from(
    [
        math.inf,
        -math.inf,
        math.nan,
        0.0,
        -0.0,
        5e-324,
        2.2250738585072014e-308,
        1.1125369292536007e-308,
        1.7976931348623157e308,
    ]
)

MTTFS = st.one_of(
    st.floats(min_value=1e-320, max_value=1e300),
    st.floats(allow_nan=True, allow_infinity=True),
    _SPECIAL,
    st.integers(min_value=-3, max_value=10**20),
    st.integers(min_value=-(10**400), max_value=10**400),
)

#: Mostly small counts; sometimes long enough to span several blocks.
MULTIPLICITIES = st.one_of(
    st.integers(min_value=-3, max_value=6),
    st.integers(min_value=65_000, max_value=140_000),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(MTTFS, max_size=12))
def test_sofr_mttf_matches_loop(values):
    assert outcome(sofr_mttf, values) == outcome(
        loop_sofr_mttf, values, quiet=True
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(MTTFS, MULTIPLICITIES), max_size=6))
def test_sofr_mttf_from_values_matches_loop(runs):
    values = [v for v, _ in runs]
    counts = [m for _, m in runs]
    assert outcome(
        lambda: sofr_mttf_from_values(values, counts).mttf_seconds
    ) == outcome(
        lambda: loop_sofr_mttf_from_values(values, counts), quiet=True
    )
    assert outcome(
        lambda: sofr_mttf_from_values(values).mttf_seconds
    ) == outcome(lambda: loop_sofr_mttf_from_values(values), quiet=True)


def test_sofr_mttf_from_values_length_mismatch_matches_loop():
    args = ([1.0, 2.0], [1])
    assert outcome(
        lambda: sofr_mttf_from_values(*args).mttf_seconds
    ) == outcome(lambda: loop_sofr_mttf_from_values(*args), quiet=True)


_PROFILE = processor_profile("gzip", WINDOW)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            MTTFS,
            st.one_of(
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=65_000, max_value=140_000),
            ),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_sofr_mttf_from_components_matches_loop(runs):
    system = SystemModel(
        [
            Component(f"c{i}", 1e-6, _PROFILE, multiplicity=count)
            for i, (_, count) in enumerate(runs)
        ]
    )
    by_name = {f"c{i}": value for i, (value, _) in enumerate(runs)}
    lookup = lambda comp: by_name[comp.name]
    assert outcome(
        lambda: sofr_mttf_from_components(system, lookup).mttf_seconds
    ) == outcome(
        lambda: loop_sofr_mttf_from_components(system, lookup), quiet=True
    )


if __name__ == "__main__":
    print("PINNED = {")
    for case in CASES:
        print(f"    {case!r}: {signature(*case)!r},")
    print("}")
