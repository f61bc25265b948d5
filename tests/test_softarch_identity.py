"""Bit-identity gate for the SoftArch fold over the Section-5.4 grid.

Section 5.4 scores SoftArch on every workload (day, week, combined and
the representative SPEC profiles) at every N x S and component count of
its grid. The values below were taken from the per-event implementation
of :mod:`repro.core.softarch`; any rewrite of the fold must reproduce
them exactly: the MTTF and the iteration failure probability as
``float.hex`` and the number of output events, for all 72 points.

SPEC profiles come from a short 4k-instruction window (dilated to the
paper's loop, as sec5.4 does) so the gate stays fast; the paper-scale
``ResultSet`` bytes are checked by the benchmark's digests. The fold's
transcendentals come from the platform libm (pinned with glibc 2.36).

To print the table for the current code (only ever needed if the
SoftArch model itself is meant to change)::

    PYTHONPATH=src python tests/test_softarch_identity.py
"""

from __future__ import annotations

import functools

import pytest

from repro.core import Component, SystemModel
from repro.core.softarch import softarch_mttf, timeline_from_intensity
from repro.harness.experiments import COMBINED_PAIR, REPRESENTATIVE_SPEC
from repro.harness.spec_setup import processor_profile
from repro.ser.rates import component_rate_per_second
from repro.workloads import combined_workload, day_workload, week_workload

WINDOW = 4_000
NXS = (1e8, 1e10, 1e12)
COUNTS = (1, 8, 5000, 50000)

#: ``{(workload, N x S, C): (mttf hex, q hex, event count)}``.
PINNED = {
    ('day', 100000000.0, 1): ('0x1.e10952773b9c9p+25', '0x1.66db03824bcd7p-10', 1),
    ('day', 100000000.0, 8): ('0x1.dfe29dced2c03p+22', '0x1.65240f5b9aaf0p-7', 1),
    ('day', 100000000.0, 5000): ('0x1.8d10c676454dep+12', '0x1.ff750a356f27bp-1', 1),
    ('day', 100000000.0, 50000): ('0x1.3b5c28f5c28f6p+9', '0x1.0000000000000p+0', 1),
    ('day', 10000000000.0, 1): ('0x1.29a99fe37b9d7p+19', '0x1.062e36267b984p-3', 1),
    ('day', 10000000000.0, 8): ('0x1.dd68dbe4766fdp+15', '0x1.54de402d48599p-1', 1),
    ('day', 10000000000.0, 5000): ('0x1.f89374bc6a7f0p+5', '0x1.0000000000000p+0', 1),
    ('day', 10000000000.0, 50000): ('0x1.93a92a3055326p+2', '0x1.0000000000000p+0', 1),
    ('day', 1000000000000.0, 1): ('0x1.8a34c0f8f27e4p+11', '0x1.ffffda490acf4p-1', 1),
    ('day', 1000000000000.0, 8): ('0x1.8a33333333333p+8', '0x1.0000000000000p+0', 1),
    ('day', 1000000000000.0, 5000): ('0x1.42edbb59ddc1fp-1', '0x1.0000000000000p+0', 1),
    ('day', 1000000000000.0, 50000): ('0x1.0257c914b167fp-4', '0x1.0000000000000p+0', 1),
    ('week', 100000000.0, 1): ('0x1.502ee2a13c712p+25', '0x1.bdd0f2d234d7ap-7', 1),
    ('week', 100000000.0, 8): ('0x1.4ba9e710cd84cp+22', '0x1.a927b64beea81p-4', 1),
    ('week', 100000000.0, 5000): ('0x1.8a33333333333p+12', '0x1.0000000000000p+0', 1),
    ('week', 100000000.0, 50000): ('0x1.3b5c28f5c28f6p+9', '0x1.0000000000000p+0', 1),
    ('week', 10000000000.0, 1): ('0x1.6d77dab82b1e0p+18', '0x1.7de1213912ba2p-1', 1),
    ('week', 10000000000.0, 8): ('0x1.33fe03ad5bff7p+15', '0x1.fffdb812c5f6dp-1', 1),
    ('week', 10000000000.0, 5000): ('0x1.f89374bc6a7efp+5', '0x1.0000000000000p+0', 1),
    ('week', 10000000000.0, 50000): ('0x1.93a92a3055326p+2', '0x1.0000000000000p+0', 1),
    ('week', 1000000000000.0, 1): ('0x1.8a33333333333p+11', '0x1.0000000000000p+0', 1),
    ('week', 1000000000000.0, 8): ('0x1.8a33333333333p+8', '0x1.0000000000000p+0', 1),
    ('week', 1000000000000.0, 5000): ('0x1.42edbb59ddc1fp-1', '0x1.0000000000000p+0', 1),
    ('week', 1000000000000.0, 50000): ('0x1.0257c914b167fp-4', '0x1.0000000000000p+0', 1),
    ('combined', 100000000.0, 1): ('0x1.9c44f2b6739d8p+27', '0x1.a30bcf541485bp-12', 1263),
    ('combined', 100000000.0, 8): ('0x1.9c78451d5eed8p+24', '0x1.a275e196cb9dfp-9', 1263),
    ('combined', 100000000.0, 5000): ('0x1.d66b8fd99e10ap+15', '0x1.ba9be593b33b3p-1', 1263),
    ('combined', 100000000.0, 50000): ('0x1.93271c2e5a61ap+13', '0x1.ffffffee0a0f0p-1', 1263),
    ('combined', 10000000000.0, 1): ('0x1.09a5ae4c5487ap+21', '0x1.40fcc264b4489p-5', 1263),
    ('combined', 10000000000.0, 8): ('0x1.1699d3e3eaf60p+18', '0x1.1840bd071aef6p-2', 1263),
    ('combined', 10000000000.0, 5000): ('0x1.4d0105fe35831p+10', '0x1.0000000000000p+0', 1263),
    ('combined', 10000000000.0, 50000): ('0x1.0a67380f0e795p+7', '0x1.0000000000000p+0', 1263),
    ('combined', 1000000000000.0, 1): ('0x1.30c14850a455cp+15', '0x1.f698714e7ba40p-1', 1263),
    ('combined', 1000000000000.0, 8): ('0x1.02fd53357738bp+13', '0x1.fffffffffff8bp-1', 1263),
    ('combined', 1000000000000.0, 5000): ('0x1.aa3ec11feb0bfp+3', '0x1.0000000000000p+0', 1263),
    ('combined', 1000000000000.0, 50000): ('0x1.54ff0924f5087p+0', '0x1.0000000000000p+0', 1263),
    ('gzip', 100000000.0, 1): ('0x1.3d93cdd90f96fp+29', '0x1.dc33a1942d282p-33', 991),
    ('gzip', 100000000.0, 8): ('0x1.3d93cdd9d34c9p+26', '0x1.dc33a18e1efc1p-30', 991),
    ('gzip', 100000000.0, 5000): ('0x1.0428ce6c1c5c1p+17', '0x1.22a6790f4a895p-20', 991),
    ('gzip', 100000000.0, 50000): ('0x1.a041636fb0aafp+13', '0x1.6b4fa3500c329p-17', 991),
    ('gzip', 10000000000.0, 1): ('0x1.967fbfdbff0d4p+22', '0x1.740855f8db455p-26', 991),
    ('gzip', 10000000000.0, 8): ('0x1.967fc03dd7ce5p+19', '0x1.7408541fc813cp-23', 991),
    ('gzip', 10000000000.0, 5000): ('0x1.4d01e5a2b3881p+10', '0x1.c61de20afed2fp-14', 991),
    ('gzip', 10000000000.0, 50000): ('0x1.0a6e355718181p+7', '0x1.1baf49670514ap-10', 991),
    ('gzip', 1000000000000.0, 1): ('0x1.0428d02b68f3cp+16', '0x1.22a66ebf5dd51p-19', 991),
    ('gzip', 1000000000000.0, 8): ('0x1.0428e8a19b564p+13', '0x1.22a5de609f328p-16', 991),
    ('gzip', 1000000000000.0, 5000): ('0x1.aaaeac27c8829p+3', '0x1.60e24eeae8695p-7', 991),
    ('gzip', 1000000000000.0, 50000): ('0x1.58854fb3d72cep+0', '0x1.a454bb8bbc889p-4', 991),
    ('mcf', 100000000.0, 1): ('0x1.702efe4e7404cp+30', '0x1.ca0aed2f33a9fp-33', 1011),
    ('mcf', 100000000.0, 8): ('0x1.702efe4e99edap+27', '0x1.ca0aed2999768p-30', 1011),
    ('mcf', 100000000.0, 5000): ('0x1.2d9db1207cd31p+18', '0x1.179121ba1e951p-20', 1011),
    ('mcf', 100000000.0, 50000): ('0x1.e295ed132c63fp+14', '0x1.5d74fed36c125p-17', 1011),
    ('mcf', 10000000000.0, 1): ('0x1.d746643e23be8p+23', '0x1.65d8890ef9bb1p-26', 1011),
    ('mcf', 10000000000.0, 8): ('0x1.d746645115ef3p+20', '0x1.65d887594acb8p-23', 1011),
    ('mcf', 10000000000.0, 5000): ('0x1.8211b16f88f30p+11', '0x1.b4cd00eabdfa5p-14', 1011),
    ('mcf', 10000000000.0, 50000): ('0x1.34dc2c3bacfefp+8', '0x1.10df625bade3dp-10', 1011),
    ('mcf', 1000000000000.0, 1): ('0x1.2d9db177191a2p+17', '0x1.1791182fb146dp-19', 1011),
    ('mcf', 1000000000000.0, 8): ('0x1.2d9db633a62b5p+14', '0x1.1790929de4935p-16', 1011),
    ('mcf', 1000000000000.0, 5000): ('0x1.ee409e468e2d3p+4', '0x1.537f5876ba559p-7', 1011),
    ('mcf', 1000000000000.0, 50000): ('0x1.8c07273e666f7p+1', '0x1.951f8b51f2601p-4', 1011),
    ('swim', 100000000.0, 1): ('0x1.ec2580fec4ffep+26', '0x1.0aa5944da52ecp-31', 1251),
    ('swim', 100000000.0, 8): ('0x1.ec258101625a8p+23', '0x1.0aa594460d072p-28', 1251),
    ('swim', 100000000.0, 5000): ('0x1.932a9ffb0bf9ap+14', '0x1.457f05ac5c375p-19', 1251),
    ('swim', 100000000.0, 50000): ('0x1.4288ab035c5a6p+11', '0x1.96dda419692bbp-16', 1251),
    ('swim', 10000000000.0, 1): ('0x1.3af94868cc5a3p+20', '0x1.a0a2b7117fc08p-25', 1251),
    ('swim', 10000000000.0, 8): ('0x1.3af9491021a03p+17', '0x1.a0a2b26ee1a1dp-22', 1251),
    ('swim', 10000000000.0, 5000): ('0x1.020847722b025p+8', '0x1.fc86d802c9dc4p-13', 1251),
    ('swim', 10000000000.0, 50000): ('0x1.9cef90bd1b050p+4', '0x1.3d7b8d3b27c0cp-9', 1251),
    ('swim', 1000000000000.0, 1): ('0x1.932aa5f4f34eep+13', '0x1.457eebcea0007p-18', 1251),
    ('swim', 1000000000000.0, 8): ('0x1.932af99fa9e3ep+10', '0x1.457d81af74c48p-15', 1251),
    ('swim', 1000000000000.0, 5000): ('0x1.4b05bb83f0200p+1', '0x1.888e315996ad1p-6', 1251),
    ('swim', 1000000000000.0, 50000): ('0x1.0e4ea41933a7ep-2', '0x1.b907e8cffc39ep-3', 1251),
}


@functools.lru_cache(maxsize=None)
def sec54_profiles() -> dict:
    """sec5.4's workloads, with SPEC traces at :data:`WINDOW`."""
    first, second = (processor_profile(b, WINDOW) for b in COMBINED_PAIR)
    return {
        "day": day_workload(),
        "week": week_workload(),
        "combined": combined_workload(first, second),
        **{
            b: processor_profile(b, WINDOW, dilate_to_paper_window=True)
            for b in REPRESENTATIVE_SPEC
        },
    }


def fold_signature(workload: str, n_times_s: float, count: int) -> tuple:
    rate = component_rate_per_second(n_times_s, 1.0)
    profile = sec54_profiles()[workload]
    system = SystemModel(
        [Component(workload, rate, profile, multiplicity=count)]
    )
    timeline = timeline_from_intensity(system.combined_intensity())
    return (
        float.hex(softarch_mttf(system).mttf_seconds),
        float.hex(timeline.iteration_failure_probability()),
        timeline.event_count,
    )


CASES = [
    (name, n_times_s, count)
    for name in ("day", "week", "combined", *REPRESENTATIVE_SPEC)
    for n_times_s in NXS
    for count in COUNTS
]


@pytest.mark.parametrize("workload,n_times_s,count", CASES)
def test_fold_matches_pinned_bits(workload, n_times_s, count):
    assert fold_signature(workload, n_times_s, count) == PINNED[
        (workload, n_times_s, count)
    ]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {fold_signature(*case)!r},")
