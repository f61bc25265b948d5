"""Tests for workload profiles, trace synthesis, and long-run builders."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.masking import PiecewiseProfile
from repro.microarch.isa import OpClass
from repro.units import SECONDS_PER_DAY, SECONDS_PER_WEEK
from repro.workloads import (
    SPEC_FP_NAMES,
    SPEC_INT_NAMES,
    combined_workload,
    day_workload,
    spec_benchmark,
    spec_benchmarks,
    synthesize_trace,
    week_workload,
)
from repro.workloads.synthesis import _draw_ops, _mix_table, _phase_mix


class TestBenchmarkRegistry:
    def test_paper_counts(self):
        # Section 4.1: 9 integer and 12 floating point benchmarks.
        assert len(SPEC_INT_NAMES) == 9
        assert len(SPEC_FP_NAMES) == 12

    def test_suite_filter(self):
        ints = spec_benchmarks("int")
        assert set(ints) == set(SPEC_INT_NAMES)
        assert all(p.suite == "int" for p in ints.values())

    def test_lookup(self):
        assert spec_benchmark("mcf").name == "mcf"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_benchmark("doom")
        with pytest.raises(ConfigurationError):
            spec_benchmarks("vector")

    def test_fp_benchmarks_have_fp_ops(self):
        for name in SPEC_FP_NAMES:
            mix = spec_benchmark(name).mix
            assert any(op.is_fp for op in mix)

    def test_int_benchmarks_have_no_fp_ops(self):
        for name in SPEC_INT_NAMES:
            mix = spec_benchmark(name).mix
            assert not any(op.is_fp for op in mix)


class TestSynthesis:
    def test_length_exact(self):
        trace = synthesize_trace(spec_benchmark("gzip"), 1234, seed=0)
        assert len(trace) == 1234

    def test_deterministic(self):
        a = synthesize_trace(spec_benchmark("gzip"), 500, seed=7)
        b = synthesize_trace(spec_benchmark("gzip"), 500, seed=7)
        assert a == b

    def test_seed_changes_trace(self):
        a = synthesize_trace(spec_benchmark("gzip"), 500, seed=1)
        b = synthesize_trace(spec_benchmark("gzip"), 500, seed=2)
        assert a != b

    def test_branch_fraction_approximated(self):
        profile = spec_benchmark("gcc")
        trace = synthesize_trace(profile, 20_000, seed=3)
        frac = sum(1 for r in trace if r.op.is_branch) / len(trace)
        assert frac == pytest.approx(profile.branch_fraction, rel=0.25)

    def test_memory_fraction_approximated(self):
        profile = spec_benchmark("mcf")
        trace = synthesize_trace(profile, 20_000, seed=3)
        frac = sum(1 for r in trace if r.op.is_memory) / len(trace)
        expected = (
            profile.mix[OpClass.LOAD] + profile.mix[OpClass.STORE]
        ) / sum(profile.mix.values())
        # Branches dilute the mix; tolerate that plus sampling noise.
        assert frac == pytest.approx(expected * (1 - profile.branch_fraction),
                                     rel=0.3)

    def test_memory_ops_have_addresses(self):
        trace = synthesize_trace(spec_benchmark("swim"), 5_000, seed=1)
        assert all(
            r.mem_addr is not None for r in trace if r.op.is_memory
        )

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            synthesize_trace(spec_benchmark("gzip"), 0)

    def test_window_shorter_than_preamble(self):
        trace = synthesize_trace(spec_benchmark("gzip"), 5, seed=0)
        assert len(trace) == 5
        assert trace == synthesize_trace(spec_benchmark("gzip"), 40)[:5]

    @pytest.mark.parametrize("phase", [0, 1])
    def test_op_draws_consume_the_stream_like_choice(self, phase):
        # _draw_ops replaces rng.choice(..., p=weights); the generator
        # must advance identically and yield the same ops, or every
        # synthesized trace changes.
        mix = _phase_mix(spec_benchmark("swim"), phase)
        weights = np.asarray(list(mix.values()), dtype=float)
        table = _mix_table(mix)
        for seed in range(20):
            fast = np.random.default_rng(seed)
            slow = np.random.default_rng(seed)
            for count in (1, 5, 40):
                expected = [
                    int(list(mix)[i])
                    for i in slow.choice(
                        len(mix), size=count, p=weights / weights.sum()
                    )
                ]
                assert _draw_ops(fast, table, count) == expected
            assert fast.random() == slow.random()


class TestLongRunWorkloads:
    def test_day_defaults(self):
        p = day_workload()
        assert p.period == pytest.approx(SECONDS_PER_DAY)
        assert p.avf == pytest.approx(0.5)

    def test_day_custom_fraction(self):
        assert day_workload(0.25).avf == pytest.approx(0.25)

    def test_day_validation(self):
        with pytest.raises(ConfigurationError):
            day_workload(0.0)

    def test_week_defaults(self):
        p = week_workload()
        assert p.period == pytest.approx(SECONDS_PER_WEEK)
        assert p.avf == pytest.approx(5.0 / 7.0)

    def test_week_validation(self):
        with pytest.raises(ConfigurationError):
            week_workload(8.0)

    def test_combined_structure(self):
        a = PiecewiseProfile.from_segments([(1e-3, 1.0), (1e-3, 0.0)])
        b = PiecewiseProfile.from_segments([(1e-3, 0.2), (1e-3, 0.8)])
        c = combined_workload(a, b)
        assert c.period == pytest.approx(SECONDS_PER_DAY)
        assert c.avf == pytest.approx(0.5 * 0.5 + 0.5 * 0.5)

    def test_combined_validation(self):
        a = PiecewiseProfile.constant(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            combined_workload(a, a, period=0.0)
