"""Plan wire forms are checked on arrival.

A ``repro.plan/v1`` document reaches remote workers as plain JSON. Its
tables must be ones the hazard objects could have built: breakpoints
finite, starting at 0 and strictly increasing; rates finite and
non-negative; ``cum`` bit-equal to the running integral of the rates;
for nested plans, ``starts`` and ``cum_mass`` bit-equal to what
:class:`~repro.reliability.hazard.NestedHazard` derives. Anything else
would sample wrong times silently, so it raises ``ConfigurationError``
naming the bad field.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import Component, SystemModel
from repro.core.kernel import (
    CompiledNested,
    CompiledPiecewise,
    SamplingPlan,
    plan_for_system,
)
from repro.errors import ConfigurationError
from repro.reliability.hazard import NestedHazard, PiecewiseHazard
from repro.workloads import day_workload

from test_softarch_identity import sec54_profiles

#: The document that inverted 1.5 to 2.5 before wire forms were checked.
RECORDED = {
    "type": "piecewise",
    "breakpoints": [0.0, 1.0, 2.0, 3.0],
    "rates": [1.0, 1.0, 1.0],
    "cum": [0.0, 2.0, 1.0, 3.0],
}


def _piecewise(rates, breakpoints=(0.0, 1.0, 2.0, 3.0)):
    """A wire form whose ``cum`` is consistent with whatever rates it has."""
    bp = np.asarray(breakpoints, dtype=float)
    r = np.asarray(rates, dtype=float)
    with np.errstate(invalid="ignore"):
        cum = np.concatenate(([0.0], np.cumsum(r * np.diff(bp))))
    return {
        "type": "piecewise",
        "breakpoints": bp.tolist(),
        "rates": r.tolist(),
        "cum": cum.tolist(),
    }


def _nested():
    inner = PiecewiseHazard([0.0, 1.0, 3.0], [0.5, 2.0])
    return CompiledNested.from_hazard(
        NestedHazard([(7.5, inner), (2.0, 0.25), (4.0, inner)])
    ).to_dict()


def test_recorded_document_is_rejected():
    with pytest.raises(ConfigurationError, match="cum"):
        CompiledPiecewise.from_dict(RECORDED)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
def test_bad_rates_are_rejected(bad):
    with pytest.raises(ConfigurationError, match="rates"):
        CompiledPiecewise.from_dict(_piecewise([1.0, bad, 1.0]))


@pytest.mark.parametrize(
    "breakpoints",
    [
        (1.0, 2.0, 3.0, 4.0),
        (0.0, 2.0, 2.0, 3.0),
        (0.0, 2.0, 1.0, 3.0),
        (0.0, 1.0, 2.0, np.inf),
        (0.0, np.nan, 2.0, 3.0),
    ],
)
def test_bad_breakpoints_are_rejected(breakpoints):
    data = _piecewise([1.0, 1.0, 1.0])
    data["breakpoints"] = list(breakpoints)
    with pytest.raises(ConfigurationError, match="breakpoints"):
        CompiledPiecewise.from_dict(data)


def test_cum_is_compared_without_tolerance():
    data = _piecewise([0.3, 0.7, 0.1])
    data["cum"][2] = float(np.nextafter(data["cum"][2], np.inf))
    with pytest.raises(ConfigurationError, match="cum"):
        CompiledPiecewise.from_dict(data)


@pytest.mark.parametrize(
    "field,index,value",
    [
        ("durations", 1, -2.0),
        ("durations", 0, np.inf),
        ("starts", 2, 9.0),
        ("cum_mass", 3, 100.0),
    ],
)
def test_bad_nested_tables_are_rejected(field, index, value):
    data = _nested()
    data[field][index] = value
    with pytest.raises(ConfigurationError, match=field):
        CompiledNested.from_dict(data)


def test_bad_inner_table_is_rejected_inside_a_nested_plan():
    data = _nested()
    data["inners"][0]["rates"][0] = -0.5
    with pytest.raises(ConfigurationError, match="rates"):
        CompiledNested.from_dict(data)


def test_a_plan_document_is_checked_on_arrival():
    system = SystemModel([Component("c", 1e-5, day_workload())])
    data = plan_for_system(system).to_dict()
    data["intensity"]["cum"][1] *= 2.0
    with pytest.raises(ConfigurationError, match="cum"):
        SamplingPlan.from_dict(data)


@pytest.mark.parametrize(
    "workload", ["day", "week", "combined", "gzip", "mcf", "swim"]
)
def test_compiled_plans_survive_a_json_round_trip(workload):
    profile = sec54_profiles()[workload]
    plan = plan_for_system(
        SystemModel([Component("c", 3e-6, profile, multiplicity=8)])
    )
    data = json.loads(json.dumps(plan.to_dict()))
    assert SamplingPlan.from_dict(data).to_dict() == data
