"""Every public callable returns or raises a SurveyRiskError.

``errors.py`` promises that every error the public API raises derives
from SurveyRiskError, so that a caller can catch one base class.  The
property below calls each callable in ``surveyrisk.__all__`` with one
argument per parameter, drawn from a pool of common slips (None, a
string, NaN, ``bool``, numpy integers, negative values, a model where
derived quantities are expected and the reverse) mixed with valid values,
so that a call also gets past its first check.  Calling an enum class
looks a member up, and a non-member raises DomainError.

Every call stays small: sizes are at most 64, every SimulationConfig has
at most 64 replications (one block, so no worker thread starts), every
parameter gets an argument (so the engine's default of 10,000
replications is never used) and ``workers`` is at most 4.
"""

from __future__ import annotations

import enum
import inspect
import math
import numbers
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surveyrisk
from surveyrisk import (
    AdviceContext,
    Decision,
    DomainError,
    EstimatorKind,
    RssKind,
    RssQuery,
    SimulationConfig,
    SurveyCounts,
    SurveyRiskError,
    build_model,
    bundled_model,
    derive,
    estimate,
)

_CANCER = bundled_model("example2-breast-cancer")
_TINY = build_model([[0.25, 0.25], [0.5]])
_COUNTS = SurveyCounts(present=((2, 2), (3,)), prior=(6, 4))

_POOL = (
    None, "ab", "example1-uniform100x2", math.nan, math.inf, True, -1, -0.5,
    0, 1, 2, 60, np.int64(64), np.int32(2), 0.5, (2, 1), (0.5, 0.5),
    ["0.5", "0.5"], [[0.25, 0.25], [0.5]],
    _CANCER, derive(_CANCER), _TINY, derive(_TINY),
    _COUNTS, estimate(EstimatorKind.POOLED, _COUNTS),
    *EstimatorKind, *RssKind, *AdviceContext,
    SimulationConfig(64, 0), SimulationConfig(16, 2**63),
    RssQuery(RssKind.PRIOR_TO_PRESENT, 40),
    RssQuery(RssKind.PRESENT_TO_POOLED, 40, 40, "sim", SimulationConfig(64)),
)
_WORKERS = tuple(v for v in _POOL
                 if not (isinstance(v, numbers.Integral) and v > 4))

_CALLABLES = tuple(
    name for name in surveyrisk.__all__ if callable(getattr(surveyrisk, name))
)


def _parameters(fn) -> tuple[str, ...]:
    """Parameter names; an exception class takes one message and an enum
    class one value."""
    if isinstance(fn, type) and issubclass(fn, BaseException):
        return ("message",)
    if isinstance(fn, enum.EnumMeta):
        return ("value",)
    return tuple(inspect.signature(fn).parameters)


@settings(derandomize=True, database=None, max_examples=600,
          deadline=timedelta(seconds=5))
@given(st.data())
def test_every_public_callable_returns_or_raises_a_survey_risk_error(data):
    fn = getattr(surveyrisk, data.draw(st.sampled_from(_CALLABLES)))
    args = [data.draw(st.sampled_from(_WORKERS if name == "workers" else _POOL),
                      label=name)
            for name in _parameters(fn)]
    try:
        fn(*args)
    except SurveyRiskError:
        pass


@pytest.mark.parametrize("enum_class", [EstimatorKind, RssKind, Decision, AdviceContext])
def test_a_non_member_lookup_raises_domain_error_naming_the_values(enum_class):
    """Looking up a value that is no member raises DomainError, not the
    standard library's ValueError, and the message names every value."""
    for member in enum_class:
        assert enum_class(member.value) is member
    for bad in ("bogus", None, 1.5, ["present"]):
        with pytest.raises(DomainError) as info:
            enum_class(bad)
        assert not isinstance(info.value, ValueError)
        for member in enum_class:
            assert repr(member.value) in str(info.value)
