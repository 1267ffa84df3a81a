"""Every public callable returns or raises a SurveyRiskError.

``errors.py`` promises that every error the public API raises derives
from SurveyRiskError, so that a caller can catch one base class.  The
property below calls each callable in ``surveyrisk.__all__`` with one
argument per parameter, drawn from a pool of common slips (None, a
string, NaN, ``bool``, numpy integers, negative values, a model where
derived quantities are expected and the reverse) mixed with valid values,
so that a call also gets past its first check.

The enum classes are left out: calling one looks a member up, and its
ValueError for a non-member is the standard library's; every entry point
that takes a member refuses anything else with DomainError.

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
from hypothesis import given, settings
from hypothesis import strategies as st

import surveyrisk
from surveyrisk import (
    AdviceContext,
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
    name for name in surveyrisk.__all__
    if callable(getattr(surveyrisk, name))
    and not isinstance(getattr(surveyrisk, name), enum.EnumMeta)
)


def _parameters(fn) -> tuple[str, ...]:
    """Parameter names; an exception class takes one message."""
    if isinstance(fn, type) and issubclass(fn, BaseException):
        return ("message",)
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
