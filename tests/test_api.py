"""Every public callable returns or raises a SurveyRiskError.

``errors.py`` promises that every error the public API raises derives
from SurveyRiskError, so that a caller can catch one base class.  The
property below calls each callable in ``surveyrisk.__all__`` with one
argument per parameter, drawn from a pool of common slips (None, a
string, NaN, ``bool``, numpy integers, negative values, derived
quantities where a model is expected, numbers at the edges of the float
range) mixed with valid values, so that a call also gets past its first
check.  Calling an enum class looks a member up, and a non-member raises
DomainError.  Every warning is an error, and no call returns a
non-finite float at any depth of its result, except a plain record's
constructor, which stores what it is given.

Every call stays small: sizes are at most 64, every SimulationConfig has
at most 64 replications (one block, so no worker thread starts), every
parameter gets an argument (so the engine's default of 10,000
replications is never used) and ``workers`` is at most 4.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import math
import numbers
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import surveyrisk
from surveyrisk import (
    AdviceContext,
    ChainRuleBreakdown,
    Decision,
    DerivedQuantities,
    DomainError,
    EstimatorKind,
    Recommendation,
    RiskApproximation,
    RiskEstimate,
    RssKind,
    RssQuery,
    SimulationConfig,
    SurveyCounts,
    SurveyRiskError,
    TwoStageModel,
    build_model,
    bundled_model,
    derive,
    estimate,
)

_CANCER = bundled_model("example2-breast-cancer")
_TINY = build_model([[0.25, 0.25], [0.5]])
_COUNTS = SurveyCounts(present=((2, 2), (3,)), prior=(6, 4))
#: classes that store what they are given, NaN included
_RECORDS = (ChainRuleBreakdown, DerivedQuantities, Recommendation,
            RiskApproximation, RiskEstimate)

_POOL = (
    None, "ab", "example1-uniform100x2", math.nan, math.inf, True, -1, -0.5,
    0, 1, 2, 60, np.int64(64), np.int32(2), 0.5, (2, 1), (0.5, 0.5),
    ["0.5", "0.5"], [[0.25, 0.25], [0.5]],
    1e308, 5e-324, 1e-300, 10**400, -0.0,
    (1e308, 1e308), (5e-324, 1.0), [[1e308, 1e308], [1.0]],
    _CANCER, derive(_CANCER), _TINY, derive(_TINY),
    _COUNTS, estimate(EstimatorKind.POOLED, _COUNTS),
    *EstimatorKind, *RssKind, *AdviceContext,
    SimulationConfig(64, 0), SimulationConfig(16, 2**63),
    RssQuery(RssKind.PRIOR_TO_PRESENT, 40),
    RssQuery(RssKind.PRESENT_TO_POOLED, 40, 40, "sim", SimulationConfig(64)),
)
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


_ARITY = max(len(_parameters(getattr(surveyrisk, name))) for name in _CALLABLES)


def _slip(name, *args):
    """An explicit example: ``name`` called with ``args``."""
    return example(name, [*args, *[None] * (_ARITY - len(args))])


def _floats(result):
    """Every float in a function's result, inside records, tuples and
    arrays too."""
    if isinstance(result, float):
        yield result
    elif isinstance(result, np.ndarray) and result.dtype.kind == "f":
        yield from result.ravel().tolist()
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _floats(item)
    elif dataclasses.is_dataclass(result) and not isinstance(result, type):
        for field in dataclasses.fields(result):
            yield from _floats(getattr(result, field.name))


@settings(derandomize=True, database=None, max_examples=600,
          deadline=timedelta(seconds=5))
@given(st.sampled_from(_CALLABLES),
       st.lists(st.sampled_from(_POOL), min_size=_ARITY, max_size=_ARITY))
@_slip("build_model", [[1e308, 1e308], [1.0]], True, None)
@_slip("kl_divergence", (1e308, 1e308), (0.5, 0.5))
@_slip("advise_from_marginals", (2, 1), (5e-324, 1.0), 60, 2,
       AdviceContext.POST_SURVEY)
@_slip("TwoStageModel", ("a", "b"), (np.array([5e-324, 0.5]), np.array([0.5])))
@_slip("risk_app", EstimatorKind.PRESENT, _CANCER, 10**400, None)
def test_every_public_callable_returns_or_raises_a_survey_risk_error(name, pool):
    fn = getattr(surveyrisk, name)
    parameters = _parameters(fn)
    args = pool[:len(parameters)]
    # every SimulationConfig in the pool fits one block, so only a worker
    # count above 4 could start more threads than the call needs
    assume(all(not (isinstance(v, numbers.Integral) and v > 4)
               for p, v in zip(parameters, args) if p == "workers"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*args)
        except SurveyRiskError:
            return
    if fn not in _RECORDS:
        assert all(map(math.isfinite, _floats(result))), result


def test_no_public_callable_takes_derived_quantities():
    """Every public function takes the model and reads its quantities
    through ``derive``; a parameter that takes them instead would be a
    second way in that the model's construction does not check."""
    takers = []
    for name in _CALLABLES:
        fn = getattr(surveyrisk, name)
        if isinstance(fn, enum.EnumMeta) or (
                isinstance(fn, type) and issubclass(fn, BaseException)):
            continue  # one value or one message, as in _parameters
        # annotations are strings: the package uses postponed evaluation
        takers += [f"{name}({p.name})"
                   for p in inspect.signature(fn).parameters.values()
                   if "DerivedQuantities" in str(p.annotation)]
    assert takers == []


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
