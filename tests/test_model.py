"""Model construction, validation, and derived quantities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from surveyrisk import (
    DomainError,
    NonPositiveCell,
    NotNormalized,
    ShapeError,
    SurveyCounts,
    TwoStageModel,
    build_model,
    bundled_model,
    derive,
)
from surveyrisk import (
    EstimatorKind,
    ProbabilityEstimate,
    RssKind,
    RssQuery,
    SurveyRiskError,
    advise,
    advise_from_marginals,
    chain_rule,
    discard_probability,
    estimate,
    kl_divergence,
    required_sample_size,
    risk_app,
    simulate_risk,
)
from helpers import inverse_cell_sum


def test_build_model_accepts_normalized_cells():
    m = build_model([[0.25, 0.25], [0.25, 0.25]])
    assert m.n_groups == 2
    assert m.group_sizes == (2, 2)
    assert m.total_cells == 4
    assert m.labels == ("g1", "g2")
    np.testing.assert_array_equal(m.flat(), [0.25, 0.25, 0.25, 0.25])


def test_build_model_rejects_unnormalized_without_flag():
    with pytest.raises(NotNormalized):
        build_model([[0.3, 0.3], [0.3, 0.3]])


def test_build_model_renormalizes_on_request():
    m = build_model([[0.3, 0.3], [0.3, 0.3]], renormalize=True)
    assert math.isclose(float(np.sum(m.flat())), 1.0, abs_tol=1e-15)
    np.testing.assert_allclose(m.flat(), 0.25, atol=1e-15)


def test_build_model_rejects_bad_cells():
    with pytest.raises(NonPositiveCell):
        build_model([[0.5, 0.0], [0.25, 0.25]])
    with pytest.raises(NonPositiveCell):
        build_model([[0.5, -0.1], [0.3, 0.3]], renormalize=True)
    with pytest.raises(NonPositiveCell):
        build_model([[0.5, float("nan")], [0.25, 0.25]], renormalize=True)


def test_build_model_rejects_degenerate_layouts():
    # a single group has no first stage to estimate
    with pytest.raises(ShapeError):
        build_model([[0.5, 0.5]])
    with pytest.raises(ShapeError):
        build_model([[0.5, 0.5], []])


def test_build_model_label_mismatch():
    with pytest.raises(ShapeError):
        build_model([[0.5], [0.5]], labels=("only-one",))


def test_model_cells_are_read_only():
    m = build_model([[0.25, 0.25], [0.25, 0.25]])
    with pytest.raises(ValueError):
        m.cells[0][0] = 0.9


def test_model_equality_is_by_value():
    a = build_model([[0.25, 0.25], [0.25, 0.25]])
    b = build_model([[0.25, 0.25], [0.25, 0.25]])
    c = build_model([[0.2, 0.3], [0.25, 0.25]])
    assert a == b
    assert a != c


def test_derive_uniform_two_group_model():
    """Hand-checkable derived quantities on the 2x2 uniform model."""
    m = build_model([[0.25, 0.25], [0.25, 0.25]])
    dq = derive(m)
    np.testing.assert_array_equal(dq.marginals, [0.5, 0.5])
    np.testing.assert_array_equal(dq.conditionals[0], [0.5, 0.5])
    np.testing.assert_array_equal(dq.s, [1, 1])
    assert dq.p_total == 3
    # two-stage dimension I - 1 + sum_i s_i
    assert dq.marginals.size - 1 + int(dq.s.sum()) == 3
    assert inverse_cell_sum(m) == 16.0
    assert dq.M_f == 4.0
    # second-stage coefficient: 2 * (2 + 2) - 2 per group
    np.testing.assert_array_equal(dq.A, [6.0, 6.0])


def test_derive_bundled_uniform_model():
    m = bundled_model("example1-uniform100x2")
    dq = derive(m)
    assert dq.p_total == 199
    assert dq.marginals.size - 1 + int(dq.s.sum()) == 199
    assert inverse_cell_sum(m) == 40000.0
    assert dq.M_f == 4.0
    np.testing.assert_allclose(dq.A, 19998.0, rtol=0, atol=1e-9)
    with pytest.raises(DomainError, match="unknown bundled model"):
        bundled_model("example4-nowhere")


_BREAST_CANCER = bundled_model("example2-breast-cancer")
_COUNTS = SurveyCounts(present=((2, 2), (3, 3)), prior=(8, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: risk_app(EstimatorKind.PRESENT, derive(_BREAST_CANCER), 200),
     "TwoStageModel, got DerivedQuantities"),
    (lambda: simulate_risk(EstimatorKind.PRESENT, "example2-breast-cancer", 200),
     "TwoStageModel, got str"),
    (lambda: required_sample_size(RssQuery(RssKind.PRIOR_TO_PRESENT, 400),
                                  derive(_BREAST_CANCER)),
     "TwoStageModel, got DerivedQuantities"),
    (lambda: discard_probability(derive(_BREAST_CANCER), 200),
     "TwoStageModel, got DerivedQuantities"),
    (lambda: chain_rule(estimate(EstimatorKind.PRESENT, _COUNTS),
                        derive(build_model([[0.25, 0.25], [0.25, 0.25]]))),
     "TwoStageModel, got DerivedQuantities"),
    (lambda: estimate(EstimatorKind.PRESENT, ((2, 2), (3, 3))),
     "SurveyCounts, got tuple"),
    (lambda: advise(((2, 2), (3, 3)), (2, 2)), "SurveyCounts, got tuple"),
    (lambda: bundled_model("example4-nowhere"), "unknown bundled model"),
    (lambda: chain_rule(((0.5, 0.5),), _BREAST_CANCER),
     "ProbabilityEstimate, got tuple"),
    (lambda: kl_divergence(_BREAST_CANCER, _BREAST_CANCER),
     "real numbers, got TwoStageModel"),
    (lambda: required_sample_size((1, 2), _BREAST_CANCER), "RssQuery, got tuple"),
    (lambda: advise_from_marginals(_BREAST_CANCER, (2, 2), 200, 600),
     "group_sizes must be a sequence, got TwoStageModel"),
    (lambda: advise_from_marginals((2, 2), None, 200, 600),
     "marginals must be a sequence, got NoneType"),
    (lambda: advise_from_marginals((2, 2), "ab", 200, 600),
     "marginals must be a sequence, got str"),
    (lambda: advise_from_marginals((2, 2), ["0.5", "0.5"], 200, 600),
     "'0.5', not a real number"),
    (lambda: advise(_COUNTS, None), "group_sizes must be a sequence"),
    (lambda: build_model(None), "raw_cells must be a sequence"),
    (lambda: build_model([[0.5], [0.5]], labels=5),
     "labels must be a sequence, got int"),
    (lambda: build_model([[0.5], [0.5]], labels="ab"),
     "labels must be a sequence, got str"),
    (lambda: TwoStageModel(labels="ab", cells=(np.array([0.5]), np.array([0.5]))),
     "labels must be a sequence, got str"),
    (lambda: SurveyCounts(present=None), "present counts must be a sequence"),
    (lambda: SurveyCounts(present=(1, 2)),
     "present counts of group 0 must be a sequence, got int"),
    (lambda: ProbabilityEstimate(None), "estimate cells must be a sequence"),
    (lambda: bundled_model([1]), "unknown bundled model"),
    (lambda: build_model([["0.5"], ["0.5"]]), "group 0 must be real numbers, got '0.5'"),
    (lambda: kl_divergence(["0.5", "0.5"], [0.5, 0.5]),
     "estimate must be real numbers, got '0.5'"),
    (lambda: kl_divergence([0.5, 0.5], [b"0.5", 0.5]),
     "truth must be real numbers, got b'0.5'"),
    (lambda: build_model([[10**400], [0.5]]),
     "group 0 must be real numbers within the float range"),
    (lambda: kl_divergence([10**400, 0.5], [0.5, 0.5]),
     "estimate must be real numbers within the float range"),
], ids=["risk_app-derived", "simulate_risk-name", "required_sample_size-derived",
        "discard_probability-derived", "chain_rule-derived", "estimate-tuple",
        "advise-tuple", "bundled_model-unknown", "chain_rule-tuple",
        "kl_divergence-model", "required_sample_size-tuple",
        "advise_from_marginals-model", "advise_from_marginals-none",
        "advise_from_marginals-string", "advise_from_marginals-strings",
        "advise-none", "build_model-none", "build_model-int-labels",
        "build_model-str-labels", "TwoStageModel-str-labels",
        "SurveyCounts-none", "SurveyCounts-flat", "ProbabilityEstimate-none",
        "bundled_model-list", "build_model-strings", "kl_divergence-strings",
        "kl_divergence-bytes", "build_model-overflow", "kl_divergence-overflow"])
def test_an_argument_of_the_wrong_type_raises_domain_error(call, message):
    """A model, counts or labels of the wrong type (derived quantities for
    a model, one string for the labels), and an unknown bundled name, raise
    DomainError, a SurveyRiskError that names what was wanted, rather than
    an AttributeError or KeyError, or labels split into characters."""
    with pytest.raises(DomainError, match=message) as caught:
        call()
    assert isinstance(caught.value, SurveyRiskError)


#: six plug-in marginals whose reciprocals, each normal, sum past the
#: float range
_TINY_MARGINALS = [3e-308] * 6 + [1.0 - 1.8e-307]
#: normal cells whose reciprocals sum past the float range within group 0
_OVERFLOWING_A = [[3e-308] * 6 + [0.5 - 1.8e-307], [0.5]]
#: a finite A_0 of 1.3e308 that the expansion's division by m_0 = 0.5 takes
#: past the float range
_OVERFLOWING_RISK = [[2.3e-308] * 3 + [0.5 - 6.9e-308], [0.5]]


@pytest.mark.parametrize("call, message", [
    (lambda: build_model([[1e-320, 1.0], [1.0]], renormalize=True),
     "^cells must be finite and at least the least normal float "
     "2.2250738585072014e-308, got values from 1e-320 to 1.0"),
    (lambda: build_model([[1e308, 1e-300], [1.0]], renormalize=True),
     "renormalized cells .*, got values from 0.0 to"),
    (lambda: build_model([[1e308, 1e308], [1.0]], renormalize=True),
     "cells sum past the float range"),
    (lambda: TwoStageModel(labels=("a", "b"), cells=(
        np.array([5e-324, 0.5]), np.array([0.5]))), "^cells .*from 5e-324 to 0.5"),
    (lambda: advise_from_marginals((1, 1), [1e-320, 1.0], 200, 600),
     "plug-in marginals .*from 1e-320 to 1.0"),
    (lambda: advise_from_marginals((2,) * 7, _TINY_MARGINALS, 200, 600),
     "the decision statistic overflows"),
    (lambda: advise_from_marginals((1, 1), [10**400, 1.0], 200, 600),
     "group 0 is 1000.*, not finite"),
    (lambda: derive(build_model(_OVERFLOWING_A)), "reciprocal cell sums"),
    (lambda: risk_app(EstimatorKind.PRESENT, build_model(_OVERFLOWING_RISK), 100),
     "the risk expansion passes the float range"),
    (lambda: required_sample_size(RssQuery(RssKind.PRESENT_TO_POOLED, 100, 100),
                                  build_model(_OVERFLOWING_RISK)),
     "the risk expansion passes the float range"),
    (lambda: risk_app(EstimatorKind.PRESENT, _BREAST_CANCER, 10**400),
     "n must be an integer within the float range"),
    (lambda: risk_app(EstimatorKind.POOLED, _BREAST_CANCER, 10**308, 10**308),
     r"n \+ n\* must be within the float range"),
], ids=["build_model-subnormal", "build_model-underflow", "build_model-sum-overflow",
        "TwoStageModel-subnormal", "advise_from_marginals-subnormal",
        "advise_from_marginals-overflow", "advise_from_marginals-huge-int",
        "derive-overflow", "risk_app-overflow", "required_sample_size-overflow",
        "risk_app-huge-n", "risk_app-sizes-past-float-range"])
def test_float_range_edges_raise_domain_error(call, message):
    """Subnormal cells and marginals, and sums, coefficients, risks,
    statistics and sizes past the float range, raise DomainError where
    they enter, not a builtin error, an infinite risk, a sample size
    solved on one, or a decision on a NaN statistic."""
    with pytest.raises(DomainError, match=message):
        call()


def test_an_overflowing_sum_is_not_normalized_without_a_warning():
    """numpy's overflow warning is an error under the test settings."""
    with pytest.raises(NotNormalized, match="estimate sums to inf"):
        kl_divergence([1e308, 1e308], [0.5, 0.5])
    with pytest.raises(NotNormalized, match="estimate sums to inf"):
        ProbabilityEstimate([[1e308, 1e308], [1.0]])


_HALF = np.array([0.25, 0.25])
_AB = ("a", "b")


@pytest.mark.parametrize("labels, cells, error, message", [
    ((), (), ShapeError, "need at least 2 groups, got 0"),
    ((), (_HALF,), ShapeError, "need at least 2 groups, got 1"),
    ((), None, DomainError, "model cells must be a sequence, got NoneType"),
    ((), (None,) * 2, DomainError, "group 0 must be real numbers, got NoneType"),
    ((), (_HALF, [0.25, 0.25]), DomainError, "group 1 must be real numbers, got list"),
    ((), (_HALF, _HALF.astype(np.float32)), DomainError,
     "group 1 must be real numbers, got float32"),
    ((), (_HALF, np.array([0, 1])), DomainError, "group 1 must be real numbers, got int64"),
    ((), (_HALF, _HALF.reshape(1, 2)), ShapeError,
     "group 1 must be a nonempty vector of cells"),
    ((), (_HALF, np.array(0.5)), ShapeError, "group 1 must be a nonempty vector of cells"),
    ((), (_HALF, np.empty(0)), ShapeError, "group 1 must be a nonempty vector of cells"),
    (_AB, (np.array([1.0, 0.5]), np.array([0.5])), NotNormalized, "cells sum to 2.0;"),
    (_AB, (np.array([0.1, 0.1]), np.array([0.1])), NotNormalized, "cells sum to 0.3"),
    (_AB, (_HALF, np.array([0.5, -0.0])), NonPositiveCell, r"cell \(1, 1\) is -0.0"),
    ((), (_HALF, _HALF), ShapeError, "one str label per group: 2 groups, labels ()"),
    (("a", 2), (_HALF, _HALF), ShapeError, "one str label per group"),
], ids=["no-groups", "one-group", "none", "none-groups", "list-group",
        "float32-group", "int-group", "2d-group", "0d-group", "empty-group",
        "sum-2", "sum-0.3", "negative-zero-cell", "no-labels", "int-label"])
def test_a_model_built_directly_is_checked_at_construction(labels, cells, error,
                                                          message):
    """A TwoStageModel built without ``build_model`` is refused at
    construction with ``build_model``'s exception class and wording.  Once
    ``derive`` checked only the cells' layout and normality: cells summing
    to 2.0 made ``simulate_risk`` spin for seconds before it refused the
    run and gave a discard probability of 0.0, cells summing to 0.3 gave a
    simulated risk of 1.34, and a model without labels dumped a model file
    with no groups."""
    with pytest.raises(error, match=message):
        TwoStageModel(labels=labels, cells=cells)


def test_a_model_keeps_its_own_read_only_copies():
    """A caller's later write to its own array does not reach the model,
    and the caller's array stays writeable, through ``build_model`` too,
    which once marked it read-only.  ``derive`` returns the quantities the
    model computed at construction."""
    a, b = np.array([0.25, 0.25]), np.array([0.5])
    direct, built = TwoStageModel(labels=_AB, cells=(a, b)), build_model([a, b])
    a[0] = 0.9
    b.fill(0.1)
    for m in (direct, built):
        np.testing.assert_array_equal(m.flat(), [0.25, 0.25, 0.5])
        assert not m.cells[0].flags.writeable
        assert derive(m) is derive(m)
        np.testing.assert_array_equal(derive(m).marginals, [0.5, 0.5])


def test_derive_singleton_groups():
    """Groups of one cell have no second stage: s_i = 0, A_i = 0."""
    dq = derive(build_model([[0.3], [0.7]]))
    np.testing.assert_array_equal(dq.s, [0, 0])
    np.testing.assert_array_equal(dq.A, [0.0, 0.0])
    assert dq.p_total == 1
    assert dq.marginals.size - 1 + int(dq.s.sum()) == 1


def test_survey_counts_validation():
    ok = SurveyCounts(present=((2, 2), (3, 3)), prior=(8, 2))
    assert ok.n == 10
    assert ok.n_star == 10
    assert ok.group_totals == (4, 6)
    assert ok.group_sizes == (2, 2)

    with pytest.raises(DomainError):
        SurveyCounts(present=((2, -1), (3, 3)))
    with pytest.raises(DomainError):
        SurveyCounts(present=((2.5, 1), (3, 3)))  # type: ignore[arg-type]
    with pytest.raises(ShapeError):
        SurveyCounts(present=((2, 2), (3, 3)), prior=(8, 2, 1))
    with pytest.raises(ShapeError, match="at least one group"):
        SurveyCounts(present=())


def test_survey_counts_without_prior():
    c = SurveyCounts(present=((1, 0), (0, 4)))
    assert c.prior is None
    assert c.n_star is None


def test_survey_counts_accept_numpy_integers():
    plain = SurveyCounts(present=((3, 2), (1, 1)), prior=(4, 6))
    mixed = SurveyCounts(present=((np.int64(3), 2), (1, np.uint8(1))),
                         prior=(np.int32(4), 6))
    assert mixed == plain
    assert all(type(x) is int for row in mixed.present for x in row)
    assert all(type(x) is int for x in mixed.prior)
    for kind in EstimatorKind:
        got = estimate(kind, mixed).flat()
        want = estimate(kind, plain).flat()
        assert got.tobytes() == want.tobytes()

    with pytest.raises(DomainError):
        SurveyCounts(present=((True, 2), (1, 1)))
    with pytest.raises(DomainError):
        SurveyCounts(present=((np.float64(3.0), 2), (1, 1)))
    with pytest.raises(DomainError):
        SurveyCounts(present=((3, 2), (1, 1)), prior=(np.int64(-1), 6))
