"""Bundled example models.

Three ready-made populations exercise the package across very different
regimes:

* ``example1-uniform100x2``: two groups of 100 equiprobable cells each
  (m_ij = 1/200).  Synthetic and perfectly symmetric, so every derived
  quantity has a closed form; this is the model where pooling a prior
  survey can backfire at small n.

* ``example2-breast-cancer``: age group (5 levels) by tumor malignancy
  (3 levels) relative frequencies from the UCI breast-cancer data set
  (285 cases).  The published three-decimal frequencies sum to 1.001, so
  the model is renormalized at load time.

* ``example3-household``: household age group (6 levels) by yearly income
  band (10 levels) relative frequencies from the 2014 Japanese national
  survey of family income and expenditure (100006 households).  The
  five-decimal frequencies sum to 1.00004 and are likewise renormalized.
"""

from __future__ import annotations

from .errors import DomainError
from .model import TwoStageModel, build_model

__all__ = ["BUNDLED_MODEL_NAMES", "bundled_model"]

# age group x malignancy(1..3), three-decimal relative frequencies
_BREAST_CANCER_CELLS = (
    (0.025, 0.060, 0.042),  # 30-39
    (0.063, 0.168, 0.084),  # 40-49
    (0.088, 0.137, 0.112),  # 50-59
    (0.060, 0.084, 0.056),  # 60-69
    (0.014, 0.004, 0.004),  # 70-79
)
_BREAST_CANCER_LABELS = ("30-39", "40-49", "50-59", "60-69", "70-79")

# household age group x income band (Y1..Y10), five-decimal frequencies
_HOUSEHOLD_CELLS = (
    (0.00161, 0.00331, 0.00974, 0.00799, 0.00547,
     0.00494, 0.00126, 0.00071, 0.00011, 0.00006),  # H1
    (0.00232, 0.00810, 0.02109, 0.03519, 0.03760,
     0.05082, 0.02106, 0.00961, 0.00201, 0.00139),  # H2
    (0.00512, 0.00953, 0.02046, 0.03229, 0.04362,
     0.09003, 0.05430, 0.03230, 0.01204, 0.00697),  # H3
    (0.00395, 0.00783, 0.01499, 0.02017, 0.02442,
     0.05772, 0.05531, 0.04043, 0.02184, 0.01582),  # H4
    (0.00468, 0.01145, 0.02536, 0.03380, 0.02675,
     0.03732, 0.01999, 0.01080, 0.00466, 0.00344),  # H5
    (0.00066, 0.00278, 0.00494, 0.00708, 0.00398,
     0.00452, 0.00234, 0.00122, 0.00052, 0.00022),  # H6
)
_HOUSEHOLD_LABELS = ("H1", "H2", "H3", "H4", "H5", "H6")

#: name -> (cells, renormalize, labels)
_MODELS = {
    "example1-uniform100x2": (((1.0 / 200.0,) * 100,) * 2, False, ("c1", "c2")),
    "example2-breast-cancer": (
        _BREAST_CANCER_CELLS, True, _BREAST_CANCER_LABELS),
    "example3-household": (_HOUSEHOLD_CELLS, True, _HOUSEHOLD_LABELS),
}

BUNDLED_MODEL_NAMES: tuple[str, ...] = tuple(_MODELS)


def bundled_model(name: str) -> TwoStageModel:
    """Return a bundled model by name; raises DomainError for unknown names."""
    if not isinstance(name, str) or name not in _MODELS:
        raise DomainError(
            f"unknown bundled model {name!r}; choices: {', '.join(BUNDLED_MODEL_NAMES)}"
        )
    cells, renormalize, labels = _MODELS[name]
    return build_model(cells, renormalize=renormalize, labels=labels)
