"""Estimation risk for two-stage multinomial surveys with a coarse prior.

A present survey classifies n units into groups and cells within groups;
an earlier, larger survey classified n* units into the groups only.  The
package quantifies the Kullback-Leibler risk of the three maximum
likelihood cell-probability estimators that differ in where the group
marginals come from (present survey, prior survey, or both pooled),
both by truncated expansion (``risk_app``) and by Monte Carlo
(``simulate_risk``), and answers the two design questions built on top:
how large a survey must be to match another design's risk
(``required_sample_size``) and whether pooling the prior survey in is
expected to help (``advise``).
"""

from __future__ import annotations

from . import (asymptotics, datasets, divergence, errors, estimators, model,
               montecarlo, planning)
from .asymptotics import *  # noqa: F403
from .datasets import *  # noqa: F403
from .divergence import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .model import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .planning import *  # noqa: F403

__version__ = "0.1.0"

# each public name is declared once, in its module's ``__all__``
__all__ = sorted(
    name
    for module in (asymptotics, datasets, divergence, errors, estimators, model,
                   montecarlo, planning)
    for name in module.__all__
) + ["__version__"]
