"""Golden fixtures: simulated and analytic values pinned to the last bit.

Each ``SIMULATED`` entry is the full-precision ``repr`` of (mean_loss,
std_error, discard_rate) for one (model, kind, n, n*, replications,
seed).  The cases cover all three bundled models, the prior and pooled
kinds, a present size with discards (breast-cancer at n = 60),
replication counts that are not multiples of ``BLOCK_SIZE`` and a seed
above 2**63.  The three kinds are also pinned on ``NINE_GROUPS``, a
9-group model: from 8 groups on, the engine's column-order sum of a
loss's group terms is not numpy's pairwise row sum, and the last bits
of these values record which order was taken.

``RSS_SIMULATED`` pins the simulated required sample size of three
(model, kind, n0, n0*) queries at two seeds: the answers the sample-size
solver returns on the simulated curve, which is noisy near the root.

``APPROXIMATED`` pins the analytic side for every bundled model at four
(n, n*) pairs: each kind's ``risk_app`` terms (first_order,
second_order, total), the prior's floor at n* = inf, both risk gaps, and
the advisor's statistic and decision with the true marginals plugged in.

Every ``SIMULATED`` case runs twice: on an empty memo of present draws,
and right after another kind at the same key, which the engine serves
from its memo.

``TABLES`` pins the sha256 of every CSV that ``surveyrisk reproduce
--precision full`` writes: the 9 analytic tables, and the 9 simulated
ones at ``--reps 512``.  Each row of an analytic table is also checked
against the row that ``risk --estimator all`` or ``rss`` prints at the
same grid point.

A change that moves any of these values, even in the last bit, changes
what the package reproduces.  Update the fixture only on purpose, and
record why in CHANGES.md; ``python tests/test_golden.py`` prints the
current values in the fixture's layout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math

from surveyrisk import (
    EstimatorKind,
    RssKind,
    RssQuery,
    SimulationConfig,
    advise_from_marginals,
    build_model,
    bundled_model,
    derive,
    required_sample_size,
    risk_app,
    simulate_risk,
)
from surveyrisk import montecarlo
from surveyrisk.cli import _STAGES, run
from helpers import gap

#: nine groups of one to four cells, the smallest marginal 2/53
NINE_GROUPS = build_model(
    [[3, 1], [2, 2, 1], [5], [1, 1], [4, 3, 2, 1], [2], [6, 3], [1, 2, 1], [7, 5]],
    renormalize=True)

#: (model, kind, n, n*, replications, seed) -> (mean_loss, std_error, discard_rate)
SIMULATED = {
    ("example1-uniform100x2", "prior", 200, 600, 5000, 7):
        (0.5731845825279915, 0.0005801988485471751, 0.0),
    ("example1-uniform100x2", "pooled", 90, 1000, 4097, 2019):
        (1.0844685443293027, 0.0008514933618345438, 0.0),
    ("example2-breast-cancer", "present", 60, None, 6000, 0):
        (0.11922625094602338, 0.0005562496858991662, 0.2679355783308931),
    ("example2-breast-cancer", "prior", 60, 300, 6000, 0):
        (0.10147233586046109, 0.0005747033434566234, 0.2679355783308931),
    ("example2-breast-cancer", "pooled", 60, 300, 6000, 0):
        (0.09931064769965008, 0.0005496967968740516, 0.2679355783308931),
    ("example2-breast-cancer", "pooled", 200, 1000, 9000, 20190415):
        (0.029328508722547122, 0.000130439749635762, 0.010662855886556008),
    ("example3-household", "prior", 1000, 1000, 5000, 3):
        (0.0302233173813171, 7.913868468156329e-05, 0.0),
    ("example3-household", "pooled", 300, 2000, 4100, 2**63 + 5):
        (0.09473699475566272, 0.0002824123512110953, 0.00048756704046806434),
    ("nine-groups", "present", 150, None, 5000, 29):
        (0.06620794029094347, 0.00030403731256502427, 0.006359300476947536),
    ("nine-groups", "prior", 150, 600, 5000, 29):
        (0.04984648815498935, 0.00028199597821277207, 0.006359300476947536),
    ("nine-groups", "pooled", 150, 600, 5000, 29):
        (0.04775729887245543, 0.00026902056425923875, 0.006359300476947536),
}

#: (model, kind, n0, n0*, replications, seed) -> simulated required sample size
RSS_SIMULATED = {
    ("example2-breast-cancer", "prior-vs-present", 400, None, 4096, 0): 444,
    ("example2-breast-cancer", "present-vs-pooled", 400, 400, 4096, 0): 453,
    ("example1-uniform100x2", "present-vs-pooled", 400, 400, 4096, 0): 401,
    ("example2-breast-cancer", "prior-vs-present", 400, None, 4096, 20190415): 442,
    ("example2-breast-cancer", "present-vs-pooled", 400, 400, 4096, 20190415): 458,
    ("example1-uniform100x2", "present-vs-pooled", 400, 400, 4096, 20190415): 401,
}

#: (method, example, table) -> sha256 of ``reproduce --precision full``
TABLES = {
    ("app", 1, "risk"):
        "1699c682cc7b713ce72a069e856b50c21b90d6571e88dfa74ba053c1cbd7fc26",
    ("app", 1, "rss-prior"):
        "aa7a3d0389be01d574d59dedf80a2f71e644c0dbb1f50fb38cf5499068f362b9",
    ("app", 1, "rss-pooled"):
        "8cb4a410dd231011ded74023a8fb10a3e711a06f32e960bf46fb93dae9b7de12",
    ("app", 2, "risk"):
        "653b7e5499f52c5b5272f8f2db304345ce005f92d75be2a671b1a4f6cc2ca2c0",
    ("app", 2, "rss-prior"):
        "4a4d4c4f2d6753326da7548748921a8f222f35e6c2dbd06381a9a9e513aa99ce",
    ("app", 2, "rss-pooled"):
        "c269a06b05a41a78bc29c2c53974d45abb9294336d3fbdd6ae946e6aaf7187d3",
    ("app", 3, "risk"):
        "aa8e08b32a5fa893c8a8666112238a6b1faf06d3cb4dc7679d726a995ed3961d",
    ("app", 3, "rss-prior"):
        "8179613b2cbb8a9b5ccbbb34ffa1e485c0905226a22d7c0977a22e490a6c3ea3",
    ("app", 3, "rss-pooled"):
        "3f33e0cd7127628afff6cc1a77e4a35f6590fa794e8a65c9938ac4ea6448194e",
    ("sim", 1, "risk"):
        "ae09d782b7e31fbd77d91e034fc5d50d0663adb5ec695982c24205bde1e69fbf",
    ("sim", 1, "rss-prior"):
        "d08c6d8c827eb2e5457872061272a0c219e1ef0b212eac758f1da6eeafb6ba49",
    ("sim", 1, "rss-pooled"):
        "1e18c74340580f7a03abfbf0067787335f633f758c7f7ed78842ad6a4535d6e0",
    ("sim", 2, "risk"):
        "b6563a1331c088f4c044728b3dbf0949032c8632e6e327afc58eec406048718d",
    ("sim", 2, "rss-prior"):
        "27ce80c6de003b51b70cf4394829afd90fa4d33b69ba03e1956e7a923240a8e8",
    ("sim", 2, "rss-pooled"):
        "e1f1bca47eccc7db7eea13ce4a5b38d6785a2568a1f898569f08f80a3efa8b37",
    ("sim", 3, "risk"):
        "f174688f9cc01a4ffea08abd83595cd6d296d5c558d64523ca12afe37c5bcaa1",
    ("sim", 3, "rss-prior"):
        "03ba66c20dd4bb8009933d99e7ae0e7cfc8eee05a2c1e85dc4b4161750fbc058",
    ("sim", 3, "rss-pooled"):
        "289818e8de9b1382153eed7eb383de03317e3c5e8edda1fc2a19d6c5849c45b9",
}

#: (function, model, kind or stage, n, n*) -> pinned values
APPROXIMATED = {
    ("risk_app", "example1-uniform100x2", "present", 200, 600):
        (0.4975, 0.08333125, 0.58083125),
    ("risk_app", "example1-uniform100x2", "prior", 200, 600):
        (0.49583333333333335, 0.08580069444444445, 0.5816340277777778),
    ("risk_app", "example1-uniform100x2", "pooled", 200, 600):
        (0.495625, 0.085181640625, 0.580806640625),
    ("risk_app", "example1-uniform100x2", "prior", 200, math.inf):
        (0.495, 0.0858, 0.5808),
    ("risk_gap_present_prior", "example1-uniform100x2", None, 200, 600):
        (-0.0008027777777777781,),
    ("risk_gap_present_pooled", "example1-uniform100x2", None, 200, 600):
        (2.4609374999999892e-05,),
    ("advise_from_marginals", "example1-uniform100x2", "post", 200, 600):
        (2.4609374999999892e-05, "UsePooled"),
    ("advise_from_marginals", "example1-uniform100x2", "plan", 200, 600):
        (2.4609374999999892e-05, "UsePooled"),
    ("risk_app", "example1-uniform100x2", "present", 90, 1000):
        (1.1055555555555556, 0.41151234567901235, 1.517067901234568),
    ("risk_app", "example1-uniform100x2", "prior", 90, 1000):
        (1.1005, 0.4237039537037037, 1.5242039537037038),
    ("risk_app", "example1-uniform100x2", "pooled", 90, 1000):
        (1.1004587155963304, 0.4226947398117754, 1.5231534554081056),
    ("risk_app", "example1-uniform100x2", "prior", 90, math.inf):
        (1.1, 0.4237037037037037, 1.5237037037037038),
    ("risk_gap_present_prior", "example1-uniform100x2", None, 90, 1000):
        (-0.007136052469135803,),
    ("risk_gap_present_pooled", "example1-uniform100x2", None, 90, 1000):
        (-0.006085554173537789,),
    ("advise_from_marginals", "example1-uniform100x2", "post", 90, 1000):
        (-0.006085554173537789, "UsePresentOnly"),
    ("advise_from_marginals", "example1-uniform100x2", "plan", 90, 1000):
        (-0.006085554173537789, "IncreaseN"),
    ("risk_app", "example1-uniform100x2", "present", 1000, 1000):
        (0.0995, 0.00333325, 0.10283325),
    ("risk_app", "example1-uniform100x2", "prior", 1000, 1000):
        (0.0995, 0.00343225, 0.10293225),
    ("risk_app", "example1-uniform100x2", "pooled", 1000, 1000):
        (0.09925, 0.0033825625, 0.10263256250000001),
    ("risk_app", "example1-uniform100x2", "prior", 1000, math.inf):
        (0.099, 0.003432, 0.10243200000000001),
    ("risk_gap_present_prior", "example1-uniform100x2", None, 1000, 1000):
        (-9.9e-05,),
    ("risk_gap_present_pooled", "example1-uniform100x2", None, 1000, 1000):
        (0.00020068750000000002,),
    ("advise_from_marginals", "example1-uniform100x2", "post", 1000, 1000):
        (0.00020068750000000002, "UsePooled"),
    ("advise_from_marginals", "example1-uniform100x2", "plan", 1000, 1000):
        (0.00020068750000000002, "UsePooled"),
    ("risk_app", "example1-uniform100x2", "present", 7, 1):
        (14.214285714285714, 68.02551020408163, 82.23979591836734),
    ("risk_app", "example1-uniform100x2", "prior", 7, 1):
        (14.642857142857142, 70.29081632653062, 84.93367346938776),
    ("risk_app", "example1-uniform100x2", "pooled", 7, 1):
        (14.205357142857142, 68.27686543367346, 82.4822225765306),
    ("risk_app", "example1-uniform100x2", "prior", 7, math.inf):
        (14.142857142857142, 70.04081632653062, 84.18367346938776),
    ("risk_gap_present_prior", "example1-uniform100x2", None, 7, 1):
        (-2.693877551020408,),
    ("risk_gap_present_pooled", "example1-uniform100x2", None, 7, 1):
        (-0.24242665816326528,),
    ("advise_from_marginals", "example1-uniform100x2", "post", 7, 1):
        (-0.24242665816326528, "UsePresentOnly"),
    ("advise_from_marginals", "example1-uniform100x2", "plan", 7, 1):
        (-0.24242665816326528, "IncreaseN"),
    ("risk_app", "example2-breast-cancer", "present", 200, 600):
        (0.035, 0.0015821138018721277, 0.03658211380187213),
    ("risk_app", "example2-breast-cancer", "prior", 200, 600):
        (0.028333333333333335, 0.0029528312544427953, 0.03128616458777613),
    ("risk_app", "example2-breast-cancer", "pooled", 200, 600):
        (0.0275, 0.0025743031533937187, 0.030074303153393718),
    ("risk_app", "example2-breast-cancer", "prior", 200, math.inf):
        (0.025, 0.002938124079917089, 0.02793812407991709),
    ("risk_gap_present_prior", "example2-breast-cancer", None, 200, 600):
        (0.005295949214095998,),
    ("risk_gap_present_pooled", "example2-breast-cancer", None, 200, 600):
        (0.006507810648478408,),
    ("advise_from_marginals", "example2-breast-cancer", "post", 200, 600):
        (0.006507810648478408, "UsePooled"),
    ("advise_from_marginals", "example2-breast-cancer", "plan", 200, 600):
        (0.006507810648478408, "UsePooled"),
    ("risk_app", "example2-breast-cancer", "present", 90, 1000):
        (0.07777777777777778, 0.007812907663566062, 0.08559068544134384),
    ("risk_app", "example2-breast-cancer", "prior", 90, 1000):
        (0.057555555555555554, 0.014514549298469199, 0.07207010485402475),
    ("risk_app", "example2-breast-cancer", "pooled", 90, 1000):
        (0.057390417940876653, 0.013906830387796098, 0.07129724832867275),
    ("risk_app", "example2-breast-cancer", "prior", 90, math.inf):
        (0.05555555555555555, 0.014509254715639944, 0.0700648102711955),
    ("risk_gap_present_prior", "example2-breast-cancer", None, 90, 1000):
        (0.013520580587319087,),
    ("risk_gap_present_pooled", "example2-breast-cancer", None, 90, 1000):
        (0.014293437112671087,),
    ("advise_from_marginals", "example2-breast-cancer", "post", 90, 1000):
        (0.014293437112671087, "UsePooled"),
    ("advise_from_marginals", "example2-breast-cancer", "plan", 90, 1000):
        (0.014293437112671087, "UsePooled"),
    ("risk_app", "example2-breast-cancer", "present", 1000, 1000):
        (0.007, 6.328455207488511e-05, 0.007063284552074885),
    ("risk_app", "example2-breast-cancer", "prior", 1000, 1000):
        (0.007, 0.00012281954602593796, 0.007122819546025938),
    ("risk_app", "example2-breast-cancer", "pooled", 1000, 1000):
        (0.006, 8.908111192847073e-05, 0.0060890811119284705),
    ("risk_app", "example2-breast-cancer", "prior", 1000, math.inf):
        (0.005, 0.00011752496319668355, 0.005117524963196684),
    ("risk_gap_present_prior", "example2-breast-cancer", None, 1000, 1000):
        (-5.953499395105286e-05,),
    ("risk_gap_present_pooled", "example2-breast-cancer", None, 1000, 1000):
        (0.0009742034401464144,),
    ("advise_from_marginals", "example2-breast-cancer", "post", 1000, 1000):
        (0.0009742034401464144, "UsePooled"),
    ("advise_from_marginals", "example2-breast-cancer", "plan", 1000, 1000):
        (0.0009742034401464144, "UsePooled"),
    ("risk_app", "example2-breast-cancer", "present", 7, 1):
        (1.0, 1.2915214709160225, 2.2915214709160225),
    ("risk_app", "example2-breast-cancer", "prior", 7, 1):
        (2.7142857142857144, 7.6930514659214175, 10.407337180207133),
    ("risk_app", "example2-breast-cancer", "pooled", 7, 1):
        (0.9642857142857143, 1.4180716013910248, 2.3823573156767393),
    ("risk_app", "example2-breast-cancer", "prior", 7, math.inf):
        (0.7142857142857143, 2.3984686366670114, 3.112754350952726),
    ("risk_gap_present_prior", "example2-breast-cancer", None, 7, 1):
        (-8.115815709291109,),
    ("risk_gap_present_pooled", "example2-breast-cancer", None, 7, 1):
        (-0.09083584476071649,),
    ("advise_from_marginals", "example2-breast-cancer", "post", 7, 1):
        (-0.09083584476071649, "UsePresentOnly"),
    ("advise_from_marginals", "example2-breast-cancer", "plan", 7, 1):
        (-0.09083584476071649, "IncreaseN"),
    ("risk_app", "example3-household", "present", 200, 600):
        (0.1475, 0.09255795098864901, 0.24005795098864902),
    ("risk_app", "example3-household", "prior", 200, 600):
        (0.1391666666666667, 0.10093190550821565, 0.24009857217488234),
    ("risk_app", "example3-household", "pooled", 200, 600):
        (0.138125, 0.09879284656892766, 0.23691784656892767),
    ("risk_app", "example3-household", "prior", 200, math.inf):
        (0.135, 0.10091320999666845, 0.23591320999666845),
    ("risk_gap_present_prior", "example3-household", None, 200, 600):
        (-4.062118623330939e-05,),
    ("risk_gap_present_pooled", "example3-household", None, 200, 600):
        (0.003140104419721343,),
    ("advise_from_marginals", "example3-household", "post", 200, 600):
        (0.003140104419721343, "UsePooled"),
    ("advise_from_marginals", "example3-household", "plan", 200, 600):
        (0.003140104419721343, "UsePooled"),
    ("risk_app", "example3-household", "present", 90, 1000):
        (0.3277777777777778, 0.45707630117851356, 0.7848540789562913),
    ("risk_app", "example3-household", "prior", 90, 1000):
        (0.3025, 0.4983435698738777, 0.8008435698738776),
    ("risk_app", "example3-household", "pooled", 90, 1000):
        (0.30229357798165135, 0.4948670634990479, 0.7971606414806993),
    ("risk_app", "example3-household", "prior", 90, math.inf):
        (0.3, 0.4983368394897207, 0.7983368394897207),
    ("risk_gap_present_prior", "example3-household", None, 90, 1000):
        (-0.015989490917586294,),
    ("risk_gap_present_pooled", "example3-household", None, 90, 1000):
        (-0.012306562524407955,),
    ("advise_from_marginals", "example3-household", "post", 90, 1000):
        (-0.012306562524407955, "UsePresentOnly"),
    ("advise_from_marginals", "example3-household", "plan", 90, 1000):
        (-0.012306562524407955, "IncreaseN"),
    ("risk_app", "example3-household", "present", 1000, 1000):
        (0.0295, 0.00370231803954596, 0.03320231803954596),
    ("risk_app", "example3-household", "prior", 1000, 1000):
        (0.0295, 0.004043258784023734, 0.033543258784023734),
    ("risk_app", "example3-household", "pooled", 1000, 1000):
        (0.02825, 0.003867740623667099, 0.0321177406236671),
    ("risk_app", "example3-household", "prior", 1000, math.inf):
        (0.027, 0.004036528399866738, 0.031036528399866738),
    ("risk_gap_present_prior", "example3-household", None, 1000, 1000):
        (-0.00034094074447777313,),
    ("risk_gap_present_pooled", "example3-household", None, 1000, 1000):
        (0.0010845774158788602,),
    ("advise_from_marginals", "example3-household", "post", 1000, 1000):
        (0.0010845774158788602, "UsePooled"),
    ("advise_from_marginals", "example3-household", "plan", 1000, 1000):
        (0.0010845774158788602, "UsePooled"),
    ("risk_app", "example3-household", "present", 7, 1):
        (4.214285714285714, 75.55751101114204, 79.77179672542775),
    ("risk_app", "example3-household", "prior", 7, 1):
        (6.357142857142858, 89.10851476652105, 95.46565762366392),
    ("risk_app", "example3-household", "pooled", 7, 1):
        (4.169642857142858, 76.39506528201807, 80.56470813916093),
    ("risk_app", "example3-household", "prior", 7, math.inf):
        (3.857142857142857, 82.37813060952526, 86.23527346666812),
    ("risk_gap_present_prior", "example3-household", None, 7, 1):
        (-15.693860898236153,),
    ("risk_gap_present_pooled", "example3-household", None, 7, 1):
        (-0.7929114137331786,),
    ("advise_from_marginals", "example3-household", "post", 7, 1):
        (-0.7929114137331786, "UsePresentOnly"),
    ("advise_from_marginals", "example3-household", "plan", 7, 1):
        (-0.7929114137331786, "IncreaseN"),
}

_MODELS = ("example1-uniform100x2", "example2-breast-cancer", "example3-household")
_SIZES = ((200, 600), (90, 1000), (1000, 1000), (7, 1))


def _approximation_keys():
    for name in _MODELS:
        for n, n_star in _SIZES:
            for kind in EstimatorKind:
                yield ("risk_app", name, kind.value, n, n_star)
            yield ("risk_app", name, "prior", n, math.inf)
            yield ("risk_gap_present_prior", name, None, n, n_star)
            yield ("risk_gap_present_pooled", name, None, n, n_star)
            yield ("advise_from_marginals", name, "post", n, n_star)
            yield ("advise_from_marginals", name, "plan", n, n_star)


def _approximate(function, name, variant, n, n_star):
    model = bundled_model(name)
    dq = derive(model)
    if function == "risk_app":
        r = risk_app(EstimatorKind(variant), model, n, n_star)
        return (r.first_order, r.second_order, r.total)
    if function == "risk_gap_present_prior":
        return (gap(EstimatorKind.PRIOR, dq, n, n_star),)
    if function == "risk_gap_present_pooled":
        return (gap(EstimatorKind.POOLED, dq, n, n_star),)
    rec = advise_from_marginals(
        model.group_sizes, dq.marginals.tolist(), n, n_star, _STAGES[variant]
    )
    return (rec.statistic, rec.decision.value)


def _simulate(name, kind, n, n_star, reps, seed):
    cfg = SimulationConfig(replications=reps, seed=seed)
    model = NINE_GROUPS if name == "nine-groups" else bundled_model(name)
    r = simulate_risk(EstimatorKind(kind), model, n, n_star, cfg)
    return (r.mean_loss, r.std_error, r.discard_rate)


def _solve(name, kind, n0, n0_star, reps, seed):
    query = RssQuery(kind=RssKind(kind), n0=n0, n0_star=n0_star, method="sim",
                     config=SimulationConfig(replications=reps, seed=seed))
    return required_sample_size(query, bundled_model(name))


#: the kind run just before a pinned case to fill the engine's memo of
#: present draws at the case's key (and its prior counts, at the same n*)
_SIBLING = {"present": "pooled", "prior": "pooled", "pooled": "prior"}


def test_simulated_values_are_pinned_bitwise():
    """Each case cold, on an empty memo, and warm, right after a sibling
    kind at the same (model, n, replications, seed)."""
    cold, warm = {}, {}
    for key in SIMULATED:
        name, kind, n, n_star, reps, seed = key
        montecarlo._memo.clear()
        cold[key] = _simulate(*key)
        _simulate(name, _SIBLING[kind], n, n_star or 300, reps, seed)
        warm[key] = _simulate(*key)
    assert cold == SIMULATED
    assert warm == SIMULATED


def test_simulated_sample_sizes_are_pinned():
    got = {key: _solve(*key) for key in RSS_SIMULATED}
    assert got == RSS_SIMULATED


def test_approximated_values_are_pinned_bitwise():
    got = {key: _approximate(*key) for key in _approximation_keys()}
    assert got == APPROXIMATED


def _stdout(argv):
    """What ``surveyrisk argv`` writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


def _reproduce(method, example, table):
    reps = ["--reps", "512"] if method == "sim" else []
    return _stdout(["reproduce", "--example", str(example), "--table", table,
                    "--method", method, "--precision", "full", *reps])


def _digest(key):
    return hashlib.sha256(_reproduce(*key).encode()).hexdigest()


def test_reproduced_tables_are_pinned_bytewise():
    got = {key: _digest(key) for key in TABLES}
    assert got == TABLES


def _single_point(table, row):
    """The ``risk`` or ``rss`` command line for one row of a table."""
    model, common = row["model"], ["--method", "app", "--precision", "full"]
    if table == "risk":
        return ["risk", "--model", model, "--estimator", "all", "--n", row["n"],
                "--nstar", row["nstar"], *common]
    n0star = ["--n0star", row["n0star"]] if row["n0star"] else []
    return ["rss", "--model", model, "--kind", row["kind"], "--n0", row["n0"],
            *n0star, *common]


def test_each_reproduced_row_is_the_single_point_row():
    """``reproduce`` is ``risk --estimator all`` or ``rss`` over a grid."""
    for example, table in {key[1:] for key in TABLES if key[0] == "app"}:
        header, *lines = _reproduce("app", example, table).splitlines()
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            assert _stdout(_single_point(table, row)).splitlines() == [
                header, line]


if __name__ == "__main__":
    for key in SIMULATED:
        print(f"    {key!r}:\n        {_simulate(*key)!r},")
    for key in RSS_SIMULATED:
        print(f"    {key!r}: {_solve(*key)!r},")
    for key in _approximation_keys():
        shown = repr(key).replace(" inf)", " math.inf)")
        print(f"    {shown}:\n        {_approximate(*key)!r},")
    for key in TABLES:
        print(f"    {key!r}:\n        {_digest(key)!r},")
