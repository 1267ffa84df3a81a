"""Golden fixtures: simulated and analytic values pinned to the last bit.

Each ``SIMULATED`` entry is the full-precision ``repr`` of (mean_loss,
std_error, discard_rate) for one (model, kind, n, n*, replications,
seed).  The cases cover all three bundled models, the prior and pooled
kinds, a present size with discards (breast-cancer at n = 60),
replication counts that are not multiples of ``BLOCK_SIZE`` and a seed
above 2**63.

``APPROXIMATED`` pins the analytic side for every bundled model at four
(n, n*) pairs: each kind's ``risk_app`` terms (first_order,
second_order, total), the prior's floor at n* = inf, both risk gaps, and
the advisor's statistic and decision with the true marginals plugged in.

A change that moves any of these values, even in the last bit, changes
what the package reproduces.  Update the fixture only on purpose, and
record why in CHANGES.md; ``python tests/test_golden.py`` prints the
current values in the fixture's layout.
"""

from __future__ import annotations

import math

import numpy as np

from surveyrisk import (
    EstimatorKind,
    SimulationConfig,
    advise_from_marginals,
    bundled_model,
    derive,
    risk_app,
    risk_gap_present_pooled,
    risk_gap_present_prior,
    sample_surveys,
    simulate_risk,
)

#: (model, kind, n, n*, replications, seed) -> (mean_loss, std_error, discard_rate)
SIMULATED = {
    ("example1-uniform100x2", "prior", 200, 600, 5000, 7):
        (0.5731845825279915, 0.0005801988485471751, 0.0),
    ("example1-uniform100x2", "pooled", 90, 1000, 4097, 2019):
        (1.0844685443293027, 0.0008514933618345438, 0.0),
    ("example2-breast-cancer", "present", 60, None, 6000, 0):
        (0.11922625094602339, 0.0005562496858991662, 0.2679355783308931),
    ("example2-breast-cancer", "prior", 60, 300, 6000, 0):
        (0.10147233586046109, 0.0005747033434566234, 0.2679355783308931),
    ("example2-breast-cancer", "pooled", 60, 300, 6000, 0):
        (0.09931064769965009, 0.0005496967968740516, 0.2679355783308931),
    ("example2-breast-cancer", "pooled", 200, 1000, 9000, 20190415):
        (0.029328508722547122, 0.000130439749635762, 0.010662855886556008),
    ("example3-household", "prior", 1000, 1000, 5000, 3):
        (0.0302233173813171, 7.91386846815633e-05, 0.0),
    ("example3-household", "pooled", 300, 2000, 4100, 2**63 + 5):
        (0.09473699475566272, 0.0002824123512110953, 0.00048756704046806434),
}

#: (model, n, n*, default_rng seed) -> (present cells, prior counts, discarded)
SAMPLED = {
    ("example2-breast-cancer", 40, 500, 11): (
        ((2, 5, 2), (1, 6, 5), (4, 4, 4), (3, 2, 1), (0, 0, 1)),
        (64, 157, 165, 104, 10),
        2,
    ),
    ("example3-household", 500, 2000, 3): (
        ((1, 0, 3, 3, 2, 2, 0, 0, 1, 0), (1, 5, 8, 7, 28, 26, 10, 2, 1, 1),
         (3, 7, 6, 21, 23, 48, 36, 18, 7, 5), (3, 3, 9, 13, 7, 31, 22, 18, 11, 5),
         (3, 4, 17, 15, 14, 18, 10, 8, 3, 0), (0, 2, 2, 4, 0, 1, 2, 0, 0, 0)),
        (86, 381, 611, 544, 332, 46),
        0,
    ),
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
        r = risk_app(EstimatorKind(variant), dq, n, n_star)
        return (r.first_order, r.second_order, r.total)
    if function == "risk_gap_present_prior":
        return (risk_gap_present_prior(dq, n, n_star),)
    if function == "risk_gap_present_pooled":
        return (risk_gap_present_pooled(dq, n, n_star),)
    rec = advise_from_marginals(
        model.group_sizes, dq.marginals.tolist(), n, n_star, variant
    )
    return (rec.statistic, rec.decision.value)


def _simulate(name, kind, n, n_star, reps, seed):
    cfg = SimulationConfig(replications=reps, seed=seed)
    r = simulate_risk(EstimatorKind(kind), bundled_model(name), n, n_star, cfg)
    return (r.mean_loss, r.std_error, r.discard_rate)


def _sample(name, n, n_star, seed):
    counts, discarded = sample_surveys(
        bundled_model(name), n, n_star, np.random.default_rng(seed)
    )
    return (counts.present, counts.prior, discarded)


def test_simulated_values_are_pinned_bitwise():
    got = {key: _simulate(*key) for key in SIMULATED}
    assert got == SIMULATED


def test_approximated_values_are_pinned_bitwise():
    got = {key: _approximate(*key) for key in _approximation_keys()}
    assert got == APPROXIMATED


def test_sampled_surveys_are_pinned():
    got = {key: _sample(*key) for key in SAMPLED}
    assert got == SAMPLED


if __name__ == "__main__":
    for key in SIMULATED:
        print(f"    {key!r}:\n        {_simulate(*key)!r},")
    for key in SAMPLED:
        print(f"    {key!r}: {_sample(*key)!r},")
    for key in _approximation_keys():
        shown = repr(key).replace(" inf)", " math.inf)")
        print(f"    {shown}:\n        {_approximate(*key)!r},")
