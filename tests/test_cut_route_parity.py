"""Cut-route fold limits against values recorded from an earlier build.

The pins in ``tests/test_law_pins.py`` cover the identity route bit for
bit, and only two cut-route results.  These values of the other cut-route
callers (image density on the construction route, a distribution with its
traces, a covering with every level of the batch it runs, a
two-sided cap and one plain limit) were recorded from the per-lid
evaluator before the vectorised window producer replaced it.  They keep
their stop levels and pass flags exactly and their values to 1e-14 E(f):
the band arithmetic is elementwise, and only summation order moves bits.
On these gentle witnesses the exact lid, cut at the true crossings of the
band's levels, and the lid pl.shifted_cut builds agree to rounding.  A
cover whose witnesses rise by 5 over 1e-6 is checked against its plateaus
instead: there the two lids differ, and the exact one converges to f's
energy on each sublevel set."""

import numpy as np
import pytest

from penergy.construction import (F_value, FoldSchedule, _cut_run,
                                  covering_check, distribution,
                                  two_sided_cut_limit)
from penergy.forms import PLIntervalForm
from penergy.laws import law_image_density
from penergy.pl import PLFunction, sublevel_set
from penergy.sampler import PLSampler
from references import LAW_SCHEDULE

# (levels, energies, converged) per trace
RECORDED = {'F_value': ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17),
             [1.5811058749371076, 1.5535035607045027, 1.5397024035882003,
              1.5328018250300484, 1.527233704371015, 1.5255085597314768,
              1.5251754452566983, 1.524479430174319, 1.5242637870943765,
              1.5241559655544055, 1.5241037913718922, 1.5240916449570834],
             True),
 'covering': (1.9224839619999639, [1.992658313560818, 0.6764089357199164],
              0.7465832872807705, True, True),
 'distribution': ([0.0, 6.865118830296392e-06, 7.451678393834114e-06,
                   5.287154805275948e-06, 5.287154805419687e-06,
                   1.2462713358895774, 2.68527360587228, 3.43178326462335,
                   3.459533698159702, 3.4811438777483463,
                   3.4811418072179796],
                  [((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                     0.0, 0.0, 0.0, 0.0],
                    True),
                   ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [0.09509262346595439, 0.03003870703679945,
                     0.03003870703679963, 0.001244125588889014,
                     0.0012441255888889472, 0.0012441255888889472,
                     0.0012441255888889472, 0.0007110514502166242,
                     0.00026653706933628125, 0.00022225719044017143,
                     2.2139939448012485e-05, 2.213993944767685e-05,
                     2.2139939447927605e-05, 8.409701787821444e-06,
                     6.865118830296392e-06],
                    True),
                   ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [0.10321739001008075, 0.03260523084344077,
                     0.03260523084344021, 0.0013504243699391696,
                     0.0013504243699383718, 0.001350424369938256,
                     0.0013504243699380262, 0.0007718040808959726,
                     0.00028931014452003253, 0.00024124696818723026,
                     2.4031588165438527e-05, 2.4031588166260647e-05,
                     2.403158816519986e-05, 9.128231376437068e-06,
                     7.451678393834114e-06],
                    True),
                   ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [0.07323535594857375, 0.023134238197377675,
                     0.023134238197377675, 0.0009581603391101777,
                     0.0009581603391101109, 0.0009581603391101109,
                     0.0009581603391101109, 0.000547614569420274,
                     0.00020527288484491852, 0.00017117084228767776,
                     1.705102127854386e-05, 1.7051021278696903e-05,
                     1.7051021277821973e-05, 6.4767116670796866e-06,
                     5.287154805275948e-06],
                    True),
                   ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [0.07323535594857328, 0.023134238197377133,
                     0.02313423819737729, 0.0009581603391101896,
                     0.0009581603391094776, 0.0009581603391095278,
                     0.0009581603391096299, 0.000547614569419776,
                     0.00020527288484440816, 0.00017117084228782318,
                     1.7051021277261277e-05, 1.7051021278754847e-05,
                     1.7051021277937867e-05, 6.4767116671677306e-06,
                     5.287154805419687e-06],
                    True),
                   ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [1.3749908241901583, 1.3150083452855295,
                     1.2732194240015573, 1.2641226451912297,
                     1.2536754148702356, 1.2499265099386947,
                     1.2480520574729255, 1.2471148312400404,
                     1.2467744876690412, 1.246504080954688,
                     1.246386927675577, 1.246328351036022,
                     1.2462900489489581, 1.2462786579695244,
                     1.2462713358895774],
                    True),
                   ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [2.8141083059094987, 2.7541258270048696,
                     2.7123369057208975, 2.703012921148057,
                     2.6927928965895753, 2.689043991658036,
                     2.687169539192266, 2.686232312959382,
                     2.6857636998429384, 2.6855293932847175,
                     2.6853732561066637, 2.6853306210187244,
                     2.685301332698946, 2.685280927952226,
                     2.68527360587228],
                    True),
                   ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [3.5018033832471267, 3.4397059123142086,
                     3.436126648178333, 3.4343370161103945,
                     3.4334422000764255, 3.432994792059441,
                     3.432771088050948, 3.431849704743113,
                     3.4319056307452356, 3.431909011591455,
                     3.431783974182248, 3.4317875840862935,
                     3.431791079461426, 3.431785622357867,
                     3.43178326462335],
                    True),
                   ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [3.52796187236233, 3.463942718847915,
                     3.4603634547120383, 3.461867489033333,
                     3.4627623050673018, 3.460785387670813,
                     3.4605616836623203, 3.459561384388658,
                     3.4595936292399445, 3.459621592241006,
                     3.459574569793619, 3.4595590735364024,
                     3.459536319691052, 3.4595345720034856,
                     3.459533698159702],
                    True),
                   ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [3.513974265431501, 3.5139742654315005,
                     3.483898189897542, 3.4838981898975425,
                     3.483898189897542, 3.4828340296500513,
                     3.481673887341725, 3.4816738873417243,
                     3.4811658027331887, 3.4811658027331887,
                     3.4811658027331887, 3.4811658027331878,
                     3.4811525664302048, 3.4811484253694713,
                     3.4811438777483463],
                    True),
                   ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20),
                    [3.4811418072179796, 3.4811418072179796,
                     3.4811418072179796, 3.4811418072179796,
                     3.4811418072179796, 3.4811418072179796,
                     3.4811418072179796, 3.4811418072179796,
                     3.4811418072179796, 3.4811418072179796,
                     3.4811418072179796, 3.4811418072179796,
                     3.4811418072179796, 3.4811418072179796,
                     3.4811418072179796],
                    True)]),
 'image_density 1.5': (-2.329672010858985e-10, True,
                       {'trial': 1,
                        'value': 1.4141207967643161,
                        'width': 0.0001}),
 'image_density 3.0': (-3.3103131347189674e-10, True,
                       {'trial': 1,
                        'value': 1.0544100971703803,
                        'width': 0.0001}),
 'two_sided': ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20),
               [1.2071294189877217, 1.1185984626666239, 1.1052757057315197,
                1.0868141534399882, 1.0795778359921977, 1.0752853171394594,
                1.0735782899680275, 1.0717695717048372, 1.071358477270656,
                1.0711912058524644, 1.0710776933690582, 1.0709899586252907,
                1.070946421677259, 1.0709328340559292, 1.070928170587076],
               True)}


# (levels, energy rows) of the batch each covering check runs
BATCHES = {'covering': ((6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19),
              [[1.9500589896389626, 2.0254096690924963, 0.6853598678109991],
               [1.9342758609314559, 2.0096265403849896, 0.6909675197424897],
               [1.9294300615839943, 2.001734976031236, 0.6867273314174328],
               [1.9282383347253458, 1.9977891938543597, 0.6802774984339603],
               [1.924557260333296, 1.9958163027659213, 0.6788807483868385],
               [1.923829043011558, 1.9933799021405723, 0.6776049931068283],
               [1.9233358202394488, 1.9931384906301637, 0.6769191026291924],
               [1.9227267200831113, 1.9930025567526903, 0.6767627543556719],
               [1.922603414390084, 1.992833940551995, 0.676446455335634],
               [1.9225417615435705, 1.9927269760205786, 0.676485542404013],
               [1.9225109351203136, 1.9926961495973219, 0.6764340328444914],
               [1.9224955219086852, 1.9926807363856933, 0.6764242610773976],
               [1.922487815302871, 1.992661702005808, 0.6764131337933141],
               [1.9224839619999639,
                1.992658313560818,
                0.6764089357199164]])}


REL = 1e-14


def _assert_trace(trace, want, energy):
    levels, energies, converged = want
    assert trace.levels == levels
    assert trace.converged == converged
    assert np.max(np.abs(np.array(trace.energies) - energies)) \
        <= REL * energy


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_image_density_construction_route(p):
    # each sampled f is rescaled to unit energy, so E(f) = 1
    rep = law_image_density(PLIntervalForm(p), PLSampler(seed=11), trials=2,
                            probes=50, route="construction")
    slack, passed, case = RECORDED[f"image_density {p}"]
    assert rep.passed == passed
    assert rep.worst_case == case
    assert abs(rep.worst_slack - slack) <= REL


def test_distribution_values_and_traces():
    form = PLIntervalForm(2.0, weight=[(0.0, 0.35, 0.5), (0.35, 1.0, 2.5)])
    f, g = PLSampler(seed=137).pl_pair(6)
    glo, ghi = g.value_range()
    d = distribution(form, f, g, np.linspace(glo - 0.05, ghi + 0.05, 11),
                     LAW_SCHEDULE)
    values, traces = RECORDED["distribution"]
    energy = form.energy(f)
    assert np.max(np.abs(d.values - values)) <= REL * energy
    for trace, want in zip(d.traces, traces, strict=True):
        _assert_trace(trace, want, energy)


def _covering(cover_of, key):
    form = PLIntervalForm(2.0)
    f, g = PLSampler(seed=137).pl_pair(13)
    a, cover = cover_of(g)
    rep = covering_check(form, f, g, a, cover, LAW_SCHEDULE)
    covered, parts, slack, converged, passed = RECORDED[key]
    tol = REL * form.energy(f)
    assert (rep.converged, rep.passed) == (converged, passed)
    assert abs(rep.covered_value - covered) <= tol
    assert np.max(np.abs(np.array(rep.cover_values) - parts)) <= tol
    assert abs(rep.slack - slack) <= 3.0 * tol
    # the batch covering_check runs: its stop level and every level
    levels, rows = BATCHES[key]
    run = _cut_run(form, f, [(g, a)] + cover, LAW_SCHEDULE)
    assert run.levels == levels
    assert np.max(np.abs(run.energies - rows)) <= tol


def test_covering_check():
    def cover(g):
        lo, hi = g.value_range()
        h = PLSampler(seed=137).pl(40)
        return lo + 0.5 * (hi - lo), [(g, lo + 0.6 * (hi - lo)),
                                      (h, float(np.median(h.values)))]
    _covering(cover, "covering")


def test_covering_check_with_steep_witnesses():
    # the cover witnesses rise by 5 over 1e-6: the producer cuts their
    # bands at the exact crossings, whose energy of about 5e6 2^-n is quiet
    # below 1e-5 E(f) only near n = 36, past LAW_SCHEDULE's n_max of 24;
    # each cover value then lies on its plateau, f's energy on its
    # sublevel set, to well within the stall tolerance
    form = PLIntervalForm(2.0)
    f, g = PLSampler(seed=137).pl_pair(13)
    a = float(np.mean(g.value_range()))
    left = PLFunction([0.0, 0.5, 0.500001, 1.0], [0.0, 0.0, 5.0, 5.0])
    right = PLFunction([0.0, 0.499999, 0.5, 1.0], [5.0, 5.0, 0.0, 0.0])
    cover = [(g + left, a), (g + right, a)]
    rep = covering_check(form, f, g, a, cover, FoldSchedule(6, 48, 1e-5))
    assert rep.converged and rep.passed
    energy = form.energy(f)
    for value, (w, b) in zip(rep.cover_values, cover, strict=True):
        plateau = sum(form.energy_between(f, lo, hi)
                      for lo, hi in sublevel_set(w, b).components)
        assert 0.0 <= value - plateau <= 1e-10 * energy


def test_two_sided_cut_limit_trace():
    form = PLIntervalForm(2.0)
    f, g = PLSampler(seed=137).pl_pair(14)
    glo, ghi = g.value_range()
    trace = two_sided_cut_limit(form, f, g, glo + 0.3 * (ghi - glo),
                                glo + 0.7 * (ghi - glo), LAW_SCHEDULE)
    _assert_trace(trace, RECORDED["two_sided"], form.energy(f))


def test_F_value_trace():
    form = PLIntervalForm(3.0, weight=[(0.0, 0.4, 1.0), (0.4, 1.0, 2.0)])
    f, g = PLSampler(seed=137).pl_pair(3)
    trace = F_value(form, f, g, float(np.mean(g.value_range())),
                    LAW_SCHEDULE)
    _assert_trace(trace, RECORDED["F_value"], form.energy(f))
