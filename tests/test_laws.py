"""Law reports on seeded samples, anchored by closed-form special cases.

Each identity has at least one fixture whose value is known exactly (the
identity function, tents, monomials), and each law function gets a run on
both mass routes where that is meaningful.  The heavy sweeps live in the
acceptance module; trial counts here are kept small.
"""

import inspect
import math

import numpy as np
import pytest

from penergy import laws
from penergy.construction import MEASURE_SCHEDULE
from penergy.forms import PLIntervalForm
from penergy.laws import (
    ALL_LAWS,
    ATOM_TOL,
    CONSTRUCTION_TOL,
    DERIVATIVE_STEPS,
    ORACLE_TOL,
    ExtrapolationError,
    LawReport,
    PolyMap,
    default_map_family,
    dominant_measure,
    dyadic_sets,
    default_set_family,
    heavier_form,
    law_chain_rule,
    law_continuity,
    law_domination,
    law_functional_identity,
    law_homogeneity_shift,
    law_image_density,
    law_leibniz,
    law_locality,
    law_measure_clarkson,
    law_measure_triangle,
    law_minimal_dominant,
    law_minmax_bound,
    law_multivariable_chain,
    law_total_mass,
    law_two_variable,
    pushforward_density,
    run_all_laws,
    set_mass_oracle,
    set_masses,
    signed_mass_oracle,
    two_variable_measure,
)
from penergy.pl import IntervalSet, PLFunction, lattice, sublevel_set
from penergy.sampler import PLSampler

SAMPLER = PLSampler(seed=421)
IDENT = PLFunction.identity()
UNIFORM2 = PLIntervalForm(2.0)
UNIFORM3 = PLIntervalForm(3.0)
WEIGHTED = PLIntervalForm(2.0, weight=[(0.0, 0.4, 1.0), (0.4, 1.0, 2.5)])


# ---------------------------------------------------------------------------
# set families and mass plumbing


def test_dyadic_sets_count_and_nesting():
    sets = dyadic_sets(5)
    assert len(sets) == 63
    assert sets[0].measure() == pytest.approx(1.0)
    assert all(s.measure() == pytest.approx(2.0 ** -5) for s in sets[-32:])


def test_default_set_family_adds_unions():
    fam = default_set_family(SAMPLER, levels=2, unions=3)
    assert len(fam) == 7 + 3
    assert all(isinstance(s, IntervalSet) for s in fam)


# one cheap call of every public function that takes a mass route
ROUTE_CALLS = {
    "two_variable_measure": lambda route: two_variable_measure(
        UNIFORM2, IDENT, IDENT, dyadic_sets(1), route=route),
    "law_total_mass": lambda route: law_total_mass(
        UNIFORM2, SAMPLER, trials=1, route=route),
    "law_homogeneity_shift": lambda route: law_homogeneity_shift(
        UNIFORM2, SAMPLER, trials=1, route=route),
    "law_measure_clarkson": lambda route: law_measure_clarkson(
        UNIFORM2, SAMPLER, trials=1, route=route),
    "law_measure_triangle": lambda route: law_measure_triangle(
        UNIFORM2, SAMPLER, trials=1, route=route),
    "law_locality": lambda route: law_locality(
        UNIFORM2, SAMPLER, trials=1, route=route),
    "law_minmax_bound": lambda route: law_minmax_bound(
        UNIFORM2, SAMPLER, trials=1, route=route),
    "law_chain_rule": lambda route: law_chain_rule(
        UNIFORM2, SAMPLER, trials=1, route=route),
    "law_domination": lambda route: law_domination(
        UNIFORM2, heavier_form(UNIFORM2), SAMPLER, trials=1, route=route),
    "law_image_density": lambda route: law_image_density(
        UNIFORM2, SAMPLER, trials=1, route=route),
}


def test_route_calls_cover_every_route_taking_function():
    taking = {name for name, fn in vars(laws).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and "route" in inspect.signature(fn).parameters}
    assert taking == set(ROUTE_CALLS)


@pytest.mark.parametrize("name", sorted(ROUTE_CALLS))
def test_unknown_mass_route_is_rejected(name):
    # a miscased route must not fall through to either route
    with pytest.raises(ValueError, match="unknown mass route"):
        ROUTE_CALLS[name]("Oracle")


@pytest.mark.parametrize("form", [UNIFORM2, UNIFORM3, WEIGHTED])
def test_set_masses_match_oracle(form):
    sets = default_set_family(SAMPLER, levels=3, unions=4)
    for k in range(3):
        f = SAMPLER.pl(k)
        e = form.energy(f)
        got = set_masses(form, f, sets)
        want = np.array([set_mass_oracle(form, f, A) for A in sets])
        assert np.max(np.abs(got - want)) <= 1e-6 * max(e, 1e-12)


def test_set_masses_of_constant_are_zero():
    sets = default_set_family(SAMPLER, levels=2, unions=2)
    got = set_masses(WEIGHTED, PLFunction.constant(0.4), sets)
    assert np.all(got == 0.0)


def test_set_mass_oracle_splits_components():
    A = IntervalSet([(0.0, 0.25), (0.5, 1.0)])
    whole = set_mass_oracle(UNIFORM2, IDENT, A)
    assert whole == pytest.approx(0.75, abs=1e-15)


def test_signed_mass_oracle_identity_diagonal():
    # nu_{id;id} on [0, b] is just b for any p (slope 1 everywhere)
    for b in (0.25, 0.5, 1.0):
        got = signed_mass_oracle(UNIFORM3, IDENT, IDENT, (0.0, b))
        assert got == pytest.approx(b, abs=1e-15)


# ---------------------------------------------------------------------------
# two-variable measures by differentiation


def test_two_variable_closed_form_example():
    # u = v = id, p = 3, A = [0, 1/2]: density
    # w sgn(u')|u'|^{p-1} v' = 1, so nu(A) = 1/2
    sample = two_variable_measure(UNIFORM3, IDENT, IDENT,
                                  (IntervalSet.closed(0.0, 0.5),))
    assert sample.closed_form[0] == pytest.approx(0.5, abs=1e-15)
    assert sample.values[0] == pytest.approx(0.5, abs=1e-6)
    assert sample.extrapolation_error[0] <= 1e-6


def test_two_variable_diagonal_is_measure():
    sets = dyadic_sets(2)
    for form in (UNIFORM2, UNIFORM3):
        u = SAMPLER.nonzero_pl(5)
        sample = two_variable_measure(form, u, u, sets)
        mu = np.array([set_mass_oracle(form, u, A) for A in sets])
        budget = np.maximum(sample.extrapolation_error, 1e-9)
        assert np.all(np.abs(sample.values - mu)
                      <= 1e-3 * max(form.energy(u), 1.0) + 4.0 * budget)


def test_two_variable_linear_in_second_slot():
    sets = dyadic_sets(1)
    u = SAMPLER.nonzero_pl(7)
    v = SAMPLER.pl(101)
    w = SAMPLER.pl(102)
    a, b = 1.75, -0.6
    left = two_variable_measure(UNIFORM3, u, v * a + w * b, sets).closed_form
    right = (a * two_variable_measure(UNIFORM3, u, v, sets).closed_form
             + b * two_variable_measure(UNIFORM3, u, w, sets).closed_form)
    assert np.max(np.abs(left - right)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(right))))


def test_two_variable_constant_second_slot_vanishes():
    sets = dyadic_sets(2)
    u = SAMPLER.nonzero_pl(9)
    c = PLFunction.constant(0.8)
    sample = two_variable_measure(UNIFORM2, u, c, sets)
    assert np.max(np.abs(sample.closed_form)) == 0.0
    assert np.max(np.abs(sample.values)) <= 1e-9


def test_two_variable_rejects_bad_steps():
    with pytest.raises(ValueError):
        two_variable_measure(UNIFORM2, IDENT, IDENT, dyadic_sets(0),
                             steps=(1e-2,))
    with pytest.raises(ValueError):
        two_variable_measure(UNIFORM2, IDENT, IDENT, dyadic_sets(0),
                             steps=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        two_variable_measure(UNIFORM2, IDENT, IDENT, dyadic_sets(0),
                             steps=(1e-2, -1e-3))


def test_law_two_variable_passes():
    for form in (UNIFORM2, UNIFORM3, PLIntervalForm(1.5)):
        rep = law_two_variable(form, SAMPLER, trials=3)
        assert rep.passed, rep


# ---------------------------------------------------------------------------
# total mass, homogeneity, locality


@pytest.mark.parametrize("route", ["oracle", "construction"])
def test_law_total_mass(route):
    rep = law_total_mass(WEIGHTED, SAMPLER, trials=6, route=route)
    assert rep.passed, rep
    assert rep.law == "total_mass"
    assert rep.form["p"] == 2.0


def test_exact_zero_slack_reads_positive_zero():
    # every total_mass residual at seed 7 is exactly 0; the slack -0.0 would
    # print as "-0.0" in check_laws.csv
    rep = law_total_mass(UNIFORM2, PLSampler(7), trials=2)
    assert rep.worst_slack == 0.0
    assert math.copysign(1.0, rep.worst_slack) == 1.0


def test_law_homogeneity_density_example():
    # a = 3, p = 2.5, f = id: the scaled measure has density 3^2.5
    form = PLIntervalForm(2.5)
    scaled = set_mass_oracle(form, IDENT * 3.0, (0.0, 1.0))
    assert scaled == pytest.approx(3.0 ** 2.5, abs=1e-12)
    assert scaled == pytest.approx(15.588457, abs=1e-6)
    rep = law_homogeneity_shift(form, SAMPLER, trials=6)
    assert rep.passed, rep


@pytest.mark.parametrize("route", ["oracle", "construction"])
def test_law_homogeneity_shift(route):
    rep = law_homogeneity_shift(WEIGHTED, SAMPLER, trials=4, route=route,
                                sets=dyadic_sets(3))
    assert rep.passed, rep


@pytest.mark.parametrize("route", ["oracle", "construction"])
def test_law_locality(route):
    rep = law_locality(UNIFORM3, SAMPLER, trials=6, route=route)
    assert rep.passed, rep
    assert rep.tolerance == (ORACLE_TOL if route == "oracle" else 1e-6)


def test_locality_constant_on_set_gives_zero_mass():
    A = IntervalSet([(0.1, 0.3), (0.6, 0.8)])
    f = PLFunction([0.0, 0.1, 0.3, 0.45, 0.6, 0.8, 1.0],
                   [0.5, 1.0, 1.0, -0.2, 0.7, 0.7, 0.1])
    # constant on (0.1, 0.3) and (0.6, 0.8) separately: zero density there
    assert set_mass_oracle(UNIFORM2, f, A) == 0.0
    assert abs(set_masses(UNIFORM2, f, (A,))[0]) <= 1e-7 * UNIFORM2.energy(f)


def test_locality_disjoint_supports():
    f, g = SAMPLER.disjoint_support_pair(3)
    flat_f = _support_complement(f)
    flat_g = _support_complement(g)
    if flat_f.measure() > 0.0:
        assert set_mass_oracle(UNIFORM2, f, flat_f) == 0.0
    if flat_g.measure() > 0.0:
        assert set_mass_oracle(UNIFORM2, g, flat_g) == 0.0


def _support_complement(f):
    x, y = f.breakpoints, f.values
    flat = (y[:-1] == 0.0) & (y[1:] == 0.0)
    idx = np.nonzero(flat)[0]
    if idx.size == 0:
        return IntervalSet.empty()
    return IntervalSet((x[i], x[i + 1]) for i in idx)


# ---------------------------------------------------------------------------
# Clarkson, triangle, min/max bounds on sets


@pytest.mark.parametrize("p,route", [(1.5, "oracle"), (1.5, "construction"),
                                     (3.0, "oracle"), (3.0, "construction")])
def test_law_measure_clarkson(p, route):
    form = PLIntervalForm(p)
    rep = law_measure_clarkson(form, SAMPLER, trials=6, route=route,
                               sets=dyadic_sets(3))
    assert rep.passed, rep


@pytest.mark.parametrize("route", ["oracle", "construction"])
def test_law_measure_triangle(route):
    rep = law_measure_triangle(WEIGHTED, SAMPLER, trials=6, route=route,
                               sets=dyadic_sets(3))
    assert rep.passed, rep


def test_law_minmax_bound():
    for form in (PLIntervalForm(1.5), UNIFORM2, UNIFORM3):
        rep = law_minmax_bound(form, SAMPLER, trials=6, sets=dyadic_sets(2))
        assert rep.passed, rep


# ---------------------------------------------------------------------------
# chain rule


def test_default_map_family_covers_range():
    maps = default_map_family(-1.2, 0.9)
    assert len(maps) == 10
    for phi in maps:
        lo, hi = phi.domain
        assert lo <= -1.2 + 1e-12 and hi >= 0.9 - 1e-12


def test_law_chain_rule_oracle_and_construction():
    for route in ("oracle", "construction"):
        rep = law_chain_rule(UNIFORM2, SAMPLER, trials=2, route=route,
                             derivative_trials=1)
        assert rep.passed, rep


def test_law_chain_rule_p3_and_subquadratic():
    rep = law_chain_rule(UNIFORM3, SAMPLER, trials=2, derivative_trials=1)
    assert rep.passed, rep
    rep = law_chain_rule(PLIntervalForm(1.5), SAMPLER, trials=2,
                         derivative_trials=1)
    assert rep.passed, rep


def test_chain_rule_scaling_measures_exactly():
    # phi(t) = -2t: measure scales by |phi'|^p = 4 for p = 2
    f = SAMPLER.nonzero_pl(11)
    g = f * (-2.0)
    for A in dyadic_sets(2):
        assert set_mass_oracle(UNIFORM2, g, A) == pytest.approx(
            4.0 * set_mass_oracle(UNIFORM2, f, A), rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# Leibniz and the functional identity


def test_law_leibniz():
    for form in (UNIFORM2, UNIFORM3, WEIGHTED):
        rep = law_leibniz(form, SAMPLER, trials=3, sets=dyadic_sets(2))
        assert rep.passed, rep
        if rep.worst_case:
            assert rep.worst_case.get("budget", 0.0) >= 0.0


def test_law_functional_identity_exact_example():
    # p = 2, f = g = id: int g dmu = 1/2, E(f;fg) = 1,
    # (1/2) E(f^2;g) = 1/2, so both sides are exactly 1/2
    fixed = PLSampler(seed=0)
    rep = law_functional_identity(UNIFORM2, fixed, trials=2)
    assert rep.passed

    from penergy.laws import _density_pairing, _pairing
    lhs = _density_pairing(UNIFORM2, IDENT, IDENT)
    assert lhs == pytest.approx(0.5, abs=1e-15)
    term1 = _pairing(UNIFORM2, IDENT, [(IDENT, IDENT), (IDENT, IDENT)])
    assert term1 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_law_functional_identity(p):
    rep = law_functional_identity(PLIntervalForm(p), SAMPLER, trials=4)
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# multivariable chain rule


def test_polymap_validation():
    with pytest.raises(ValueError):
        PolyMap({})
    with pytest.raises(ValueError):
        PolyMap({(0, 0): 1.0})  # constant term
    with pytest.raises(ValueError):
        PolyMap({(4,): 1.0})  # degree 4
    with pytest.raises(ValueError):
        PolyMap({(1, 0, 0, 0): 1.0})  # four variables
    with pytest.raises(ValueError):
        PolyMap({(1, 0): 1.0, (0, 1, 1): 1.0})  # mixed arity


def test_polymap_partials():
    phi = PolyMap({(1, 1): 1.0, (3, 0): 2.0})
    dx = phi.partial(0)
    x = np.array([0.5, -1.0])
    y = np.array([2.0, 0.25])
    assert np.allclose(dx.value([x, y]), y + 6.0 * x ** 2)
    dy = phi.partial(1)
    assert np.allclose(dy.value([x, y]), x)


def test_law_multivariable_chain_defaults():
    rep = law_multivariable_chain(UNIFORM2, SAMPLER, trials=2,
                                  sets=dyadic_sets(2))
    assert rep.passed, rep


def test_law_multivariable_chain_simple_maps():
    # the three worked examples: a sum, a product, a square
    for phi in (PolyMap({(1, 0): 1.0, (0, 1): 1.0}),
                PolyMap({(1, 1): 1.0}),
                PolyMap({(2,): 1.0})):
        rep = law_multivariable_chain(UNIFORM3, SAMPLER, phi=phi, trials=2,
                                      sets=dyadic_sets(1))
        assert rep.passed, rep


def test_lattice_max_outside_smooth_chain_rule():
    """x1 v x2 is Lipschitz but not C^1, so the chain-rule law skips it.

    Recorded as a boundary case rather than asserted as a law: max cannot
    be a PolyMap (it has a kink on the diagonal), so law_multivariable_chain
    never sees it.  On the interval the crossing set of two PL functions is
    finite, so the a.e. branch-selection formula happens to hold here; what
    goes visibly wrong is any C^1 surrogate, which must smear derivative
    mass across the kink instead of selecting a branch.
    """
    f = IDENT
    g1 = PLFunction([0.0, 1.0], [0.0, 1.0])
    g2 = PLFunction([0.0, 1.0], [1.0, -1.0])  # crosses g1 at x = 1/3
    m = lattice(g1, g2, "max")
    kinks = m.breakpoints[(m.breakpoints > 0.0) & (m.breakpoints < 1.0)]
    assert kinks.size == 1 and kinks[0] == pytest.approx(1.0 / 3.0)
    assert m.slopes[0] == pytest.approx(-2.0)
    assert m.slopes[-1] == pytest.approx(1.0)
    # branch selection: d(max)/dx = g2' on {g2 > g1}, g1' on {g1 > g2}
    lhs = signed_mass_oracle(UNIFORM2, f, m, (0.0, 1.0))
    naive = (signed_mass_oracle(UNIFORM2, f, g2, (0.0, 1.0 / 3.0))
             + signed_mass_oracle(UNIFORM2, f, g1, (1.0 / 3.0, 1.0)))
    assert lhs == pytest.approx(naive, abs=1e-12)
    # averaging the branches (the only symmetric C^1-style guess with the
    # right scaling) misses by a macroscopic margin
    smeared = signed_mass_oracle(UNIFORM2, f, (g1 + g2) * 0.5, (0.0, 1.0))
    assert abs(lhs - smeared) > 0.4


# ---------------------------------------------------------------------------
# domination and the dominant measure


def test_law_domination_routes():
    heavy = heavier_form(WEIGHTED)
    for route in ("oracle", "construction"):
        rep = law_domination(WEIGHTED, heavy, SAMPLER, trials=4, route=route,
                             sets=dyadic_sets(3))
        assert rep.passed, rep


def test_law_domination_rejects_crossed_weights():
    lighter = PLIntervalForm(2.0, weight=[(0.0, 0.5, 0.2), (0.5, 1.0, 5.0)])
    with pytest.raises(ValueError, match="not ordered"):
        law_domination(WEIGHTED, lighter, SAMPLER, trials=2)
    with pytest.raises(ValueError, match="one p"):
        law_domination(UNIFORM2, UNIFORM3, SAMPLER, trials=2)


def test_dominant_measure_single_basis():
    # one basis function: density is w |u'|^p / E(u), identically 1/E for
    # the identity on the uniform form
    grid, dens = dominant_measure(UNIFORM2, [IDENT])
    assert np.allclose(dens, 1.0)
    grid, dens = dominant_measure(WEIGHTED, [IDENT])
    e = WEIGHTED.energy(IDENT)
    mids = 0.5 * (grid[:-1] + grid[1:])
    assert np.allclose(dens, WEIGHTED.weight_at(mids) / e)


def test_law_minimal_dominant():
    for form in (UNIFORM2, WEIGHTED, UNIFORM3):
        rep = law_minimal_dominant(form)
        assert rep.passed, rep


def test_dominant_measure_rejects_degenerate_basis():
    with pytest.raises(ValueError):
        dominant_measure(UNIFORM2, [])
    with pytest.raises(ValueError):
        dominant_measure(UNIFORM2, [PLFunction.constant(1.0)])


# ---------------------------------------------------------------------------
# image density


def test_pushforward_density_tent_oracle():
    tent = PLFunction.tent(height=1.0)
    for p in (1.5, 2.0, 3.0):
        form = PLIntervalForm(p)
        # two branches of slope 2: density 2 * 2^{p-1} strictly inside (0,1)
        for t in (0.2, 0.5, 0.9):
            assert pushforward_density(form, tent, t) == pytest.approx(
                2.0 * 2.0 ** (p - 1.0), abs=1e-12)
        assert pushforward_density(form, tent, 1.5) == 0.0
        assert pushforward_density(form, tent, -0.1) == 0.0


def test_pushforward_atoms_absent_oracle():
    rep = law_image_density(UNIFORM2, SAMPLER, trials=4, probes=20)
    assert rep.passed, rep
    assert rep.tolerance == ATOM_TOL


def test_pushforward_atoms_absent_construction():
    rep = law_image_density(UNIFORM2, SAMPLER, trials=2, probes=8,
                            route="construction")
    assert rep.passed, rep


def test_pushforward_flat_value_carries_no_atom():
    # a function with a genuine plateau: the plateau level is the classic
    # atom suspect, and the estimator must still see nothing
    f = PLFunction([0.0, 0.3, 0.7, 1.0], [0.0, 1.0, 1.0, -0.5])
    e = UNIFORM2.energy(f)
    fn = f * e ** -0.5
    plateau = 1.0 * e ** -0.5
    d = 1e-5
    m = [set_mass_oracle(UNIFORM2, fn, sublevel_set(fn, s))
         for s in (plateau - d, plateau - d / 2, plateau + d / 2,
                   plateau + d)]
    atom = 2.0 * (m[2] - m[1]) - (m[3] - m[0])
    assert abs(atom) <= 1e-12


# ---------------------------------------------------------------------------
# continuity


def test_law_continuity():
    rep = law_continuity(UNIFORM2, SAMPLER, trials=3, coarse=12)
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# report mechanics and the registry


def test_law_report_validates_pass_flag():
    with pytest.raises(ValueError):
        LawReport("x", {"kind": "pl"}, 0, 1, -1.0, 1e-9, True)
    rep = LawReport("x", {"kind": "pl"}, 0, 1, -1.0, 1e-9, False)
    assert not rep.passed


def test_reports_are_reproducible():
    a = law_measure_triangle(WEIGHTED, PLSampler(seed=77), trials=3,
                             sets=dyadic_sets(2))
    b = law_measure_triangle(WEIGHTED, PLSampler(seed=77), trials=3,
                             sets=dyadic_sets(2))
    assert a == b
    c = law_measure_triangle(WEIGHTED, PLSampler(seed=78), trials=3,
                             sets=dyadic_sets(2))
    assert c.seed != a.seed


def test_extrapolation_error_is_runtime_error():
    assert issubclass(ExtrapolationError, RuntimeError)


def test_run_all_laws_smoke():
    reports = run_all_laws(UNIFORM2, SAMPLER, trials=2)
    assert set(reports) == set(ALL_LAWS)
    failed = [name for name, rep in reports.items() if not rep.passed]
    assert not failed, failed
    assert all(rep.law == name or rep.law for name, rep in reports.items())


def test_registry_calls_every_sampled_law_directly():
    shims = {name for name, fn in ALL_LAWS.items()
             if fn is not getattr(laws, f"law_{name}")}
    assert shims == {"domination", "minimal_dominant"}


def test_nan_slack_fails_the_report(monkeypatch):
    def nan_masses(form, jobs, route, sched=MEASURE_SCHEDULE):
        return [np.full(sets.size, np.nan) for _, sets in jobs]

    monkeypatch.setattr(laws, "_masses", nan_masses)
    rep = law_total_mass(UNIFORM2, SAMPLER, trials=2)
    assert np.isnan(rep.worst_slack)
    assert not rep.passed
    assert rep.worst_case == {"trial": 0, "variant": "as_drawn",
                              "check": "total_mass"}
