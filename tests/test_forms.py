"""Closed-form and sampled checks of the three model energy forms."""

import numpy as np
import pytest

from penergy.forms import (
    AssumptionsReport,
    GraphForm,
    PLIntervalForm,
    SGForm,
    check_assumptions,
    check_clarkson,
    form_from_descriptor,
)
from penergy.gasket import renormalization_constant
from penergy.pl import PLFunction, PLMap, affine_combine, cut, triangle_fold
from penergy.sampler import PLSampler
from references import check_fold_identity

SAMPLER = PLSampler(seed=91)


# ---------------------------------------------------------------------------
# PL interval form, closed forms


def test_tent_energy_is_one_for_all_p():
    tent = PLFunction.tent(0.5)
    for p in (1.5, 2.0, 2.5, 3.0, 4.0):
        assert PLIntervalForm(p).energy(tent) == pytest.approx(1.0, abs=1e-14)


def test_linear_function_energy():
    f = PLFunction(np.array([0.0, 1.0]), np.array([-1.0, 1.0]))
    form = PLIntervalForm(2.0)
    assert form.energy(f) == pytest.approx(4.0, abs=1e-14)
    nodes, dens = form.density_cells(f)
    assert np.allclose(dens, 4.0)


def test_weighted_energy_closed_form():
    form = PLIntervalForm(3.0, weight=[(0.0, 0.5, 2.0), (0.5, 1.0, 0.5)])
    ident = PLFunction.identity()
    assert form.energy(ident) == pytest.approx(2.0 * 0.5 + 0.5 * 0.5,
                                               abs=1e-14)


def test_energy_between_tent():
    form = PLIntervalForm(2.0)
    tent = PLFunction.tent(0.5)
    assert form.energy_between(tent, 0.25, 0.6) == pytest.approx(0.35,
                                                                 abs=1e-14)
    assert form.energy_between(tent, 0.3, 0.3) == 0.0
    assert form.energy_between(tent, 0.0, 1.0) == pytest.approx(1.0)


def test_cumulative_energy_endpoints_and_monotone():
    form = PLIntervalForm(1.5, weight=[(0.0, 0.3, 1.0), (0.3, 1.0, 2.5)])
    f = SAMPLER.pl(0)
    nodes, cum = form.cumulative_energy(f)
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(form.energy(f), rel=1e-13)
    assert np.all(np.diff(cum) >= -1e-15)


def test_homogeneity_exact_power():
    form = PLIntervalForm(2.5)
    tent = PLFunction.tent(0.5)
    assert form.energy(tent * 3.0) == pytest.approx(3.0 ** 2.5, rel=1e-13)
    assert form.energy(tent * -3.0) == pytest.approx(3.0 ** 2.5, rel=1e-13)


def test_weight_validation():
    with pytest.raises(ValueError):
        PLIntervalForm(2.0, weight=[(0.0, 0.5, 1.0)])
    with pytest.raises(ValueError):
        PLIntervalForm(2.0, weight=[(0.0, 0.6, 1.0), (0.6, 1.0, -2.0)])
    with pytest.raises(ValueError):
        PLIntervalForm(1.0)
    with pytest.raises(ValueError, match="at least one cell"):
        PLIntervalForm(2.0, weight=[])
    # a gap or an overlap between cells, in any order, is not a cover
    for cells in ([(0.0, 0.3, 1.0), (0.5, 1.0, 2.0)],
                  [(0.0, 0.7, 1.0), (0.5, 1.0, 2.0)],
                  [(0.5, 1.0, 2.0), (0.0, 0.3, 1.0)],
                  [(0.0, 0.5, 1.0), (0.5, 0.6, 2.0), (0.7, 1.0, 3.0)],
                  [(0.0, 0.5, 1.0), (0.5 + 1e-9, 1.0, 2.0)],
                  [(0.0, np.nan, 1.0), (0.5, 1.0, 2.0)]):
        with pytest.raises(ValueError, match="consecutive|finite"):
            PLIntervalForm(2.0, weight=cells)
    # ends within GEOM_TOL of each other still meet
    form = PLIntervalForm(2.0, weight=[(0.0, 0.5 + 1e-13, 1.0),
                                       (0.5, 1.0, 2.0)])
    assert form.weight_bounds.tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("build", [
    lambda: PLIntervalForm(np.inf),
    lambda: PLIntervalForm(np.nan),
    lambda: PLIntervalForm(2.0, weight=[(0.0, 1.0, np.nan)]),
    lambda: PLIntervalForm(2.0, weight=[(0.0, 0.5, np.inf), (0.5, 1.0, 1.0)]),
    lambda: GraphForm(2, [(0, 1, 1.0)], np.inf),
    lambda: GraphForm(2, [(0, 1, np.nan)], 2.0),
    lambda: GraphForm(2, [(0, 1, np.inf)], 2.0),
    lambda: GraphForm(2, [(0, 1, 1.0)], 2.0, vertex_weights=[np.nan, 1.0]),
    lambda: SGForm(1, np.inf),
    lambda: SGForm(1, 3.0, rho=np.inf),
    lambda: SGForm(1.5, 2.0),
])
def test_forms_reject_non_finite_and_non_integral_numbers(build):
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# directional derivative


def test_derivative_of_energy_along_itself():
    for p in (1.5, 2.0, 3.0):
        form = PLIntervalForm(p)
        for k in range(5):
            u = SAMPLER.with_slope_floor(0.05).pl(k)
            assert form.energy_derivative(u, u) == pytest.approx(
                form.energy(u), rel=1e-12)


def test_derivative_against_identity_base():
    # u = x has slope 1, so the derivative pairing integrates v' exactly
    form = PLIntervalForm(2.7)
    u = PLFunction.identity()
    for k in range(5):
        v = SAMPLER.pl(k)
        expected = v(1.0) - v(0.0)
        assert form.energy_derivative(u, v) == pytest.approx(expected,
                                                             abs=1e-12)


def _richardson_slope(form, u, v, t):
    def central(s):
        lo = form.energy(affine_combine(1.0, u, -s, v))
        hi = form.energy(affine_combine(1.0, u, s, v))
        return (hi - lo) / (2.0 * s * form.p)
    return (4.0 * central(t / 2.0) - central(t)) / 3.0


@pytest.mark.parametrize("p,tol", [(2.0, 1e-9), (3.0, 1e-7), (1.5, 1e-4)])
def test_derivative_matches_difference_quotient(p, tol):
    form = PLIntervalForm(p)
    src = SAMPLER.with_slope_floor(0.05) if p < 2.0 else SAMPLER
    for k in range(8):
        u = src.pl(k)
        v = src.pl(k + 100)
        got = form.energy_derivative(u, v)
        ref = _richardson_slope(form, u, v, 1e-3)
        scale = max(abs(ref), form.energy(u), 1.0)
        assert abs(got - ref) <= tol * scale


# ---------------------------------------------------------------------------
# graph form


def _path_graph(p):
    return GraphForm(3, [(0, 1, 1.0), (1, 2, 2.0)], p)


def test_graph_energy_closed_form():
    g = _path_graph(3.0)
    assert g.energy([0.0, 1.0, 3.0]) == pytest.approx(1.0 + 2.0 * 8.0)
    assert g.seminorm([0.0, 1.0, 3.0]) == pytest.approx(17.0 ** (1 / 3))


def test_graph_energy_measure_atoms():
    g = _path_graph(2.0)
    mu = g.energy_measure([0.0, 1.0, 3.0])
    assert mu.total_mass() == pytest.approx(g.energy([0.0, 1.0, 3.0]))
    assert mu.on_vertices({0, 1}) == pytest.approx(1.0)
    assert mu.on_vertices({1, 2}) == pytest.approx(8.0)
    assert mu.on_vertices({0, 2}) == 0.0


def test_graph_derivative_matches_quotient():
    g = _path_graph(2.5)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        got = g.energy_derivative(u, v)
        t = 1e-4
        ref = (g.energy(u + t * v) - g.energy(u - t * v)) / (2 * t * g.p)
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-10)


def test_graph_requires_connectivity():
    with pytest.raises(ValueError):
        GraphForm(4, [(0, 1, 1.0), (2, 3, 1.0)], 2.0)


def test_graph_descriptor_round_trip():
    g = GraphForm(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5)], 1.5,
                  vertex_weights=[1.0, 2.0, 3.0])
    h = form_from_descriptor(g.to_descriptor())
    vals = [0.3, -1.0, 2.0]
    assert h.energy(vals) == pytest.approx(g.energy(vals), rel=1e-15)


# ---------------------------------------------------------------------------
# Clarkson inequalities


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_clarkson_pl(p):
    rep = check_clarkson(PLIntervalForm(p), SAMPLER, trials=40)
    assert rep.passed
    if p <= 2.0:
        assert rep.slacks["CI1"] is not None and rep.slacks["CI2"] is not None
    if p >= 2.0:
        assert rep.slacks["CI3"] is not None and rep.slacks["CI4"] is not None
    if p == 2.0:
        # parallelogram law: every slack collapses to rounding noise
        for s in rep.slacks.values():
            assert abs(s) <= 1e-12


def test_clarkson_graph():
    g = GraphForm(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (0, 3, 1.5)],
                  3.0)
    rep = check_clarkson(g, PLSampler(seed=7), trials=48)
    assert rep.passed


# ---------------------------------------------------------------------------
# assumption audit


def test_assumptions_pl():
    rep = check_assumptions(PLIntervalForm(1.5), SAMPLER, trials=16)
    assert isinstance(rep, AssumptionsReport)
    assert rep.passed
    for name in ("triangle", "homogeneity", "unit_contraction",
                 "normal_contraction", "strong_locality"):
        assert name in rep.checks
    assert "banach" in rep.notes


def test_assumptions_graph_skips_locality():
    g = _path_graph(2.0)
    rep = check_assumptions(g, PLSampler(seed=3), trials=16)
    assert rep.passed
    assert "strong_locality" not in rep.checks
    assert "strong_locality" in rep.notes


# ---------------------------------------------------------------------------
# fold identity


def test_fold_identity_absolute_value():
    form = PLIntervalForm(2.0)
    f = SAMPLER.pl(3)
    phi = PLMap.absolute(-4.0, 4.0)
    rep = check_fold_identity(form, f, phi, [-4.0, 0.0, 4.0])
    assert rep.passed
    assert rep.rel_gap <= 1e-12
    assert rep.fold_invariance_gap <= 1e-12
    assert rep.lipschitz == (1.0, 1.0)


def test_fold_identity_uneven_slopes():
    form = PLIntervalForm(1.5)
    f = SAMPLER.pl(9)
    # zig-zag with per-cell slopes 2, -1, 0.5 on [-4, 4]
    phi = PLMap(np.array([-4.0, -1.0, 1.0, 4.0]),
                np.array([-5.0, 1.0, -1.0, 0.5]))
    shift = phi.evaluate(0.0)
    phi = PLMap(phi.breakpoints, phi.values - shift)
    rep = check_fold_identity(form, f, phi, [-4.0, -1.0, 1.0, 4.0])
    assert rep.passed
    assert rep.rel_gap <= 1e-12


def test_fold_identity_rejects_bad_inputs():
    form = PLIntervalForm(2.0)
    f = PLFunction.tent(0.5)
    phi = PLMap.absolute(-1.0, 1.0)
    with pytest.raises(ValueError):
        check_fold_identity(form, f, phi, [-1.0, 1.0])  # kink off partition
    with pytest.raises(ValueError):
        check_fold_identity(form, f, phi, [0.2, 0.6, 1.0])  # range not spanned
    bad = PLMap(np.array([-1.0, 1.0]), np.array([0.5, 1.5]))  # phi(0) != 0
    with pytest.raises(ValueError):
        check_fold_identity(form, f, bad, [-1.0, 1.0])


def test_triangle_fold_preserves_energy_deep():
    form = PLIntervalForm(2.5)
    f = SAMPLER.pl(4)
    e = form.energy(f)
    for n in (1, 3, 6, 9):
        assert form.energy(triangle_fold(f, n)) == pytest.approx(e, rel=1e-11)


def test_double_cut_partition_recovers_energy():
    # summing double cuts over any partition of the range recovers E(f)
    form = PLIntervalForm(3.0)
    f = SAMPLER.pl(11)
    lo, hi = f.value_range()
    cuts = np.linspace(lo - 0.1, hi + 0.1, 7)
    total = sum(form.energy(cut(f, a, b))
                for a, b in zip(cuts[:-1], cuts[1:]))
    assert total == pytest.approx(form.energy(f), rel=1e-12)


# ---------------------------------------------------------------------------
# SG form surface (exact values live in test_gasket)


def test_sg_form_energy_scaling():
    form = SGForm(1, 2.0)
    vals = np.arange(form.graph.n_vertices, dtype=float)
    base = np.sum(np.abs(vals[form.graph.edge_j]
                         - vals[form.graph.edge_i]) ** 2)
    assert form.energy(vals) == pytest.approx(5.0 / 3.0 * base, rel=1e-14)
    assert form.rho == pytest.approx(5.0 / 3.0)


def test_sg_form_energy_derivative_is_the_energy_slope():
    # (1/p) d/dt E(u + t v) at t = 0, by a central difference on level 2
    form = SGForm(2, 3.0, rho=1.5)
    u, v = np.random.default_rng(7).uniform(-1.0, 1.0,
                                            (2, form.graph.n_vertices))
    h = 1e-5
    slope = (form.energy(u + h * v) - form.energy(u - h * v)) / (2.0 * h)
    assert form.energy_derivative(u, v) == pytest.approx(slope / form.p,
                                                         rel=1e-9)


def test_sg_form_build_fills_in_rho():
    assert SGForm.build(1, 2.0).rho == 5.0 / 3.0
    assert SGForm.build(1, 3.0).rho == renormalization_constant(
        3.0, tol=1e-9).rho


def test_sg_form_requires_rho_for_general_p():
    with pytest.raises(ValueError):
        SGForm(1, 3.0)


def test_sg_descriptor_round_trip():
    form = SGForm(2, 2.0)
    clone = form_from_descriptor(form.to_descriptor())
    vals = np.linspace(0.0, 1.0, form.graph.n_vertices)
    assert clone.energy(vals) == pytest.approx(form.energy(vals), rel=1e-15)
