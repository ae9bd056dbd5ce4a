"""Gasket geometry, p-harmonic extension, and renormalisation checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from penergy import gasket

# an overflow at a tiny smoothing width or a singular Newton matrix
# (MatrixRankWarning) must fail a test rather than pass silently
pytestmark = pytest.mark.filterwarnings("error")


# ---------------------------------------------------------------------------
# geometry


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_vertex_and_edge_counts(level):
    g = gasket.build_gasket(level)
    assert g.n_vertices == 3 * (3 ** level + 1) // 2
    assert g.edge_i.size == 3 ** (level + 1)
    assert g.cells.shape == (3 ** level, 3)


def test_boundary_corners():
    g = gasket.build_gasket(3)
    pts = g.coords[list(g.boundary)]
    assert np.allclose(pts[0], [0.0, 0.0])
    assert np.allclose(pts[1], [1.0, 0.0])
    assert np.allclose(pts[2], [0.5, np.sqrt(3.0) / 2.0])


def test_edges_are_unique_and_short():
    g = gasket.build_gasket(2)
    pairs = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
    assert len(pairs) == g.edge_i.size
    lengths = np.hypot(*(g.coords[g.edge_j] - g.coords[g.edge_i]).T)
    assert np.allclose(lengths, 0.25)


def test_edges_follow_cells():
    # edges (a, b), (a, c), (b, c) of each cell in turn, low index first
    g = gasket.build_gasket(4)
    ref = [(min(u, v), max(u, v)) for a, b, c in g.cells.tolist()
           for u, v in ((a, b), (a, c), (b, c))]
    assert list(zip(g.edge_i.tolist(), g.edge_j.tolist())) == ref


def test_builder_is_deterministic():
    a = gasket.build_gasket(3)
    b = gasket.build_gasket(3)
    assert np.array_equal(a.edge_i, b.edge_i)
    assert np.array_equal(a.coords, b.coords)


# ---------------------------------------------------------------------------
# harmonic extension


def _midpoint_indices(g):
    """Indices of the three level-1 midpoints by their plane positions."""
    targets = {"m01": (0.5, 0.0), "m02": (0.25, np.sqrt(3.0) / 4.0),
               "m12": (0.75, np.sqrt(3.0) / 4.0)}
    out = {}
    for name, xy in targets.items():
        d = np.hypot(g.coords[:, 0] - xy[0], g.coords[:, 1] - xy[1])
        out[name] = int(np.argmin(d))
        assert d[out[name]] < 1e-12
    return out


def test_level_one_harmonic_values():
    g = gasket.build_gasket(1)
    vals = gasket.exact_p2_extension(g, [1.0, 0.0, 0.0])
    mid = _midpoint_indices(g)
    assert vals[mid["m01"]] == pytest.approx(0.4, abs=1e-13)
    assert vals[mid["m02"]] == pytest.approx(0.4, abs=1e-13)
    assert vals[mid["m12"]] == pytest.approx(0.2, abs=1e-13)


def _triangle_energy(p, values):
    """Edge-sum energy of one triangle: the level-0 gasket graph."""
    return gasket.graph_energy(gasket.build_gasket(0), p, values)


def test_level_one_energies():
    g = gasket.build_gasket(1)
    assert _triangle_energy(2.0, (1.0, 0.0, 0.0)) == pytest.approx(2.0)
    ext = gasket.harmonic_extension(g, 2.0, [1.0, 0.0, 0.0])
    assert ext.energy == pytest.approx(1.2, abs=1e-13)
    assert ext.converged


def test_min_extension_energy_p2_closed_form():
    graph = gasket.build_gasket(1)
    res = gasket.harmonic_extension(graph, 2.0, (1.0, 0.0, 0.0), tol=1e-15)
    # cells[0] = (u0, m01, m02) and cells[1] = (u1, m01, m12)
    midpoints = res.values[graph.cells[[0, 0, 1], [1, 2, 2]]]
    assert res.energy == pytest.approx(1.2, abs=1e-14)
    assert np.allclose(midpoints, [0.4, 0.4, 0.2])


def test_min_extension_energy_p3_below_flat_candidate():
    res = gasket.harmonic_extension(gasket.build_gasket(1), 3.0,
                                    (1.0, 0.0, 0.0), tol=1e-15)
    # linear interpolation along edges is admissible, so the min is lower
    flat = (_triangle_energy(3.0, (1.0, 0.5, 0.5))
            + _triangle_energy(3.0, (0.0, 0.5, 0.0))
            + _triangle_energy(3.0, (0.0, 0.5, 0.0)))
    assert 0.0 < res.energy <= flat
    assert res.gradient_norm <= 1e-9


def test_deep_p2_extension_matches_sparse_solve():
    g = gasket.build_gasket(3)
    direct = gasket.exact_p2_extension(g, [1.0, -0.5, 0.25])
    ext = gasket.harmonic_extension(g, 2.0, [1.0, -0.5, 0.25])
    assert np.allclose(ext.values, direct, atol=1e-12)


@pytest.mark.parametrize("level", range(8))
def test_p2_oracle_is_the_p2_extension_to_the_bit(level):
    # the oracle is the extension's start solve alone; at p = 2 the
    # extension takes no Newton step from it
    g = gasket.build_gasket(level)
    for bv in ([1.0, 0.0, 0.0], [1.0, -0.5, 0.25], [0.0, 0.3, 1.0],
               [-2.0, 7.5, 1e-3]):
        ext = gasket.harmonic_extension(g, 2.0, bv)
        assert ext.iterations == 0 and ext.converged
        assert gasket.exact_p2_extension(g, bv).tobytes() == \
            ext.values.tobytes()
    with pytest.raises(ValueError, match="3 boundary values"):
        gasket.exact_p2_extension(g, [1.0, 0.0])


@pytest.mark.parametrize("level", range(8))
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_constant_boundary_data_give_the_constant(level, p):
    # energy 0 and gap 0 at once, with no Newton step and x0 unused
    g = gasket.build_gasket(level)
    x0 = np.linspace(-1.0, 1.0, g.n_vertices)
    for start in (None, x0):
        ext = gasket.harmonic_extension(g, p, (0.3, 0.3, 0.3), x0=start)
        assert np.all(ext.values == 0.3) and ext.values.size == g.n_vertices
        assert (ext.energy, ext.gap, ext.gradient_norm) == (0.0, 0.0, 0.0)
        assert ext.iterations == 0 and ext.converged


def test_p3_extension_unique_minimiser():
    g = gasket.build_gasket(2)
    a = gasket.harmonic_extension(g, 3.0, [1.0, 0.0, -1.0])
    rng = np.random.default_rng(11)
    x0 = a.values + 0.2 * rng.normal(size=a.values.size)
    b = gasket.harmonic_extension(g, 3.0, [1.0, 0.0, -1.0], x0=x0)
    assert a.converged and b.converged
    assert np.max(np.abs(a.values - b.values)) <= 1e-6
    # minimality: beats the 2-harmonic extension measured in the p=3 energy
    p2 = gasket.exact_p2_extension(g, [1.0, 0.0, -1.0])
    assert a.energy <= gasket.graph_energy(g, 3.0, p2) + 1e-12


@pytest.mark.parametrize("x0", [np.zeros(100), np.zeros(5),
                                np.full(15, np.nan)],
                         ids=["too long", "too short", "nan"])
def test_extension_rejects_malformed_start(x0):
    g = gasket.build_gasket(2)
    assert g.n_vertices == 15
    with pytest.raises(ValueError, match="x0"):
        gasket.harmonic_extension(g, 3.0, [1.0, 0.0, -1.0], x0=x0)


def test_p15_extension_converges():
    g = gasket.build_gasket(2)
    ext = gasket.harmonic_extension(g, 1.5, [1.0, 0.3, 0.0])
    assert ext.converged
    assert ext.energy < gasket.graph_energy(
        g, 1.5, gasket.exact_p2_extension(g, [1.0, 0.3, 0.0])) + 1e-12


def _fenchel_lower_bound(g, p, boundary_values, values):
    """Energy of ``values`` and a lower bound on the minimal energy.

    Independent of the solver: the edge flux p|d|^(p-1) sgn d is made
    interior-divergence-free by a sparse least-squares projection, and
    Fenchel-Young on each edge then bounds every admissible energy below.
    """
    m = g.edge_i.size
    rows = np.repeat(np.arange(m), 2)
    cols = np.stack([g.edge_i, g.edge_j], axis=1).ravel()
    inc = coo_matrix((np.tile([-1.0, 1.0], m), (rows, cols)),
                     shape=(m, g.n_vertices)).tocsc()
    b_int = inc[:, g.interior]
    c = inc[:, list(g.boundary)] @ np.asarray(boundary_values, dtype=float)
    d = values[g.edge_j] - values[g.edge_i]
    flux = p * np.abs(d) ** (p - 1.0) * np.sign(d)
    q = flux - b_int @ spsolve((b_int.T @ b_int).tocsc(), b_int.T @ flux)
    lower = q @ c - (p - 1.0) * np.sum((np.abs(q) / p) ** (p / (p - 1.0)))
    return float(np.sum(np.abs(d) ** p)), float(lower)


def _weighted_laplacian(g, h):
    """B^T diag(h) B, assembled edge by edge as a sparse matrix."""
    i, j = g.edge_i, g.edge_j
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([h, h, -h, -h])
    return coo_matrix((vals, (rows, cols)),
                      shape=(g.n_vertices, g.n_vertices)).tocsr()


def _backward_error(lap, inner, x, load):
    """max |L x - load| over interior rows, relative to |L| |x| + |load|."""
    rows = lap[inner]
    res = rows @ x - load[inner]
    scale = (abs(rows).sum(axis=1).max() * np.abs(x).max()
             + np.abs(load[inner]).max(initial=0.0))
    return float(np.abs(res).max(initial=0.0) / scale)


@pytest.mark.parametrize("weights", ["unit", "16 decades"])
@pytest.mark.parametrize("level", range(8))
def test_cell_solver_matches_a_sparse_solve(level, weights):
    g = gasket.build_gasket(level)
    rng = np.random.default_rng(100 + level)
    h = np.ones(g.edge_i.size) if weights == "unit" \
        else 10.0 ** rng.uniform(-8.0, 8.0, g.edge_i.size)
    load = rng.normal(size=g.n_vertices)
    bv = rng.normal(size=3)
    corners = np.zeros(g.n_vertices)
    corners[list(g.boundary)] = bv
    elim = gasket._eliminate(g, h)
    got = gasket._solve(elim, load, corners)
    # one elimination serves any number of solves, bit for bit
    assert gasket._solve(elim, load, corners).tobytes() == got.tobytes()
    assert got[list(g.boundary)].tobytes() == bv.tobytes()
    inner = g.interior
    if level < 2:    # no interior vertex at level 0, three at level 1
        assert inner.size == 3 * level
    if inner.size == 0:
        assert got.tobytes() == corners.tobytes()
        return
    lap = _weighted_laplacian(g, h)
    ref = corners.copy()
    ref[inner] = spsolve(lap[inner][:, inner].tocsc(),
                         load[inner] - lap[inner][:, list(g.boundary)] @ bv)
    mine = _backward_error(lap, inner, got, load)
    theirs = _backward_error(lap, inner, ref, load)
    assert mine <= theirs + 1e-12
    if weights == "unit":
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("boundary", [(0.0, 1.0, 0.3), (1.0, 0.0, 0.0)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("level", [5, 6, 7])
def test_extension_within_independent_duality_gap(level, p, boundary):
    g = gasket.build_gasket(level)
    ext = gasket.harmonic_extension(g, p, boundary)
    energy, lower = _fenchel_lower_bound(g, p, boundary, ext.values)
    assert ext.converged
    assert ext.energy == pytest.approx(energy, rel=1e-13)
    assert energy - lower <= 1e-10 * energy


@pytest.mark.parametrize("level", [5, 7])
def test_p12_extension_reports_its_gap_honestly(level):
    g = gasket.build_gasket(level)
    bv = (0.0, 1.0, 0.3)
    tol = 1e-10
    ext = gasket.harmonic_extension(g, 1.2, bv, tol=tol)
    assert ext.converged == (ext.gap <= tol * ext.energy)
    assert np.isfinite(ext.gap)
    assert ext.gap >= -1e-15 * ext.energy
    start = gasket.exact_p2_extension(g, bv)
    assert ext.energy <= gasket.graph_energy(g, 1.2, start)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_level_energy_ratio_matches_renormalization(p):
    # the minimal level-m energies of fixed data scale like rho_p^-m, so
    # E_6 / E_7 is a second route to the fixed point's rho_p
    bv = (0.0, 1.0, 0.3)
    e6, e7 = (gasket.harmonic_extension(gasket.build_gasket(m), p, bv).energy
              for m in (6, 7))
    rho = gasket.renormalization_constant(p).rho
    assert e6 / e7 == pytest.approx(rho, rel=1e-5)


# ---------------------------------------------------------------------------
# renormalisation


def test_p2_oracle_is_exactly_five_thirds():
    assert gasket.renormalization_p2_oracle() == Fraction(5, 3)


def test_renormalization_p2_fixed_point():
    res = gasket.renormalization_constant(2.0, grid_size=64, tol=1e-10)
    assert res.converged
    assert abs(res.rho - 5.0 / 3.0) <= 1e-10
    assert res.table_deviation <= 1e-10


def test_renormalization_p3_converges():
    res = gasket.renormalization_constant(3.0, grid_size=96, tol=1e-7,
                                          max_iterations=400)
    assert res.converged
    assert res.residual <= 1e-7
    assert res.rho > 1.0
    # the last two normalisers agree to the sweep tolerance scale
    assert abs(res.rho_trace[-1] - res.rho_trace[-2]) <= 1e-6


def _random_spline(rng, n):
    table = rng.uniform(1.0, 3.0, n)
    return table, gasket._periodic_spline(table)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 31, 256])
def test_periodic_spline_matches_scipy(n):
    rng = np.random.default_rng(n)
    table, spline = _random_spline(rng, n)
    nodes = np.linspace(0.0, gasket.TWO_PI, n, endpoint=False)
    ref = CubicSpline(np.append(nodes, gasket.TWO_PI),
                      np.append(table, table[0]), bc_type="periodic")
    theta = np.concatenate([[0.0, gasket.TWO_PI], nodes,
                            rng.uniform(0.0, gasket.TWO_PI, 200)])
    s, sp, spp = gasket._spline_eval(spline, theta)
    np.testing.assert_allclose(s, ref(theta), rtol=0, atol=1e-13)
    np.testing.assert_allclose(sp, ref(theta, 1), rtol=0, atol=1e-11)
    np.testing.assert_allclose(spp, ref(theta, 2), rtol=0, atol=1e-9)
    # the nodes themselves reproduce the table
    np.testing.assert_allclose(s[2:n + 2], table, rtol=0, atol=1e-13)


def test_periodic_spline_reads_nan_at_nan():
    _, spline = _random_spline(np.random.default_rng(0), 7)
    s, sp, spp = gasket._spline_eval(spline, np.array([np.nan, 1.0]))
    assert np.isnan([s[0], sp[0], spp[0]]).all()
    assert np.isfinite([s[1], sp[1], spp[1]]).all()


@pytest.mark.parametrize("p", [1.1, 1.235, 3.0, 4.963, 6.0])
def test_exact_midpoint_hessian_matches_gradient_differences(p):
    # central differences of the exact gradient, with the probe width the
    # finite-difference Newton solver used: h = 1e-6 (1 + max |m|)
    rng = np.random.default_rng(7)
    _, spline = _random_spline(rng, 64)
    u = rng.normal(size=(40, 3))
    m = rng.normal(size=(40, 3))
    _, _, hess = gasket._subdivision_value_grad(p, spline, u, m)
    h = 1e-6 * (1.0 + np.abs(m).max(axis=1))
    fd = np.empty_like(hess)
    for d in range(3):
        dm = np.zeros_like(m)
        dm[:, d] = h
        _, gp, _ = gasket._subdivision_value_grad(p, spline, u, m + dm)
        _, gq, _ = gasket._subdivision_value_grad(p, spline, u, m - dm)
        fd[:, :, d] = (gp - gq) / (2.0 * h)[:, None]
    scale = np.abs(hess).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(hess - fd) <= 1e-5 * scale)
    assert np.array_equal(hess, hess.transpose(0, 2, 1))


def literal_newton_step(p, spline, u, m):
    """One step of the midpoint solver whose Armijo search evaluates every
    row at every trial: the loop the row-subset search must reproduce.
    Also returns the number of rows that halved their step."""
    val, g, hess = gasket._subdivision_value_grad(p, spline, u, m)
    active = np.abs(g).max(axis=1) > 1e-11 * (1.0 + np.abs(val))
    step = -np.linalg.solve(hess + 1e-12 * np.eye(3), g[:, :, None])[:, :, 0]
    desc = np.einsum("ij,ij->i", step, g)
    step[desc >= 0.0] = -g[desc >= 0.0]
    desc = np.einsum("ij,ij->i", step, g)
    t = np.where(active, 1.0, 0.0)
    for _ in range(45):
        trial = m + t[:, None] * step
        vt, _, _ = gasket._subdivision_value_grad(p, spline, u, trial)
        ok = vt <= val + 1e-4 * t * desc + 1e-14 * (1.0 + np.abs(val))
        ok |= ~active
        if ok.all():
            break
        t = np.where(ok, t, 0.5 * t)
    return trial, int(np.sum((t > 0.0) & (t < 1.0)))


@pytest.mark.parametrize("p", [1.1, 1.235, 1.5])
def test_row_subset_line_search_matches_the_literal_search(p):
    # the first sweep's start at a spiky table makes rows halve their step
    rng = np.random.default_rng(3)
    theta = np.linspace(0.0, gasket.TWO_PI, 48, endpoint=False)
    u = np.cos(theta)[:, None] * gasket._E1 + np.sin(theta)[:, None] * gasket._E2
    spline = gasket._periodic_spline(rng.uniform(1.0, 3.0, 48))
    m = gasket._harmonic_midpoints(u) + 0.2 * rng.normal(size=u.shape)
    want, halved = literal_newton_step(p, spline, u, m)
    got, _, _ = gasket._minimize_midpoints(p, spline, u, m, max_iter=1)
    assert halved > 0
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


# rho_p and sweep counts of the solver with a finite-difference Hessian on
# a scipy spline; the exact Hessian and the numpy spline keep them
RECORDED_RHO = {
    1.1: (0.9996846725886127, 5),
    1.235: (1.02205017113398, 9),
    1.5: (1.177231921800028, 13),
    3.0: (3.4560039898981194, 17),
    4.963: (14.36518043133005, 22),
    6.0: (30.185883801606774, 23),
}


@pytest.mark.parametrize("p", sorted(RECORDED_RHO))
def test_renormalization_matches_recorded_values(p):
    rho, iterations = RECORDED_RHO[p]
    res = gasket.renormalization_constant(p)
    assert res.converged
    assert res.iterations == iterations
    assert res.rho == pytest.approx(rho, rel=1e-14, abs=0.0)


RECORDED_TINY = {
    (1.5, 1): (1.1785520533363663, 2), (1.5, 2): (1.1785520533363663, 2),
    (1.5, 3): (1.178552053336366, 2), (1.5, 4): (1.178122216193138, 12),
    (1.5, 5): (1.1774865635844092, 12),
    (3.0, 1): (3.3723838665559263, 2), (3.0, 2): (3.372383866555926, 2),
    (3.0, 3): (3.3723838665559254, 2), (3.0, 4): (3.3994028783649837, 19),
    (3.0, 5): (3.449015712379322, 13),
}


@pytest.mark.parametrize("p, n", sorted(RECORDED_TINY))
def test_renormalization_on_tiny_grids(p, n):
    rho, iterations = RECORDED_TINY[p, n]
    res = gasket.renormalization_constant(p, grid_size=n)
    assert res.converged
    assert res.iterations == iterations
    assert res.rho == pytest.approx(rho, rel=1e-14, abs=0.0)


def test_renormalization_grid_consistency():
    a = gasket.renormalization_constant(3.0, grid_size=96, tol=1e-7)
    b = gasket.renormalization_constant(3.0, grid_size=128, tol=1e-7)
    assert abs(a.rho - b.rho) <= 2e-5


def test_renormalization_rejects_bad_p():
    with pytest.raises(ValueError):
        gasket.renormalization_constant(1.0)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_renormalization_rejects_non_finite_p(p):
    with pytest.raises(ValueError, match="p must be"):
        gasket.renormalization_constant(p)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_harmonic_extension_rejects_non_finite_p(p):
    with pytest.raises(ValueError, match="p must be"):
        gasket.harmonic_extension(gasket.build_gasket(1), p, (1.0, 0.0, 0.0))


def test_renormalized_level_energy_is_stable_p2():
    # E_L(harmonic extension) with rho = 5/3 reproduces E_0 at every level
    base = _triangle_energy(2.0, (1.0, 0.0, 0.0))
    for level in (1, 2, 3):
        g = gasket.build_gasket(level)
        vals = gasket.exact_p2_extension(g, [1.0, 0.0, 0.0])
        e = gasket.graph_energy(g, 2.0, vals)
        assert (5.0 / 3.0) ** level * e == pytest.approx(base, rel=1e-12)
