"""Gasket geometry, p-harmonic extension, and renormalisation checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
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
    assert g.n_vertices == gasket.vertex_count(level)
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


def test_level_one_energies():
    g = gasket.build_gasket(1)
    assert gasket.triangle_energy(2.0, (1.0, 0.0, 0.0)) == pytest.approx(2.0)
    ext = gasket.harmonic_extension(g, 2.0, [1.0, 0.0, 0.0])
    assert ext.energy == pytest.approx(1.2, abs=1e-13)
    assert ext.converged


def test_min_extension_energy_p2_closed_form():
    res = gasket.min_extension_energy(2.0, (1.0, 0.0, 0.0))
    assert res.energy == pytest.approx(1.2, abs=1e-14)
    assert np.allclose(res.midpoints, [0.4, 0.4, 0.2])


def test_min_extension_energy_p3_below_flat_candidate():
    res = gasket.min_extension_energy(3.0, (1.0, 0.0, 0.0))
    # linear interpolation along edges is admissible, so the min is lower
    flat = (gasket.triangle_energy(3.0, (1.0, 0.5, 0.5))
            + gasket.triangle_energy(3.0, (0.0, 0.5, 0.0))
            + gasket.triangle_energy(3.0, (0.0, 0.5, 0.0)))
    assert 0.0 < res.energy <= flat
    assert res.gradient_norm <= 1e-9


def test_deep_p2_extension_matches_sparse_solve():
    g = gasket.build_gasket(3)
    direct = gasket.exact_p2_extension(g, [1.0, -0.5, 0.25])
    ext = gasket.harmonic_extension(g, 2.0, [1.0, -0.5, 0.25])
    assert np.allclose(ext.values, direct, atol=1e-12)


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


def per_direction_minimize(p, spline, dspline, u, m0, gtol=1e-11,
                           max_iter=80):
    """The midpoint Newton solver with one pair of Hessian probes per
    direction: the loop the batched probes must reproduce to the last bit."""

    def f(mm):
        return gasket._subdivision_value_grad(p, spline, dspline, u, mm)

    m = m0.copy()
    val, g = f(m)
    b = m.shape[0]
    eye = np.eye(3)
    for _ in range(max_iter):
        gn = np.abs(g).max(axis=1)
        active = gn > gtol * (1.0 + np.abs(val))
        if not active.any():
            break
        h = 1e-6 * (1.0 + np.abs(m).max(axis=1))
        hess = np.empty((b, 3, 3))
        for d in range(3):
            dm = np.zeros_like(m)
            dm[:, d] = h
            _, gp = f(m + dm)
            _, gq = f(m - dm)
            hess[:, :, d] = (gp - gq) / (2.0 * h)[:, None]
        hess = 0.5 * (hess + hess.transpose(0, 2, 1)) + 1e-12 * eye
        try:
            step = -np.linalg.solve(hess, g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = -g.copy()
        bad = ~np.isfinite(step).all(axis=1)
        step[bad] = -g[bad]
        desc = np.einsum("ij,ij->i", step, g)
        flip = desc >= 0.0
        step[flip] = -g[flip]
        desc = np.einsum("ij,ij->i", step, g)
        t = np.where(active, 1.0, 0.0)
        trial, vt, gt = m, val, g
        for _ in range(45):
            trial = m + t[:, None] * step
            vt, gt = f(trial)
            ok = vt <= val + 1e-4 * t * desc + 1e-14 * (1.0 + np.abs(val))
            ok |= ~active
            if ok.all():
                break
            t = np.where(ok, t, 0.5 * t)
        m, val, g = trial, vt, gt
    return m, val, g


@pytest.mark.parametrize("p", [1.235, 3.0, 4.963])
def test_batched_hessian_probes_keep_the_bits(p, monkeypatch):
    batched = gasket.renormalization_constant(p)
    monkeypatch.setattr(gasket, "_minimize_midpoints", per_direction_minimize)
    literal = gasket.renormalization_constant(p)
    assert np.array(batched.rho_trace).tobytes() \
        == np.array(literal.rho_trace).tobytes()
    assert batched.residual.hex() == literal.residual.hex()
    assert batched.iterations == literal.iterations
    assert batched.table_deviation.hex() == literal.table_deviation.hex()


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
    base = gasket.triangle_energy(2.0, (1.0, 0.0, 0.0))
    for level in (1, 2, 3):
        g = gasket.build_gasket(level)
        vals = gasket.exact_p2_extension(g, [1.0, 0.0, 0.0])
        e = gasket.graph_energy(g, 2.0, vals)
        assert (5.0 / 3.0) ** level * e == pytest.approx(base, rel=1e-12)
