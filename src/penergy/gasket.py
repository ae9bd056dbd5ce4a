"""Sierpinski gasket graphs, p-harmonic extension, and renormalisation.

The level-L gasket graph has 3(3^L + 1)/2 vertices and 3^(L+1) edges; cells
are the 3^L smallest triangles.  Vertices carry integer lattice labels
(i, j) meaning the point (i + j/2, j sqrt(3)/2) / 2^L, which makes vertex
deduplication exact.

``harmonic_extension`` minimises E = sum |d|^p over interior values x, with
edge differences d = B_int x + B_bnd b from the edge incidence matrix B.
One damped Newton solver, with Hessian B_int^T diag(h) B_int, does every p:
p = 2 is one solve with the graph Laplacian L = B_int^T B_int (this is
``exact_p2_extension``), p > 2 starts from it, and p < 2 follows the
smoothed energies sum (d^2 + eps^2)^(p/2) as eps shrinks to a floor.  It
stops on a Fenchel duality gap, not a gradient norm: projecting the flux
q0 = p|d|^(p-1) sgn d onto interior-divergence-free fields, q = q0 -
B_int L^-1 B_int^T q0, gives q.(B_bnd b) - (p-1) sum (|q|/p)^(p/(p-1)) <=
min E, so E minus this bound bounds the distance to the minimum.

``renormalization_constant`` computes the p-energy scaling factor by a fixed
point iteration on the circle of boundary data modulo constants: the minimal
one-step subdivision energy of a boundary datum u is homogeneous of degree p
in the datum, so the table S(theta) of energies of unit data determines the
whole functional.  Each sweep replaces S by the normalised table of
subdivision minima computed against the current S (a periodic cubic spline),
and the normaliser converges to the renormalisation constant.  For p = 2 the
table is constant (3) and the classical value 5/3 drops out in one sweep;
an exact rational oracle for that case is included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import splu

TWO_PI = 2.0 * np.pi

# orthonormal basis of the zero-sum plane in R^3 (both rows sum to 0)
_E1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
_E2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)

# Newton solver: step cap, and the smoothing width eps relative to the
# largest edge difference of the start.  For p < 2, eps starts at that
# difference and shrinks by _EPS_SHRINK after each full or rejected step;
# for p >= 2 it stays at the floor, where it only keeps h finite at flat
# edges.
_MAX_STEPS = 100
_EPS_FLOOR = 1e-16
_EPS_SHRINK = 0.3


# ---------------------------------------------------------------------------
# graph builder


@dataclass(frozen=True)
class GasketGraph:
    level: int
    coords: np.ndarray       # [n, 2] planar positions
    edge_i: np.ndarray
    edge_j: np.ndarray
    cells: np.ndarray        # [3^L, 3] vertex indices per smallest triangle
    boundary: tuple          # indices of the three corners

    @property
    def n_vertices(self) -> int:
        return self.coords.shape[0]

    @property
    def interior(self) -> np.ndarray:
        mask = np.ones(self.n_vertices, dtype=bool)
        mask[list(self.boundary)] = False
        return np.nonzero(mask)[0]


def vertex_count(level: int) -> int:
    return 3 * (3 ** level + 1) // 2


def build_gasket(level: int) -> GasketGraph:
    """Level-L gasket graph with deterministic vertex order."""
    if level < 0:
        raise ValueError("level must be >= 0")
    n = 2 ** level
    cells = [((0, 0), (n, 0), (0, n))]
    for _ in range(level):
        nxt = []
        for a, b, c in cells:
            mab = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
            mac = ((a[0] + c[0]) // 2, (a[1] + c[1]) // 2)
            mbc = ((b[0] + c[0]) // 2, (b[1] + c[1]) // 2)
            nxt += [(a, mab, mac), (b, mab, mbc), (c, mac, mbc)]
        cells = nxt
    labels = sorted({v for cell in cells for v in cell})
    index = {lab: k for k, lab in enumerate(labels)}
    coords = np.array([(i + 0.5 * j, j * np.sqrt(3.0) / 2.0) for i, j in labels])
    coords /= n
    cell_idx = np.array([[index[a], index[b], index[c]] for a, b, c in cells],
                        dtype=int)
    # edges (a, b), (a, c), (b, c) of each cell in turn, low index first
    u = cell_idx[:, [0, 0, 1]].ravel()
    v = cell_idx[:, [1, 2, 2]].ravel()
    boundary = (index[(0, 0)], index[(n, 0)], index[(0, n)])
    return GasketGraph(level, coords, np.minimum(u, v), np.maximum(u, v),
                       cell_idx, boundary)


# ---------------------------------------------------------------------------
# p-harmonic extension


def graph_energy(graph: GasketGraph, p: float, values: np.ndarray) -> float:
    """Unrenormalised edge-sum energy of one vertex-value vector."""
    v = np.asarray(values, dtype=float)
    return float(np.sum(np.abs(v[graph.edge_j] - v[graph.edge_i]) ** p))


def _factor(mat):
    # minimum degree on A + A^T suits these symmetric graph matrices: it
    # leaves about 3/4 of COLAMD's fill and halves the factorisation time
    return splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _laplacian_system(graph: GasketGraph, bv: np.ndarray):
    """B_int, the boundary part c = B_bnd bv, and the factorised L.

    Row e of the incidence matrix B is -1 at ``edge_i[e]`` and +1 at
    ``edge_j[e]``, so the edge differences of the vertex vector with
    interior values x are B_int x + c.
    """
    m = graph.edge_i.size
    b = csr_matrix((np.tile([-1.0, 1.0], m),
                    np.column_stack([graph.edge_i, graph.edge_j]).ravel(),
                    np.arange(0, 2 * m + 1, 2)),
                   shape=(m, graph.n_vertices))
    b_int = b[:, graph.interior]
    return b_int, b[:, list(graph.boundary)] @ bv, _factor(b_int.T @ b_int)


def _smoothed(p, d, eps):
    return np.sum((d * d + eps * eps) ** (0.5 * p))


def _certificate(p, d, energy, c, b_int, lap):
    """Duality gap (module docstring) and interior gradient at differences d.

    Fenchel-Young on each edge makes the bound hold for every x.
    """
    flux = p * np.abs(d) ** (p - 1.0) * np.sign(d)
    grad = b_int.T @ flux
    q = flux - b_int @ lap.solve(grad)
    lower = q @ c - (p - 1.0) * np.sum((np.abs(q) / p) ** (p / (p - 1.0)))
    return float(energy - lower), grad


@dataclass(frozen=True)
class HarmonicExtension:
    """Result of ``harmonic_extension``.

    ``gap`` is the energy minus the Fenchel dual lower bound at the returned
    values, so 0 <= energy - minimal energy <= gap up to rounding (it can
    read about -1e-16 * energy).  ``converged`` is ``gap <= tol * energy``.
    ``gradient_norm`` is the sup norm of the energy's interior gradient and
    ``iterations`` counts Newton steps.
    """

    values: np.ndarray
    energy: float            # unrenormalised edge sum
    gap: float
    gradient_norm: float
    iterations: int
    converged: bool


def harmonic_extension(graph: GasketGraph, p: float, boundary_values,
                       tol: float = 1e-11, x0=None) -> HarmonicExtension:
    """Minimise the edge-sum p-energy over interior values.

    Strict convexity of t -> |t|^p for p > 1 plus connectivity to the fixed
    boundary makes the minimiser unique.  The 2-harmonic extension seeds the
    damped Newton solver (see the module docstring) unless ``x0`` overrides
    it; the solver stops once the duality gap is at most ``tol`` times the
    energy, when a line search finds no descent, or after ``_MAX_STEPS``.
    """
    if not p > 1.0:
        raise ValueError("p must be > 1")
    bv = np.asarray(boundary_values, dtype=float)
    if bv.size != 3:
        raise ValueError("need exactly 3 boundary values")
    b_int, c, lap = _laplacian_system(graph, bv)
    x = lap.solve(-(b_int.T @ c)) if x0 is None else np.asarray(
        x0, dtype=float)[graph.interior]
    scale = float(np.abs(b_int @ x + c).max())
    floor = _EPS_FLOOR * scale
    eps = scale if p < 2.0 else floor
    steps = 0
    while True:
        d = b_int @ x + c
        energy = float(np.sum(np.abs(d) ** p))
        gap, grad = _certificate(p, d, energy, c, b_int, lap)
        if gap <= tol * energy or steps == _MAX_STEPS:
            break
        # damped Newton step on the smoothed energy
        r = d * d + eps * eps
        g = b_int.T @ (p * d * r ** (0.5 * p - 1.0))
        h = p * r ** (0.5 * p - 2.0) * ((p - 1.0) * d * d + eps * eps)
        delta = _factor(b_int.T @ diags(h) @ b_int).solve(-g)
        slope, bd = float(g @ delta), b_int @ delta
        now, t = _smoothed(p, d, eps), 1.0
        while (new := _smoothed(p, d + t * bd, eps)) > now + 1e-4 * t * slope \
                and t > 1e-12:
            t *= 0.5
        steps += 1
        if new < now:
            x = x + t * delta
        elif eps == floor:
            break            # no descent left at the floor: rounding level
        if t == 1.0 or new >= now:
            eps = max(_EPS_SHRINK * eps, floor)
    vals = np.empty(graph.n_vertices)
    vals[list(graph.boundary)], vals[graph.interior] = bv, x
    return HarmonicExtension(vals, energy, gap,
                             float(np.abs(grad).max(initial=0.0)), steps,
                             gap <= tol * energy)


def exact_p2_extension(graph: GasketGraph, boundary_values) -> np.ndarray:
    """2-harmonic extension (the p = 2 oracle).

    This is the start of ``harmonic_extension``: one solve with the graph
    Laplacian, which the p = 2 duality gap certifies before any Newton step.
    """
    return harmonic_extension(graph, 2.0, boundary_values).values


# ---------------------------------------------------------------------------
# one-step subdivision minima


def triangle_energy(p: float, values) -> float:
    a, b, c = (float(t) for t in values)
    return abs(a - b) ** p + abs(a - c) ** p + abs(b - c) ** p


def _harmonic_midpoints(u: np.ndarray) -> np.ndarray:
    """Classical 2-harmonic midpoint rule (2 near + 1 far) / 5, row-wise."""
    m = np.empty_like(u)
    m[..., 0] = (2.0 * u[..., 0] + 2.0 * u[..., 1] + u[..., 2]) / 5.0
    m[..., 1] = (2.0 * u[..., 0] + 2.0 * u[..., 2] + u[..., 1]) / 5.0
    m[..., 2] = (2.0 * u[..., 1] + 2.0 * u[..., 2] + u[..., 0]) / 5.0
    return m


@dataclass(frozen=True)
class MinExtension:
    energy: float
    midpoints: np.ndarray
    gradient_norm: float


def min_extension_energy(p: float, boundary_values,
                         tol: float = 1e-15) -> MinExtension:
    """Minimal level-1 energy over the three midpoint values.

    The three corner cells of the subdivided triangle contribute
    ``triangle_energy`` each and the removed middle triangle contributes
    nothing, so this is ``harmonic_extension`` on the level-1 graph.  The
    midpoints come in (m01, m02, m12) order.
    """
    graph = build_gasket(1)
    ext = harmonic_extension(graph, p, boundary_values, tol=tol)
    # builder order: cells[0] = (u0, m01, m02) and cells[1] = (u1, m01, m12)
    mids = ext.values[graph.cells[[0, 0, 1], [1, 2, 2]]]
    return MinExtension(ext.energy, mids, ext.gradient_norm)


def renormalization_p2_oracle() -> Fraction:
    """Exact p = 2 energy scaling ratio via rational linear algebra.

    Stationarity of the one-step quadratic in the midpoints gives the system
    A m = (v0+v1, v0+v2, v1+v2) with A = 5I - J; the base-to-minimum energy
    ratio is checked to be datum-independent before it is returned.
    """
    A = [[Fraction(4), Fraction(-1), Fraction(-1)],
         [Fraction(-1), Fraction(4), Fraction(-1)],
         [Fraction(-1), Fraction(-1), Fraction(4)]]

    def det3(M):
        return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))

    def solve3(M, b):
        d = det3(M)
        out = []
        for k in range(3):
            Mk = [row[:] for row in M]
            for r in range(3):
                Mk[r][k] = b[r]
            out.append(det3(Mk) / d)
        return out

    def k3(a, b, c):
        return (a - b) ** 2 + (a - c) ** 2 + (b - c) ** 2

    ratios = set()
    for v in ((1, 0, 0), (3, 1, -2), (2, 2, 1), (0, 5, 1)):
        v = tuple(Fraction(t) for t in v)
        b = [v[0] + v[1], v[0] + v[2], v[1] + v[2]]
        m = solve3(A, b)
        base = k3(*v)
        ext = (k3(v[0], m[0], m[1]) + k3(v[1], m[0], m[2])
               + k3(v[2], m[1], m[2]))
        if ext != 0:
            ratios.add(base / ext)
    if len(ratios) != 1:
        raise AssertionError(f"scaling ratio is datum dependent: {ratios}")
    return ratios.pop()


# ---------------------------------------------------------------------------
# renormalisation fixed point on the circle of boundary data


def _table_value_grad(p, spline, dspline, w):
    """Energy r^p S(theta) and its datum gradient for rows of w [k, 3]."""
    xi = w @ _E1
    eta = w @ _E2
    r2 = xi * xi + eta * eta
    theta = np.mod(np.arctan2(eta, xi), TWO_PI)
    s = spline(theta)
    sp = dspline(theta)
    live = r2 > 1e-240
    rp = np.where(live, np.where(live, r2, 1.0) ** (0.5 * p), 0.0)
    val = rp * s
    fac = np.where(live, np.where(live, r2, 1.0) ** (0.5 * p - 1.0), 0.0)
    gxi = fac * (p * xi * s - eta * sp)
    geta = fac * (p * eta * s + xi * sp)
    grad = gxi[:, None] * _E1[None, :] + geta[:, None] * _E2[None, :]
    return val, grad


def _subdivision_value_grad(p, spline, dspline, u, m):
    """One-step energy against the current table, plus midpoint gradient.

    Midpoint columns are ordered (m01, m02, m12); corner cell k sees the
    datum (u_k and its two adjacent midpoints).
    """
    b = u.shape[0]
    cells = np.empty((b, 3, 3))
    cells[:, 0, 0] = u[:, 0]
    cells[:, 0, 1] = m[:, 0]
    cells[:, 0, 2] = m[:, 1]
    cells[:, 1, 0] = u[:, 1]
    cells[:, 1, 1] = m[:, 0]
    cells[:, 1, 2] = m[:, 2]
    cells[:, 2, 0] = u[:, 2]
    cells[:, 2, 1] = m[:, 1]
    cells[:, 2, 2] = m[:, 2]
    val, grad = _table_value_grad(p, spline, dspline, cells.reshape(-1, 3))
    val = val.reshape(b, 3).sum(axis=1)
    grad = grad.reshape(b, 3, 3)
    gm = np.empty_like(m)
    gm[:, 0] = grad[:, 0, 1] + grad[:, 1, 1]
    gm[:, 1] = grad[:, 0, 2] + grad[:, 2, 1]
    gm[:, 2] = grad[:, 1, 2] + grad[:, 2, 2]
    return val, gm


def _minimize_midpoints(p, spline, dspline, u, m0, gtol=1e-11,
                        max_iter=80):
    """Damped Newton over all rows at once; FD Hessian of the exact grad."""

    def f(mm):
        return _subdivision_value_grad(p, spline, dspline, u, mm)

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


@dataclass(frozen=True)
class RenormalizationResult:
    p: float
    rho: float
    residual: float          # sup-norm self-consistency of the final table
    iterations: int
    converged: bool
    table_deviation: float   # (max - min) / mean of the fixed-point table
    rho_trace: tuple
    grid_size: int


def renormalization_constant(p: float, grid_size: int = 256,
                             tol: float = 1e-9, max_iterations: int = 400,
                             ) -> RenormalizationResult:
    """p-energy renormalisation constant of the gasket.

    Iterates the normalised one-step subdivision map on the table of minimal
    energies of unit boundary data (see the module docstring).  The reported
    residual is the relative sup-norm change of the table in the last sweep,
    and ``rho`` is the last normaliser.
    """
    if not p > 1.0:
        raise ValueError("p must be > 1")
    theta = np.linspace(0.0, TWO_PI, grid_size, endpoint=False)
    u = np.cos(theta)[:, None] * _E1 + np.sin(theta)[:, None] * _E2

    table = (np.abs(u[:, 0] - u[:, 1]) ** p
             + np.abs(u[:, 0] - u[:, 2]) ** p
             + np.abs(u[:, 1] - u[:, 2]) ** p)
    m = _harmonic_midpoints(u)
    trace = []
    residual = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        xs = np.append(theta, TWO_PI)
        ys = np.append(table, table[0])
        spline = CubicSpline(xs, ys, bc_type="periodic")
        dspline = spline.derivative()
        m, val, _ = _minimize_midpoints(p, spline, dspline, u, m)
        # the subdivision map is homogeneous of degree 1 in the table, so
        # its scale direction is exactly neutral; normalising by the grid
        # mean (interpolation free) pins it, and at the fixed point the
        # mean ratio equals the pointwise scaling constant
        rho = float(table.sum() / val.sum())
        new_table = rho * val
        residual = float(np.max(np.abs(new_table - table))
                         / np.max(np.abs(table)))
        trace.append(rho)
        table = new_table
        if residual < tol and iterations >= 2:
            converged = True
            break
    deviation = float((table.max() - table.min()) / table.mean())
    return RenormalizationResult(p, float(trace[-1]), residual, iterations,
                                 converged, deviation, tuple(trace),
                                 grid_size)
