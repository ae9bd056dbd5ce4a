"""Sierpinski gasket graphs, p-harmonic extension, and renormalisation.

The level-L gasket graph has 3(3^L + 1)/2 vertices and 3^(L+1) edges; cells
are the 3^L smallest triangles.  Vertices carry integer lattice labels
(i, j) meaning the point (i + j/2, j sqrt(3)/2) / 2^L, which makes vertex
deduplication exact.

``harmonic_extension`` minimises E = sum |d|^p over interior values x, with
edge differences d = B_int x + B_bnd b from the edge incidence matrix B.
One damped Newton solver, with Hessian B_int^T diag(h) B_int, does every p:
p = 2 is one solve with unit h, the Laplacian L (``exact_p2_extension``),
p > 2 starts from it, and p < 2 follows the smoothed energies sum (d^2 +
eps^2)^(p/2) as eps shrinks to a floor.  Solves eliminate cell by cell.  It
stops on a Fenchel duality gap, not a gradient norm: projecting the flux
q0 = p|d|^(p-1) sgn d onto interior-divergence-free fields, q = q0 -
B_int L^-1 B_int^T q0, gives q.(B_bnd b) - (p-1) sum (|q|/p)^(p/(p-1)) <=
min E, so E minus this bound bounds the distance to the minimum.

``renormalization_constant`` computes the p-energy scaling factor by a fixed
point iteration on the circle of boundary data modulo constants: the minimal
one-step subdivision energy of a boundary datum u is homogeneous of degree p
in the datum, so the table S(theta) of energies of unit data determines the
whole functional.  Each sweep replaces S by the normalised table of
subdivision minima computed against the current S, and the normaliser
converges to the renormalisation constant.  S is a uniform periodic cubic
spline solved by FFT, and Newton steps take the exact Hessian of r^p S(theta).
For p = 2 the table is constant (3) and the classical value 5/3 drops out in
one sweep; an exact rational oracle for that case is included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .forms import _check_p

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


def _divergence(graph: GasketGraph, flux: np.ndarray) -> np.ndarray:
    """B^T flux as a vertex vector: B_int^T flux at the interior."""
    return np.bincount(graph.edge_j, flux, graph.n_vertices) \
        - np.bincount(graph.edge_i, flux, graph.n_vertices)


def _eliminate(graph: GasketGraph, h: np.ndarray):
    """Eliminate each cell's midpoints x = m01, y = m02, z = m12 from the
    Laplacian with edge conductances h, smallest cells first.

    A cell meets the rest of the graph at its corners a, b, c only, so it
    acts as a triangle of conductances.  Cell i's children 3i, 3i + 1 and
    3i + 2 start at its corners; x, y are child 0's others and z is child
    1's last.  Star-mesh steps at x, y, z add only positive terms, so no
    pivot is needed.  Each level keeps [M | W]: M inverts its midpoint
    block and W maps its corner values to midpoint values.
    """
    cond, cells, out = h.reshape(-1, 3), graph.cells, []
    for _ in range(graph.level):
        kids = cells.reshape(-1, 3, 3)
        cells, mids = kids[:, :, 0], kids[:, [0, 0, 1], [1, 2, 2]].T.copy()
        ax, ay, xy, bx, bz, xz, cy, cz, yz = cond.reshape(-1, 9).T
        dx = ax + bx + xy + xz
        wxy, wxz = xy / dx, xz / dx
        ya, yb, yz = ay + ax * wxy, bx * wxy, yz + xy * wxz
        dy = ya + yb + cy + yz
        wyz = yz / dy
        z = (ax * wxz + ya * wyz, bz + bx * wxz + yb * wyz, cz + cy * wyz)
        one, zero = np.ones_like(dx), np.zeros_like(dx)
        mw = np.empty((3, 6, dx.size))   # back substitution, rows z, y, x
        mw[2] = np.divide((wxz + wyz * wxy, wyz, one) + z, sum(z))
        mw[1] = np.divide((wxy, one, zero, ya, yb, cy), dy) + wyz * mw[2]
        mw[0] = np.divide((one, zero, zero, ax, bx, zero), dx) \
            + wxy * mw[1] + wxz * mw[2]
        cond = np.vstack([ax * mw[0, 4:] + ay * mw[1, 4:],      # -L_cm W
                          bx * mw[0, 5] + bz * mw[2, 5]]).T
        out.append((cells.T.ravel(), mids, mw))
    return out


def _solve(elim, load, v) -> np.ndarray:
    """v's boundary values extended by the vertex values whose Laplacian
    is ``load`` at the interior: going up, each cell passes W^T times its
    midpoints' loads to its corners; going down, [M | W] gives them values.
    """
    load, v, kept = np.array(load, dtype=float), np.array(v, dtype=float), []
    for cells, mids, mw in elim:
        kept.append(load[mids])
        push = (mw[:, 3:] * kept[-1][:, None]).sum(0)
        load += np.bincount(cells, push.ravel(), load.size)
    for (cells, mids, mw), lm in zip(reversed(elim), reversed(kept)):
        v[mids] = (mw * np.concatenate([lm, v[cells.reshape(3, -1)]])).sum(1)
    return v


def _smoothed(p, d, eps):
    return np.sum((d * d + eps * eps) ** (0.5 * p))


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
    ``x0`` holds one finite value per vertex in builder order; its boundary
    entries are ignored.  Equal boundary values give the constant extension,
    of energy and gap 0, with no step taken and ``x0`` unused.
    """
    _check_p(p)
    bv = np.asarray(boundary_values, dtype=float)
    if bv.size != 3:
        raise ValueError("need exactly 3 boundary values")
    n, bnd = graph.n_vertices, list(graph.boundary)
    i, j = graph.edge_i, graph.edge_j
    if x0 is not None:
        x0 = np.array(x0, dtype=float)
        if x0.shape != (n,) or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must hold one finite value per vertex")
        x0[bnd] = bv
    if bv.min() == bv.max():
        return HarmonicExtension(np.full(n, bv[0]), 0.0, 0.0, 0.0, 0, True)
    unit = _eliminate(graph, np.ones(i.size))
    b = np.bincount(bnd, bv, n)
    x = _solve(unit, np.zeros(n), b) if x0 is None else x0
    c = b[j] - b[i]                                  # B_bnd b
    scale = float(np.abs(x[j] - x[i]).max())
    floor = _EPS_FLOOR * scale
    eps = scale if p < 2.0 else floor
    steps = 0
    while True:
        d = x[j] - x[i]
        energy = float(np.sum(np.abs(d) ** p))
        # duality gap (module docstring), by Fenchel-Young on each edge; z
        # has zero boundary values, as (B_int z + c) - c would lose ulp(c)
        flux = p * np.abs(d) ** (p - 1.0) * np.sign(d)
        grad = _divergence(graph, flux)
        z = _solve(unit, grad, np.zeros(n))
        q = flux - (z[j] - z[i])
        lower = q @ c - (p - 1.0) * np.sum((np.abs(q) / p) ** (p / (p - 1.0)))
        gap = float(energy - lower)
        if gap <= tol * energy or steps == _MAX_STEPS:
            break
        # damped Newton step on the smoothed energy
        r = d * d + eps * eps
        g = _divergence(graph, p * d * r ** (0.5 * p - 1.0))
        h = p * r ** (0.5 * p - 2.0) * ((p - 1.0) * d * d + eps * eps)
        delta = _solve(_eliminate(graph, h), -g, np.zeros(n))
        slope, bd = float(g @ delta), delta[j] - delta[i]
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
    grad[bnd] = 0.0
    return HarmonicExtension(x, energy, gap,
                             float(np.abs(grad).max(initial=0.0)), steps,
                             gap <= tol * energy)


def exact_p2_extension(graph: GasketGraph, boundary_values) -> np.ndarray:
    """2-harmonic extension (the p = 2 oracle).

    This is the start of ``harmonic_extension``, one cell-by-cell solve
    with unit weights, and at p = 2 the minimiser itself, which the duality
    gap there certifies at once.
    """
    bv = np.asarray(boundary_values, dtype=float)
    if bv.size != 3:
        raise ValueError("need exactly 3 boundary values")
    n = graph.n_vertices
    return _solve(_eliminate(graph, np.ones(graph.edge_i.size)),
                  np.zeros(n), np.bincount(list(graph.boundary), bv, n))


# ---------------------------------------------------------------------------
# one-step subdivision minima


def _harmonic_midpoints(u: np.ndarray) -> np.ndarray:
    """Classical 2-harmonic midpoint rule (2 near + 1 far) / 5, row-wise."""
    m = np.empty_like(u)
    m[..., 0] = (2.0 * u[..., 0] + 2.0 * u[..., 1] + u[..., 2]) / 5.0
    m[..., 1] = (2.0 * u[..., 0] + 2.0 * u[..., 2] + u[..., 1]) / 5.0
    m[..., 2] = (2.0 * u[..., 1] + 2.0 * u[..., 2] + u[..., 0]) / 5.0
    return m


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


def _periodic_spline(table):
    """Coefficients [n, 4] of the periodic cubic spline through the table
    at theta = i h, h = 2 pi / n, and h.  Segment i is y + t (b + t (c +
    t d)), t = theta - i h.  The second derivatives solve the cyclic
    [1, 4, 1] system by FFT; the stencil wraps, so n = 1 gives 6 and n = 2
    gives [4, 2].
    """
    n = table.size
    h = TWO_PI / n
    stencil = np.zeros(n)
    np.add.at(stencil, [0, 1 % n, -1 % n], [4.0, 1.0, 1.0])
    nxt = np.roll(table, -1)
    rhs = (nxt - 2.0 * table + np.roll(table, 1)) * (6.0 / (h * h))
    mm = np.fft.irfft(np.fft.rfft(rhs) / np.fft.rfft(stencil), n)
    mn = np.roll(mm, -1)
    return (np.stack([table, (nxt - table) / h - h * (2.0 * mm + mn) / 6.0,
                      0.5 * mm, (mn - mm) / (6.0 * h)], axis=1), h)


def _spline_eval(spline, theta):
    """Spline value and first two derivatives at theta.  The segment index
    is clipped at both ends: theta = 2 pi reads the last segment at t = h,
    and a NaN theta gives NaN."""
    coef, h = spline
    seg = np.fmin(np.fmax(np.floor(theta / h), 0.0), coef.shape[0] - 1)
    y, b, c, d = coef[seg.astype(np.intp)].T
    t = theta - seg * h
    return (y + t * (b + t * (c + t * d)), b + t * (2.0 * c + 3.0 * t * d),
            2.0 * c + 6.0 * t * d)


def _table_value_grad(p, spline, w):
    """Energy r^p S(theta), its datum gradient for rows of w [k, 3], and
    its Hessian entries (xi xi, xi eta, eta eta) [k, 3]: r^(p-2) times a
    form in cos 2 theta and sin 2 theta, taken as ratios to r2, so nothing
    but r^(p-2) grows as r2 nears the 1e-240 mask."""
    xi = w @ _E1
    eta = w @ _E2
    x2, y2 = xi * xi, eta * eta
    r2 = x2 + y2
    theta = np.mod(np.arctan2(eta, xi), TWO_PI)
    s, sp, spp = _spline_eval(spline, theta)
    live = r2 > 1e-240
    safe = np.where(live, r2, 1.0)
    val = np.where(live, safe ** (0.5 * p), 0.0) * s
    fac = np.where(live, safe ** (0.5 * p - 1.0), 0.0)
    gxi = fac * (p * xi * s - eta * sp)
    geta = fac * (p * eta * s + xi * sp)
    grad = gxi[:, None] * _E1[None, :] + geta[:, None] * _E2[None, :]
    # polar curvatures: radial p (p - 1) S, angular p S + S'', mixed
    # (p - 1) S'; rotated by theta, xi xi is mean + half cos 2t - mixed sin 2t
    cos2, sin2 = (x2 - y2) / safe, 2.0 * xi * eta / safe
    radial, angular = p * (p - 1.0) * s, p * s + spp
    mean, half = 0.5 * (radial + angular), 0.5 * (radial - angular)
    mixed = (p - 1.0) * sp
    q = half * cos2 - mixed * sin2
    hess = np.stack([mean + q, half * sin2 + mixed * cos2, mean - q], axis=1)
    return val, grad, hess * fac[:, None]


# corner cell k sees the datum (u_k, m_i, m_j), (i, j) = _CELL_MIDPOINTS[k]
_CELL_MIDPOINTS = ((0, 1), (0, 2), (1, 2))
_CELL_COLUMNS = [[k, 3 + i, 3 + j] for k, (i, j) in enumerate(_CELL_MIDPOINTS)]


def _midpoint_hessian_map():
    # [9, 9] from the cells' (xi xi, xi eta, eta eta) entries to the
    # midpoint Hessian: a cell's block at datum positions 1 and 2 is
    # hxx a a^T + hxy (a e^T + e a^T) + hyy e e^T, a and e from _E1, _E2
    a, e = _E1[1:], _E2[1:]
    block = [np.outer(a, a), np.outer(a, e) + np.outer(e, a), np.outer(e, e)]
    out = np.zeros((3, 3, 3, 3))
    for k, (i, j) in enumerate(_CELL_MIDPOINTS):
        out[k][:, [[i], [j]], [i, j]] = block
    return out.reshape(9, 9)


_MIDPOINT_HESSIAN = _midpoint_hessian_map()


def _subdivision_value_grad(p, spline, u, m):
    """One-step energy against the current table, with its midpoint
    gradient and Hessian [b, 3, 3]; midpoints are (m01, m02, m12)."""
    b = u.shape[0]
    cells = np.concatenate([u, m], axis=1)[:, _CELL_COLUMNS]
    val, grad, hess = _table_value_grad(p, spline, cells.reshape(-1, 3))
    val = val.reshape(b, 3).sum(axis=1)
    grad = grad.reshape(b, 9)
    gm = grad[:, [1, 2, 5]] + grad[:, [4, 7, 8]]
    return val, gm, (hess.reshape(b, 9) @ _MIDPOINT_HESSIAN).reshape(b, 3, 3)


def _minimize_midpoints(p, spline, u, m0, gtol=1e-11, max_iter=80):
    """Damped Newton over all rows at once, each step with the exact
    Hessian of the line search's accepted evaluation."""
    m = m0.copy()
    val, g, hess = _subdivision_value_grad(p, spline, u, m)
    eye = np.eye(3)
    for _ in range(max_iter):
        gn = np.abs(g).max(axis=1)
        active = gn > gtol * (1.0 + np.abs(val))
        if not active.any():
            break
        try:
            step = -np.linalg.solve(hess + 1e-12 * eye, g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = -g.copy()
        bad = ~np.isfinite(step).all(axis=1)
        step[bad] = -g[bad]
        desc = np.einsum("ij,ij->i", step, g)
        flip = desc >= 0.0
        step[flip] = -g[flip]
        desc = np.einsum("ij,ij->i", step, g)
        t = np.where(active, 1.0, 0.0)
        trial = m + t[:, None] * step
        vt, g, hess = _subdivision_value_grad(p, spline, u, trial)
        # up to 45 trials; rows are independent, so a halving evaluates
        # only the rows whose Armijo test failed
        rows = np.flatnonzero(active)
        for _ in range(44):
            rows = rows[vt[rows] > val[rows] + 1e-4 * t[rows] * desc[rows]
                        + 1e-14 * (1.0 + np.abs(val[rows]))]
            if rows.size == 0:
                break
            t[rows] *= 0.5
            trial[rows] = m[rows] + t[rows, None] * step[rows]
            vt[rows], g[rows], hess[rows] = _subdivision_value_grad(
                p, spline, u[rows], trial[rows])
        m, val = trial, vt
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
    _check_p(p)
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
        m, val, _ = _minimize_midpoints(p, _periodic_spline(table), u, m)
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
