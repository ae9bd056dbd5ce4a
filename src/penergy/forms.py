"""Concrete p-energy forms on the bundled model spaces.

Three models are provided:

* :class:`PLIntervalForm` - the weighted p-Dirichlet energy
  ``E(f) = integral of w(x) |f'(x)|^p dx`` over [0, 1] for continuous PL
  functions, with a piecewise-constant weight ``w >= 0``.  This form is
  strongly local and is the model on which the measure construction and the
  law suite run end to end.
* :class:`GraphForm` - ``E(f) = sum over edges of c_xy |f(x) - f(y)|^p`` on a
  finite connected weighted graph.  Deliberate model deviation: this form is
  a p-energy form but is NOT strongly local (moving a function by a constant
  on part of an edge's neighbourhood changes nothing, but disjointly
  supported functions sharing an edge do interact), so locality-dependent
  checks are skipped for it and its energy measure is assembled directly
  from edge contributions.
* :class:`SGForm` - the level-L renormalised p-energy on the Sierpinski
  gasket vertex hierarchy, ``E_L(f) = rho^L * sum over cells and cell edges
  of |df|^p``.

All forms share ``energy``, ``energy_derivative`` (the one-sided directional
derivative ``(1/p) d/dt E(u + t v)`` at ``t = 0``) and a JSON descriptor.

Every closed-form integral of the interval model, here and in
:mod:`penergy.laws`, goes through :class:`Cells`: one merged partition of
function breakpoints, weight bounds and extra nodes, on which densities are
piecewise constant or linear, integrated over many target sets in one pass.
A set family is read once, by :func:`spans`; :func:`integrate` sums F(hi) -
F(lo) over its components for :meth:`Cells.integrate`, both mass routes of
:mod:`penergy.laws` and :meth:`penergy.construction.EnergyMeasure.measure`.

The module also houses the Clarkson-inequality checker and the assumption
audit used by ``validate-form``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .pl import (
    GEOM_TOL,
    IntervalSet,
    PLFunction,
    PLMap,
    _merge_sorted_grids,
    compose,
    cut,
    lattice,
)


def _check_p(p) -> float:
    """p as a float, rejected unless it is a finite number above 1."""
    if not p > 1.0:
        raise ValueError("p must be > 1")
    if not math.isfinite(p):
        raise ValueError("p must be finite")
    return float(p)


def _signed_power(s: np.ndarray, e: float) -> np.ndarray:
    """|s|^e * sign(s) with the 0 convention for vanishing slopes."""
    out = np.zeros_like(s)
    nz = s != 0.0
    out[nz] = np.abs(s[nz]) ** e * np.sign(s[nz])
    return out


# ---------------------------------------------------------------------------
# PL interval model


class PLIntervalForm:
    """Weighted p-energy of PL functions on [0, 1].

    The weight is piecewise constant, nonnegative, given as consecutive
    ``(lo, hi, w)`` cells covering [0, 1]; omitting it means ``w = 1``.
    Energies, directional derivatives and restricted energies are all exact
    closed-form sums over one :class:`Cells` partition.
    """

    def __init__(self, p: float, weight=None):
        self.p = _check_p(p)
        if weight is None:
            bounds = np.array([0.0, 1.0])
            vals = np.array([1.0])
        else:
            cells = sorted((float(lo), float(hi), float(w)) for lo, hi, w in weight)
            if not cells:
                raise ValueError("weight needs at least one cell")
            bounds = np.array([c[0] for c in cells] + [cells[-1][1]])
            highs = np.array([c[1] for c in cells])
            vals = np.array([c[2] for c in cells])
            if not (np.isfinite(bounds).all() and np.isfinite(highs).all()
                    and np.isfinite(vals).all()):
                raise ValueError("weight cells must be finite numbers")
            if abs(bounds[0]) > GEOM_TOL or abs(bounds[-1] - 1.0) > GEOM_TOL:
                raise ValueError("weight cells must cover [0, 1]")
            # each cell ends where the next begins: no gap, no overlap
            if (bounds[1:] - bounds[:-1] <= 0).any() \
                    or (np.abs(highs[:-1] - bounds[1:-1]) > GEOM_TOL).any():
                raise ValueError("weight cells must be consecutive")
            if (vals < 0.0).any():
                raise ValueError("weight must be nonnegative")
        self.weight_bounds = bounds
        self.weight_values = vals

    # -- basics -------------------------------------------------------------

    def weight_at(self, x: np.ndarray) -> np.ndarray:
        return step_at(self.weight_bounds, self.weight_values, x)

    def energy(self, f: PLFunction) -> float:
        return float(np.sum(Cells(self, f).mass(f)))

    def energy_between(self, f: PLFunction, lo: float, hi: float) -> float:
        """Energy of the restriction to [lo, hi] (exact)."""
        cells = Cells(self, f)
        return float(cells.integrate(cells.mass(f), spans(((lo, hi),)))[0])

    def cumulative_energy(self, f: PLFunction) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and running energy integral; linear between nodes."""
        cells = Cells(self, f)
        return cells.nodes, cells.cumulative(cells.mass(f))

    def density_cells(self, f: PLFunction) -> tuple[np.ndarray, np.ndarray]:
        """Partition nodes and the per-cell density w |f'|^p."""
        cells = Cells(self, f)
        return cells.nodes, cells.density(f)

    def energy_derivative(self, u: PLFunction, v: PLFunction) -> float:
        """(1/p) d/dt E(u + t v) at t = 0, with 0 on flat pieces of u."""
        cells = Cells(self, u, v)
        return float(cells.integrate(cells.flux(u) * cells.slope(v)
                                     * cells.width)[0])

    def seminorm(self, f: PLFunction) -> float:
        return self.energy(f) ** (1.0 / self.p)

    def to_descriptor(self) -> dict:
        return {"kind": "pl", "p": self.p,
                "weight": [[float(self.weight_bounds[i]),
                            float(self.weight_bounds[i + 1]),
                            float(self.weight_values[i])]
                           for i in range(self.weight_values.size)]}

    def __repr__(self):
        return f"PLIntervalForm(p={self.p:g}, {self.weight_values.size} weight cells)"


def step_at(bounds: np.ndarray, values: np.ndarray, x) -> np.ndarray:
    """The step function equal to values[i] on [bounds[i], bounds[i+1]),
    at x; points outside the bounds take the nearest end value."""
    idx = bounds.searchsorted(x, side="right") - 1
    return values[np.minimum(np.maximum(idx, 0), values.size - 1)]


class Spans(NamedTuple):
    """``size`` targets as components [lo, hi] in [0, 1] of target owner."""
    size: int
    owner: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def spans(targets) -> Spans:
    """Every component of every target, clipped to [0, 1], once per family.

    A target is an IntervalSet or a bare (lo, hi) pair, whose ends must
    not be NaN.  Components empty after clipping are dropped, the rest keep
    their order.
    """
    targets, owner, lo, hi = tuple(targets), [], [], []
    for i, t in enumerate(targets):
        for c in (t.components if isinstance(t, IntervalSet) else (t,)):
            a, b = float(c[0]), float(c[1])
            if math.isnan(a) or math.isnan(b):
                raise ValueError("a target's ends must not be NaN")
            # the bound wins a tie, as in np.maximum: max(0.0, -0.0) is 0.0
            a, b = max(0.0, a), min(1.0, b)
            if b > a:
                owner.append(i)
                lo.append(a)
                hi.append(b)
    return Spans(len(targets), np.array(owner, dtype=int), np.array(lo),
                 np.array(hi))


#: the family of the one target [0, 1]
WHOLE = spans(((0.0, 1.0),))


def integrate(nodes: np.ndarray, cum: np.ndarray,
              family: Spans) -> np.ndarray:
    """F(hi) - F(lo) summed over each target's components, F the running
    integral ``cum`` at ``nodes`` read linearly: exact at a node, and where
    the density is constant per cell (else the ends must be nodes).
    ``np.add.at`` adds a target's components in order, as a running sum."""
    out = np.zeros(family.size)
    if family.owner.size:
        np.add.at(out, family.owner, np.interp(family.hi, nodes, cum)
                  - np.interp(family.lo, nodes, cum))
    return out


class Cells:
    """The common refinement behind every closed-form integral on [0, 1].

    Nodes merge the breakpoints of the given PL functions, the weight
    bounds of the form and any extra nodes (component ends of target sets,
    preimages of map kinks), so each function is affine and the weight
    constant on every cell.  Per-cell slopes and the densities built from
    them feed :meth:`integrate`, which turns per-cell integrals into one
    integral per target set.  An extra node closer than GEOM_TOL to a
    breakpoint or weight bound is left out, so an integral read there is
    off by at most that distance times the density's spread in the cell.
    """

    def __init__(self, form: PLIntervalForm, *fns: PLFunction, nodes=()):
        self.p = form.p
        grid = _merge_sorted_grids(*(f.breakpoints for f in fns),
                                   form.weight_bounds)
        if nodes:
            # extra nodes refine the cells but never displace a breakpoint
            # or weight bound, which would bend a function inside a cell
            extra = np.concatenate(nodes)
            right = np.minimum(np.maximum(grid.searchsorted(extra), 1),
                               grid.size - 1)
            gap = np.minimum(extra - grid[right - 1], grid[right] - extra)
            grid = _merge_sorted_grids(grid, extra[gap > GEOM_TOL])
        self.nodes = grid
        self.width = grid[1:] - grid[:-1]
        self.mid = 0.5 * (grid[:-1] + grid[1:])
        self.weight = form.weight_at(self.mid)

    def slope(self, f: PLFunction) -> np.ndarray:
        v = f.evaluate(self.nodes)
        return (v[1:] - v[:-1]) / self.width

    def density(self, f: PLFunction) -> np.ndarray:
        """w |f'|^p, the density of mu_f."""
        return self.weight * np.abs(self.slope(f)) ** self.p

    def mass(self, f: PLFunction) -> np.ndarray:
        """mu_f of each cell."""
        return self.density(f) * self.width

    def flux(self, f: PLFunction) -> np.ndarray:
        """w sgn(f')|f'|^{p-1}, the density of nu_{f;v} against v'."""
        return self.weight * _signed_power(self.slope(f), self.p - 1.0)

    @staticmethod
    def cumulative(per_cell: np.ndarray) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(per_cell)))

    def integrate(self, per_cell: np.ndarray,
                  family: Spans = WHOLE) -> np.ndarray:
        """:func:`integrate` of per-cell integrals over a family."""
        return integrate(self.nodes, self.cumulative(per_cell), family)


# ---------------------------------------------------------------------------
# finite graph model


@dataclass(frozen=True)
class GraphEnergyMeasure:
    """Energy measure of a graph form: one atom per edge."""
    edges: tuple
    atoms: np.ndarray

    def total_mass(self) -> float:
        return float(self.atoms.sum())

    def on_vertices(self, vertex_set) -> float:
        """Mass of the edges with both endpoints inside the vertex set."""
        vs = set(vertex_set)
        return float(sum(a for (i, j), a in zip(self.edges, self.atoms)
                         if i in vs and j in vs))


class GraphForm:
    """p-energy of a finite connected weighted graph.

    Not strongly local; see the module docstring.  Vertex weights define the
    reference measure on the vertex set but do not enter the energy.
    """

    def __init__(self, n_vertices: int, edges, p: float, vertex_weights=None):
        self.p = _check_p(p)
        self.n_vertices = int(n_vertices)
        es, cs = [], []
        for i, j, c in edges:
            if not (0 <= i < n_vertices and 0 <= j < n_vertices) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            if c < 0:
                raise ValueError("conductances must be nonnegative")
            if not math.isfinite(c):
                raise ValueError("conductances must be finite")
            es.append((int(i), int(j)))
            cs.append(float(c))
        self.edges = tuple(es)
        self.conductances = np.array(cs)
        self.vertex_weights = (np.ones(self.n_vertices) if vertex_weights is None
                               else np.asarray(vertex_weights, dtype=float))
        if self.vertex_weights.size != self.n_vertices:
            raise ValueError("vertex weight length mismatch")
        if not np.isfinite(self.vertex_weights).all():
            raise ValueError("vertex weights must be finite")
        self._check_connected()
        self._ei = np.array([e[0] for e in self.edges], dtype=int)
        self._ej = np.array([e[1] for e in self.edges], dtype=int)

    def _check_connected(self):
        adj = [[] for _ in range(self.n_vertices)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != self.n_vertices:
            raise ValueError("graph must be connected")

    def _diffs(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.size != self.n_vertices:
            raise ValueError("value vector length mismatch")
        return v[self._ej] - v[self._ei]

    def energy(self, values) -> float:
        d = self._diffs(values)
        return float(np.sum(self.conductances * np.abs(d) ** self.p))

    def energy_derivative(self, u, v) -> float:
        du = self._diffs(u)
        dv = self._diffs(v)
        return float(np.sum(self.conductances
                            * _signed_power(du, self.p - 1.0) * dv))

    def seminorm(self, values) -> float:
        return self.energy(values) ** (1.0 / self.p)

    def energy_measure(self, values) -> GraphEnergyMeasure:
        """Edge decomposition of the energy; no fold limit is run on graphs."""
        d = self._diffs(values)
        return GraphEnergyMeasure(self.edges,
                                  self.conductances * np.abs(d) ** self.p)

    def to_descriptor(self) -> dict:
        return {"kind": "graph", "p": self.p, "vertices": self.n_vertices,
                "edges": [[i, j, float(c)] for (i, j), c in
                          zip(self.edges, self.conductances)],
                "vertex_weights": self.vertex_weights.tolist()}

    def __repr__(self):
        return (f"GraphForm(p={self.p:g}, {self.n_vertices} vertices, "
                f"{len(self.edges)} edges)")


# ---------------------------------------------------------------------------
# Sierpinski gasket model


class SGForm:
    """Renormalised level-L p-energy on the Sierpinski gasket.

    ``energy(values)`` expects one value per vertex of the level-L graph in
    builder order (see :mod:`penergy.gasket`).  The renormalisation factor
    ``rho`` must exceed 1; for p = 2 the exact value 5/3 is filled in, for
    other p use :func:`penergy.gasket.renormalization_constant` (the
    ``build`` classmethod does this).
    """

    def __init__(self, level: int, p: float, rho: float | None = None):
        from . import gasket  # local import to keep module load light
        if isinstance(level, bool) or not isinstance(level, numbers.Integral) \
                or level < 0:
            raise ValueError("level must be an integer >= 0")
        self.level = int(level)
        self.p = _check_p(p)
        if rho is None:
            if p == 2.0:
                rho = 5.0 / 3.0
            else:
                raise ValueError("rho is required for p != 2; use SGForm.build")
        if not rho > 1.0:
            raise ValueError("renormalisation factor must exceed 1")
        if not math.isfinite(rho):
            raise ValueError("renormalisation factor must be finite")
        self.rho = float(rho)
        self.graph = gasket.build_gasket(self.level)

    @classmethod
    def build(cls, level: int, p: float, tol: float = 1e-9) -> "SGForm":
        from . import gasket
        rho = 5.0 / 3.0 if p == 2.0 else gasket.renormalization_constant(p, tol=tol).rho
        return cls(level, p, rho=rho)

    def energy(self, values) -> float:
        from . import gasket
        v = np.asarray(values, dtype=float)
        if v.size != self.graph.n_vertices:
            raise ValueError(f"need {self.graph.n_vertices} vertex values")
        return (self.rho ** self.level
                * gasket.graph_energy(self.graph, self.p, v))

    def energy_derivative(self, u, v) -> float:
        uu = np.asarray(u, dtype=float)
        vv = np.asarray(v, dtype=float)
        du = uu[self.graph.edge_j] - uu[self.graph.edge_i]
        dv = vv[self.graph.edge_j] - vv[self.graph.edge_i]
        return float(self.rho ** self.level
                     * np.sum(_signed_power(du, self.p - 1.0) * dv))

    def seminorm(self, values) -> float:
        return self.energy(values) ** (1.0 / self.p)

    def to_descriptor(self) -> dict:
        return {"kind": "sg", "p": self.p, "level": self.level,
                "rho": self.rho}

    def __repr__(self):
        return f"SGForm(level={self.level}, p={self.p:g}, rho={self.rho:.6g})"


def form_from_descriptor(desc: dict):
    """Rebuild a form from its JSON descriptor."""
    kind = desc.get("kind")
    if kind == "pl":
        return PLIntervalForm(desc["p"], weight=desc.get("weight"))
    if kind == "graph":
        return GraphForm(desc["vertices"], desc["edges"], desc["p"],
                         vertex_weights=desc.get("vertex_weights"))
    if kind == "sg":
        return SGForm(desc["level"], desc["p"], rho=desc.get("rho"))
    raise ValueError(f"unknown form kind {kind!r}")


# ---------------------------------------------------------------------------
# Clarkson inequalities


@dataclass
class ClarksonReport:
    """Worst signed slacks of the four Clarkson inequalities.

    A slack is (larger side) - (smaller side) of the inequality, so the
    inequality holds exactly when the slack is >= 0; ``None`` marks the
    inequalities that do not apply at the given p.  ``passed`` means every
    applicable slack stayed above ``-tolerance``.
    """
    p: float
    trials: int
    seed: int
    slacks: dict
    tolerance: float
    passed: bool
    worst_case: int | None = None


def _clarkson_slacks(p: float, fu: float, fv: float, fplus: float,
                     fminus: float) -> dict:
    q = p / (p - 1.0)
    pair_q = 2.0 * (fu ** q + fv ** q) ** (p - 1.0)
    pair_p = 2.0 * (fu ** p + fv ** p)
    combo = fplus ** p + fminus ** p
    out = {}
    if p <= 2.0:
        out["CI1"] = combo - pair_q
        out["CI2"] = pair_p - combo
    if p >= 2.0:
        out["CI3"] = pair_q - combo
        out["CI4"] = combo - pair_p
    return out


# Roundoff line of the sampled Clarkson audit.
CLARKSON_TOL = 1e-9


def check_clarkson(form, sampler, trials: int = 64) -> ClarksonReport:
    """Sample function pairs and track the worst slack of each inequality.

    Slacks are normalised by the p-th power scale of the pair so that the
    tolerance CLARKSON_TOL is meaningful across magnitudes.
    """
    worst: dict = {}
    worst_idx = None
    for k in range(trials):
        u, v = _sample_pair(form, sampler, k)
        fu, fv = form.seminorm(u), form.seminorm(v)
        fp = form.seminorm(u + v)
        fm = form.seminorm(u - v)
        scale = max(fu ** form.p + fv ** form.p, 1e-30)
        for name, slack in _clarkson_slacks(form.p, fu, fv, fp, fm).items():
            rel = slack / scale
            if name not in worst or rel < worst[name]:
                worst[name] = rel
                if rel < -CLARKSON_TOL:
                    worst_idx = k
    slacks = {name: worst.get(name) for name in ("CI1", "CI2", "CI3", "CI4")}
    passed = all(s >= -CLARKSON_TOL for s in worst.values())
    return ClarksonReport(form.p, trials, sampler.seed, slacks, CLARKSON_TOL,
                          passed, worst_idx)


def _sample_pair(form, sampler, k):
    if isinstance(form, PLIntervalForm):
        return sampler.pl_pair(k)
    n = form.n_vertices if isinstance(form, GraphForm) else form.graph.n_vertices
    return sampler.vertex_pair(k, n)


# ---------------------------------------------------------------------------
# assumption audit


@dataclass
class AssumptionsReport:
    """Outcome of the sampled form-assumption audit.

    ``checks`` maps check name to (worst normalised slack, tolerance,
    passed); ``clarkson`` is the Clarkson audit the clarkson checks were
    folded from; ``notes`` records the facts that are documented rather than
    tested (completeness of the domain, regularity, and the graph-model
    locality deviation).
    """
    descriptor: dict
    seed: int
    trials: int
    checks: dict
    clarkson: ClarksonReport
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok in self.checks.values())


def check_assumptions(form, sampler, trials: int = 32) -> AssumptionsReport:
    """Sampled audit of the defining inequalities of a p-energy form.

    Covers seminorm homogeneity and triangle inequality, the applicable
    Clarkson inequalities, unit and normal contractions, and (for the PL
    model) strong locality through disjointly supported pairs.  Completeness
    and regularity are structural facts of the bundled models and are
    recorded in ``notes`` instead of being sampled.
    """
    checks: dict = {}
    notes = {"banach": "completeness of the domain is a model-level fact, "
                       "not sampled",
             "regularity": "PL functions are uniformly dense in C([0, 1]); "
                           "recorded, not sampled"}
    p = form.p

    def fold_in(name, slack, tol):
        prev = checks.get(name)
        if prev is None or slack < prev[0]:
            checks[name] = (float(slack), tol, bool(slack >= -tol))

    for k in range(trials):
        u, v = _sample_pair(form, sampler, k)
        su, sv = form.seminorm(u), form.seminorm(v)
        scale = max(su + sv, 1e-30)
        fold_in("triangle",
                (su + sv - form.seminorm(u + v)) / scale, 1e-9)
        c = 0.5 + 1.5 * (k % 5) / 4.0
        target = c ** p * form.energy(u)
        fold_in("homogeneity",
                -abs(form.energy(u * -c) - target) / max(target, 1e-30),
                1e-9)

    clk = check_clarkson(form, sampler, trials)
    for name, slack in clk.slacks.items():
        if slack is not None:
            fold_in(f"clarkson_{name}", slack, clk.tolerance)

    if isinstance(form, PLIntervalForm):
        one = PLFunction.constant(1.0)
        for k in range(trials):
            f = sampler.pl(k)
            ef = form.energy(f)
            scale = max(ef, 1e-30)
            clipped = cut(lattice(f, one, "min"), 0.0, np.inf)
            fold_in("unit_contraction", (ef - form.energy(clipped)) / scale, 1e-9)
            phi = _random_normal_contraction(sampler, k, f)
            fold_in("normal_contraction",
                    (ef - form.energy(compose(phi, f))) / scale, 1e-9)
        for k in range(trials // 2 + 1):
            a, b = sampler.disjoint_support_pair(k)
            ea, eb = form.energy(a), form.energy(b)
            gap = abs(form.energy(a + b) - ea - eb)
            fold_in("strong_locality", -gap / max(ea + eb, 1e-30), 1e-12)
    else:
        notes["strong_locality"] = ("skipped: model deviation, the graph "
                                    "energy is not strongly local")

    return AssumptionsReport(form.to_descriptor(), sampler.seed, trials,
                             checks, clk, notes)


def _random_normal_contraction(sampler, k, f) -> PLMap:
    """A random 1-Lipschitz PL map fixing 0, wide enough for f's range."""
    rng = sampler._rng(k, tag=11)
    lo, hi = f.value_range()
    lo, hi = min(lo, -0.5) - 0.5, max(hi, 0.5) + 0.5
    kinks = np.unique(np.concatenate(
        ([lo, 0.0, hi], rng.uniform(lo, hi, size=3))))
    slopes = rng.uniform(-1.0, 1.0, size=kinks.size - 1)
    vals = np.concatenate(([0.0],
                           np.cumsum(slopes * (kinks[1:] - kinks[:-1]))))
    vals -= np.interp(0.0, kinks, vals)
    return PLMap(kinks, vals)
