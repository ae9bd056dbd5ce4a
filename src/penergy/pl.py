"""Exact calculus for continuous piecewise-linear functions on [0, 1].

Functions are stored as breakpoint/value arrays and every operation in this
module (combination, lattice min/max, level cuts, triangle folding, map
composition, sublevel sets) is exact up to floating-point rounding: new
breakpoints are obtained by solving the two relevant line segments, never by
bisection or sampling.  The only deliberately approximate operation is
``pl_product``, which returns a refined interpolant together with a sup-error
bound.

Conventions used throughout:

* breakpoints are strictly increasing, with first point 0.0 and last 1.0;
  nodes closer than ``GEOM_TOL`` are merged;
* after every constructive operation, collinear neighbours (slope difference
  below ``SLOPE_MERGE_TOL``) are pruned, so representations stay canonical;
* the piece cap is a fixed policy, not a per-call option: every operation
  that can grow the breakpoint count checks the module constant
  ``PIECE_CAP`` and raises :class:`PieceCapError` instead of allocating an
  oversized representation;
* an ``IntervalSet`` is a union of closed intervals, stored as sorted,
  merged ``(lo, hi)`` pairs: the energy measures have densities, so an
  endpoint never carries mass and open ends would change nothing.

``PLMap`` is the companion type for piecewise-linear maps defined on an
arbitrary interval of the real line; it is what gets composed with functions
on [0, 1] (post-composition ``phiarowf``).

Arrays here, in :mod:`penergy.forms` and in :mod:`penergy.sampler` hold a
few to a few dozen entries, where numpy's Python wrappers cost more than
the arithmetic: differences are slices (``x[1:] - x[:-1]``), reductions
are methods (``.any()``, ``.min()``), and scalar loops run on Python
floats, never on per-element numpy scalars.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: merge tolerance for breakpoints (geometry is considered degenerate below it)
GEOM_TOL = 1e-12

#: adjacent pieces whose slopes differ by less than this are merged
SLOPE_MERGE_TOL = 1e-12

#: cap on the number of stored breakpoints of any constructed function
PIECE_CAP = 2_000_000

#: largest admissible triangle-fold level for materialised folds
MAX_FOLD_LEVEL = 40

#: deeper cap for cut maps, whose size does not grow with the level; the
#: bound keeps a + 2^-n strictly above a in floats everywhere on [0, 1)
MAX_CUT_LEVEL = 50


class PieceCapError(RuntimeError):
    """Raised when an operation would exceed the configured piece cap."""


class DomainMismatchError(ValueError):
    """Raised when composing with a map that does not cover the value range."""


def _as_float_array(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional array")
    return arr


def _check_cap(n: int) -> None:
    if n > PIECE_CAP:
        raise PieceCapError(f"operation needs {n} breakpoints, cap is {PIECE_CAP}")


def _merge_sorted_grids(*grids: np.ndarray) -> np.ndarray:
    """Union of sorted node arrays with GEOM_TOL deduplication."""
    merged = np.concatenate(grids)
    merged.sort()
    if merged.size == 0:
        return merged
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.greater(merged[1:] - merged[:-1], GEOM_TOL, out=keep[1:])
    return merged[keep]


def _prune_collinear(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop interior nodes where the two adjacent slopes agree."""
    if x.size <= 2:
        return x, y
    slopes = (y[1:] - y[:-1]) / (x[1:] - x[:-1])
    interior_redundant = np.abs(slopes[1:] - slopes[:-1]) < SLOPE_MERGE_TOL
    keep = np.ones(x.size, dtype=bool)
    keep[1:-1] = ~interior_redundant
    return x[keep], y[keep]


class _PLBase:
    """Shared array plumbing for PLFunction and PLMap."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        x = _as_float_array(breakpoints)
        y = _as_float_array(values)
        if x.size != y.size or x.size < 2:
            raise ValueError("need matching breakpoint/value arrays of length >= 2")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("breakpoints and values must be finite")
        dx = x[1:] - x[:-1]
        # the usual case, every gap wider than GEOM_TOL, needs one test
        if not dx.min() > GEOM_TOL:
            if (dx < 0).any():
                raise ValueError("breakpoints must be in increasing order")
            # distinct breakpoints closer than GEOM_TOL would be merged away
            # by the first operation that joins grids
            if ((dx > 0) & (dx <= GEOM_TOL)).any():
                raise ValueError("breakpoints must be strictly increasing, "
                                 f"more than {GEOM_TOL:g} apart")
            x, idx = np.unique(x, return_index=True)
            y = y[idx]
        x = x.copy()
        y = y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        self.breakpoints = x
        self.values = y

    # -- basic queries ----------------------------------------------------

    def __call__(self, t):
        return self.evaluate(t)

    def evaluate(self, t):
        """Evaluate by linear interpolation; exact at stored breakpoints."""
        return np.interp(t, self.breakpoints, self.values)

    @property
    def piece_count(self) -> int:
        return self.breakpoints.size - 1

    @property
    def slopes(self) -> np.ndarray:
        x, y = self.breakpoints, self.values
        return (y[1:] - y[:-1]) / (x[1:] - x[:-1])

    def value_range(self) -> tuple[float, float]:
        return float(self.values.min()), float(self.values.max())

    def __repr__(self):
        lo, hi = self.breakpoints[0], self.breakpoints[-1]
        return (f"{type(self).__name__}({self.piece_count} pieces on "
                f"[{lo:g}, {hi:g}])")


class PLMap(_PLBase):
    """Continuous piecewise-linear map on an interval [lo, hi] of the line.

    Used as the outer factor of compositions: breakpoints are the kink
    positions in value space of the inner function.
    """

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @classmethod
    def identity(cls, lo: float, hi: float) -> "PLMap":
        return cls([lo, hi], [lo, hi])

    @classmethod
    def scaling(cls, c: float, lo: float, hi: float) -> "PLMap":
        return cls([lo, hi], [c * lo, c * hi])

    @classmethod
    def absolute(cls, lo: float, hi: float) -> "PLMap":
        """t -> |t| on [lo, hi]."""
        if lo < 0.0 < hi:
            return cls([lo, 0.0, hi], [-lo, 0.0, hi])
        return cls([lo, hi], [abs(lo), abs(hi)])

    @classmethod
    def cut_map(cls, a: float, b: float, lo: float, hi: float) -> "PLMap":
        """The normalised double cut t -> clip(t, a, b) - clip(0, a, b)."""
        if not a < b:
            raise ValueError("cut levels must satisfy a < b")
        offset = min(max(0.0, a), b)
        knots = [lo] + [v for v in (a, b) if lo < v < hi] + [hi]
        vals = [min(max(t, a), b) - offset for t in knots]
        return cls(knots, vals)

    @classmethod
    def triangle(cls, n: int, lo: float, hi: float) -> "PLMap":
        """Triangle wave of level n (period 2^(1-n), peak 2^-n) on [lo, hi]."""
        if n < 1 or n > MAX_FOLD_LEVEL:
            raise ValueError(f"fold level must lie in [1, {MAX_FOLD_LEVEL}]")
        eps = 2.0 ** (-n)
        k_lo = int(np.floor(lo / eps)) + 1
        k_hi = int(np.ceil(hi / eps)) - 1
        _check_cap(max(0, k_hi - k_lo + 1) + 2)
        interior = np.arange(k_lo, k_hi + 1, dtype=float) * eps
        knots = np.concatenate(([lo], interior, [hi]))
        vals = triangle_wave(knots, n)
        # interior knots have exact peak/valley values
        if interior.size:
            parity = np.arange(k_lo, k_hi + 1) % 2
            vals[1:-1] = np.where(parity == 1, eps, 0.0)
        return cls(knots, vals)


class PLFunction(_PLBase):
    """Continuous piecewise-linear function on [0, 1].

    Immutable.  Serialises to ``{"x": [...], "y": [...]}``.
    """

    def __init__(self, breakpoints, values):
        x = _as_float_array(breakpoints)
        # an empty x has no endpoints: the length check below rejects it
        if x.size and (abs(x[0]) > GEOM_TOL or abs(x[-1] - 1.0) > GEOM_TOL):
            raise ValueError("domain must be exactly [0, 1]")
        _check_cap(x.size)
        super().__init__(x, values)
        # snap the endpoints so downstream arithmetic sees exactly [0, 1]
        if self.breakpoints[0] != 0.0 or self.breakpoints[-1] != 1.0:
            x = self.breakpoints.copy()
            x[0], x[-1] = 0.0, 1.0
            x.flags.writeable = False
            self.breakpoints = x

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls) -> "PLFunction":
        return cls([0.0, 1.0], [0.0, 1.0])

    @classmethod
    def constant(cls, c: float) -> "PLFunction":
        return cls([0.0, 1.0], [c, c])

    @classmethod
    def tent(cls, peak: float = 0.5, height: float | None = None) -> "PLFunction":
        """Tent through (0,0), (peak, height), (1,0); default slope +-1."""
        if not 0.0 < peak < 1.0:
            raise ValueError("peak must be interior")
        h = min(peak, 1.0 - peak) if height is None else height
        return cls([0.0, peak, 1.0], [0.0, h, 0.0])

    @classmethod
    def from_json(cls, text: str) -> "PLFunction":
        obj = json.loads(text)
        if not (isinstance(obj, dict) and "x" in obj and "y" in obj):
            raise ValueError('expected a JSON object with "x" and "y"')
        return cls(obj["x"], obj["y"])

    # -- arithmetic (the named ops below are the real interface) ------------

    def __add__(self, other):
        if isinstance(other, PLFunction):
            return affine_combine(1.0, self, 1.0, other)
        return PLFunction(self.breakpoints, self.values + float(other))

    def __sub__(self, other):
        if isinstance(other, PLFunction):
            return affine_combine(1.0, self, -1.0, other)
        return PLFunction(self.breakpoints, self.values - float(other))

    def __neg__(self):
        return PLFunction(self.breakpoints, -self.values)

    def __mul__(self, c):
        return PLFunction(self.breakpoints, self.values * float(c))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# scalar helpers


def triangle_wave(t, n: int):
    """T_n(t): distance from t to the nearest multiple of 2^(1-n).

    Peaks at 2^-n, valleys at 0; 1-Lipschitz.  The modulus uses a power of
    two, so the reduction is exact in binary floating point.
    """
    period = 2.0 ** (1 - n)
    m = dyadic_mod(t, period)
    return np.minimum(m, period - m)


def dyadic_mod(v, period):
    """np.mod(v, period) bit for bit, for a power-of-two period, at a third
    of its cost: v / period and floor(v / period) period are exact, and so
    is the difference.  Where v / period overflows, v is a multiple of the
    period, and the result is np.mod's +0."""
    with np.errstate(over="ignore"):
        m = v - np.floor(v / period) * period
    return np.where(np.isinf(m), 0.0, m)


# ---------------------------------------------------------------------------
# exact binary/unary operations


def _crossings(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Where the linear interpolant of d on the nodes x changes sign
    strictly inside a cell: x0 + t (x1 - x0) with t = d0 / (d0 - d1)."""
    hit = (d[:-1] * d[1:]) < 0.0
    x0, x1, d0, d1 = x[:-1][hit], x[1:][hit], d[:-1][hit], d[1:][hit]
    return x0 + d0 / (d0 - d1) * (x1 - x0)


def _with_level_crossings(f: PLFunction, levels) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of f enriched with exact preimages of the given levels."""
    x, y = f.breakpoints, f.values
    extra = [_crossings(x, y - lev) for lev in levels if math.isfinite(lev)]
    if not any(e.size for e in extra):
        return x, y
    grid = _merge_sorted_grids(x, *extra)
    return grid, f.evaluate(grid)


def affine_combine(a: float, f: PLFunction, b: float, g: PLFunction) -> PLFunction:
    """Exact a*f + b*g on the merged breakpoint grid."""
    grid = _merge_sorted_grids(f.breakpoints, g.breakpoints)
    _check_cap(grid.size)
    vals = a * f.evaluate(grid) + b * g.evaluate(grid)
    return PLFunction(*_prune_collinear(grid, vals))


def lattice(f: PLFunction, g: PLFunction, op: str = "min") -> PLFunction:
    """Pointwise min or max with crossings solved exactly segment by segment."""
    if op not in ("min", "max"):
        raise ValueError("op must be 'min' or 'max'")
    grid = _merge_sorted_grids(f.breakpoints, g.breakpoints)
    fv = f.evaluate(grid)
    gv = g.evaluate(grid)
    cross = _crossings(grid, fv - gv)
    if cross.size:
        grid = _merge_sorted_grids(grid, cross)
        fv = f.evaluate(grid)
        gv = g.evaluate(grid)
    _check_cap(grid.size)
    vals = np.minimum(fv, gv) if op == "min" else np.maximum(fv, gv)
    return PLFunction(*_prune_collinear(grid, vals))


def cut(f: PLFunction, a: float, b: float) -> PLFunction:
    """Normalised double cut: clip f between levels a < b, anchored at 0.

    Returns x -> clip(f(x), a, b) - clip(0, a, b); infinite levels are
    allowed and mean no cut on that side.
    """
    if not a < b:
        raise ValueError("cut levels must satisfy a < b")
    grid, vals = _with_level_crossings(f, (a, b))
    offset = min(max(0.0, a), b)
    vals = np.clip(vals, a, b) - offset
    return PLFunction(*_prune_collinear(grid, vals))


def triangle_fold(f: PLFunction, n: int) -> PLFunction:
    """Compose f with the level-n triangle wave T_n, exactly.

    Each piece of f acquires a node at every preimage of a multiple of
    2^-n, so the count grows like 2^n times the total variation of f; the
    piece cap is checked before anything is allocated.
    """
    if not isinstance(n, (int, np.integer)) or n < 1 or n > MAX_FOLD_LEVEL:
        raise ValueError(f"fold level must be an integer in [1, {MAX_FOLD_LEVEL}]")
    eps = 2.0 ** (-n)
    x, y = f.breakpoints, f.values
    v0, v1 = y[:-1], y[1:]
    lo = np.minimum(v0, v1)
    hi = np.maximum(v0, v1)
    k_lo = np.floor(lo / eps).astype(np.int64) + 1
    k_hi = np.ceil(hi / eps).astype(np.int64) - 1
    counts = np.maximum(0, k_hi - k_lo + 1)
    _check_cap(int(counts.sum()) + x.size)

    xs_parts = [x[:1]]
    ys_parts = [triangle_wave(y[:1], n)]
    slopes = (v1 - v0) / (x[1:] - x[:-1])
    for i in range(x.size - 1):
        if counts[i] > 0:
            ks = np.arange(k_lo[i], k_hi[i] + 1)
            nodes = x[i] + (ks * eps - v0[i]) / slopes[i]
            tvals = np.where(ks % 2 == 1, eps, 0.0)
            if slopes[i] < 0:
                nodes = nodes[::-1]
                tvals = tvals[::-1]
            # guard against nodes colliding with the piece ends
            ok = (nodes > x[i] + GEOM_TOL) & (nodes < x[i + 1] - GEOM_TOL)
            xs_parts.append(nodes[ok])
            ys_parts.append(tvals[ok])
        xs_parts.append(x[i + 1:i + 2])
        ys_parts.append(triangle_wave(y[i + 1:i + 2], n))
    xs = np.concatenate(xs_parts)
    ys = np.concatenate(ys_parts)
    return PLFunction(*_prune_collinear(xs, ys))


def shifted_cut(g: PLFunction, a: float, n: int) -> PLFunction:
    """Compose g with the shifted ramp S_n^a.

    The result is 2^-n on {g <= a}, 0 on {g >= a + 2^-n} and ramps linearly
    (slope -g') in between; its range is contained in [0, 2^-n].
    """
    if n < 1 or n > MAX_CUT_LEVEL:
        raise ValueError(f"cut level must lie in [1, {MAX_CUT_LEVEL}]")
    eps = 2.0 ** (-n)
    grid, vals = _with_level_crossings(g, (a, a + eps))
    out = np.clip(a + eps - vals, 0.0, eps)
    return PLFunction(*_prune_collinear(grid, out))


def compose(phi: PLMap, f: PLFunction) -> PLFunction:
    """Exact post-composition phi(f(x)).

    Requires the domain of phi to cover the value range of f.  Nodes are
    inserted at every preimage of a kink of phi, after which phi is affine
    between consecutive nodes and the composition is exact.
    """
    lo, hi = f.value_range()
    dlo, dhi = phi.domain
    if lo < dlo - GEOM_TOL or hi > dhi + GEOM_TOL:
        raise DomainMismatchError(
            f"map domain [{dlo:g}, {dhi:g}] does not cover value range "
            f"[{lo:g}, {hi:g}]")
    grid, vals = _with_level_crossings(f, phi.breakpoints[1:-1])
    _check_cap(grid.size)
    out = phi.evaluate(np.clip(vals, dlo, dhi))
    return PLFunction(*_prune_collinear(grid, out))


@dataclass(frozen=True)
class ProductApprox:
    """A PL interpolant of a product f*g plus a sup-error bound.

    The bound is (h^2 / 4) * |f'| * |g'| per refined cell, the exact worst
    case for linear interpolation of a quadratic.
    """
    fn: PLFunction
    sup_error: float


def _split_counts(width: np.ndarray, refine: int) -> np.ndarray:
    """Parts per cell of the given widths: ``refine``, or fewer where the
    parts would be narrower than 2 GEOM_TOL, and at least one."""
    return np.minimum(np.maximum(width // (2.0 * GEOM_TOL), 1.0),
                      refine).astype(np.int64)


def refined_grid(grids, refine: int) -> tuple[np.ndarray, np.ndarray]:
    """The merged grid of the given node arrays, and that grid with each
    cell split into equal parts, ``_split_counts`` of them: so no part is
    narrower than GEOM_TOL, and the split points round to distinct nodes."""
    base = _merge_sorted_grids(*grids)
    width = base[1:] - base[:-1]
    parts = _split_counts(width, refine)
    _check_cap(int(parts.sum()) + 1)
    cell = np.repeat(np.arange(parts.size), parts)
    k = np.arange(cell.size) - np.repeat(parts.cumsum() - parts, parts)
    return base, np.append(base[:-1][cell]
                           + width[cell] * (k * (1.0 / parts[cell])),
                           base[-1])


def pl_product(f: PLFunction, g: PLFunction, refine: int = 8) -> ProductApprox:
    """Piecewise-linear interpolant of the product f*g.

    The merged grid is split ``refine``-fold per piece (less on pieces
    narrower than 2 ``refine`` GEOM_TOL, see :func:`refined_grid`) and the
    product is interpolated through the resulting nodes.  The true product
    is piecewise quadratic, so the interpolation error on a part of width h
    is exactly |f'||g'| h^2 / 4 at its midpoint, which is what
    ``sup_error`` reports (maximised over parts).
    """
    if refine < 1:
        raise ValueError("refine must be >= 1")
    base, grid = refined_grid((f.breakpoints, g.breakpoints), refine)
    fv = f.evaluate(grid)
    gv = g.evaluate(grid)
    prod = PLFunction(*_prune_collinear(grid, fv * gv))

    width = base[1:] - base[:-1]
    h = width / _split_counts(width, refine)
    fb, gb = f.evaluate(base), g.evaluate(base)
    fs = (fb[1:] - fb[:-1]) / width
    gs = (gb[1:] - gb[:-1]) / width
    err = float(np.max(np.abs(fs * gs) * h * h / 4.0)) if base.size > 1 else 0.0
    return ProductApprox(prod, err)


def pl_power_interp(f: PLFunction, q: float, refine: int = 16) -> ProductApprox:
    """PL interpolant of x -> |f(x)|^q with an empirical sup-error bound.

    Nodes are placed at the breakpoints of f, at its zero crossings (where
    |f|^q has a kink or a flat tangency) and ``refine``-fold within each
    resulting cell.  The error bound is measured on a 9-point probe per cell;
    it is a diagnostic, not a certificate, and is reported as such.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    x = f.breakpoints
    _, grid = refined_grid((x, _crossings(x, f.values)), refine)
    vals = np.abs(f.evaluate(grid)) ** q
    approx = PLFunction(*_prune_collinear(grid, vals))
    probe_t = np.linspace(0.0, 1.0, 11)[1:-1]
    probes = (grid[:-1][:, None]
              + (grid[1:] - grid[:-1])[:, None] * probe_t[None, :]).ravel()
    err = float(np.max(np.abs(np.abs(f.evaluate(probes)) ** q
                              - approx.evaluate(probes)))) if probes.size else 0.0
    return ProductApprox(approx, err)


# ---------------------------------------------------------------------------
# interval sets


class IntervalSet:
    """A finite union of disjoint closed subintervals of [0, 1].

    Components are stored sorted as (lo, hi) pairs, each the closed
    interval [lo, hi]; degenerate points [x, x] are allowed.  Pairs that
    overlap or lie within GEOM_TOL of each other are merged on
    construction, so the gaps between components are wider than GEOM_TOL.
    """

    __slots__ = ("components",)

    def __init__(self, pairs=()):
        merged: list[tuple[float, float]] = []
        for lo, hi in sorted((float(lo), float(hi)) for lo, hi in pairs):
            if not (0.0 - GEOM_TOL <= lo <= hi <= 1.0 + GEOM_TOL):
                raise ValueError(f"component [{lo}, {hi}] outside [0, 1]")
            lo, hi = min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)
            if merged and lo <= merged[-1][1] + GEOM_TOL:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self.components = tuple(merged)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls()

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls([(0.0, 1.0)])

    @classmethod
    def closed(cls, lo: float, hi: float) -> "IntervalSet":
        return cls([(lo, hi)])

    # -- queries -----------------------------------------------------------

    def __bool__(self):
        return bool(self.components)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __repr__(self):
        parts = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self.components)
        return f"IntervalSet({parts})"

    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.components))

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.components)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.components + other.components)

    def issubset(self, other: "IntervalSet") -> bool:
        """Exact inclusion: each component lies inside one of ``other``'s."""
        return all(any(olo <= lo and hi <= ohi
                       for olo, ohi in other.components)
                   for lo, hi in self.components)


def sublevel_set(g: PLFunction, a: float) -> IntervalSet:
    """The exact sublevel set {x : g(x) <= a}, as closed components.

    Crossings are solved from the line segments; isolated touching points
    come out as degenerate components; a NaN level is an error.
    """
    if math.isnan(a):
        raise ValueError("a sublevel set's level must not be NaN")
    grid, vals = _with_level_crossings(g, (a,))
    # inserted crossing nodes reproduce the level only up to rounding
    tol = GEOM_TOL * max(1.0, abs(a), float(np.abs(vals).max()))
    # a run of nodes at or below the level, padded by a node above each end
    below = np.zeros(grid.size + 2, dtype=bool)
    below[1:-1] = vals <= a + tol
    inner = below[1:-1]
    return IntervalSet(zip(grid[inner & ~below[:-2]].tolist(),
                           grid[inner & ~below[2:]].tolist()))
