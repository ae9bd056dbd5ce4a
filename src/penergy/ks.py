"""Korevaar-Schoen functionals on sampled metric-measure spaces.

J_{p,r}(u) is the double integral of |u(x) - u(y)|^p against the scale-r
PI kernel 1_{B(x,r)}(y) 1_U(x) / (r^p m(B(x,r))), with open balls.  On the
bundled uniform grids the inner integral collapses to a band of lattice
offsets, so one evaluation costs O(N * r / spacing) instead of O(N^2).
A scan evaluates every radius in one pass over the offsets of the largest:
each offset's |u(x + k) - u(x)|^p is taken once and shared by every radius
that reaches it, so a scan costs O(N * max cap) powers, not O(N * sum of
caps), and each radius still adds its terms in the order a lone
evaluation does.

Ball masses use the same quadrature weights as the outer sums, which keeps
the functional exactly zero on constants and makes J(a u) = |a|^p J(u) hold
to roundoff.  Scans extrapolate r -> 0 linearly (the boundary layer of a
piecewise-smooth profile is O(r)) and report the spread between even- and
odd-indexed subsequences rather than asserting a unique limit, since the
subsequence independence of the limit is an open question.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .forms import PLIntervalForm
from .pl import IntervalSet, PLFunction

# below ~3 grid spacings the ball holds so few points that quadrature
# error swamps the r -> 0 trend
RESOLUTION_FACTOR = 3.0

# log-log slope of J against r in the scan window that flags divergence;
# a jump profile scales like r^{1-p} (slope <= -0.5 for p >= 1.5), while
# Sobolev-type profiles flatten out
DIVERGENCE_SLOPE = -0.5


class SampledSpace:
    """A finite quadrature model (points, metric, weights) of (X, d, m).

    Bundled spaces are the uniform midpoint grid on [0, 1] with Lebesgue
    weights and the flat 2-torus grid; both satisfy volume doubling and a
    Poincare inequality, which is what the kernel comparisons assume.
    """

    __slots__ = ("kind", "points", "weights", "spacing", "side")

    def __init__(self, kind: str, points, weights, spacing: float,
                 side: int | None = None):
        points = np.asarray(points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if points.shape[0] != weights.shape[0]:
            raise ValueError("one weight per point")
        if np.any(weights < 0.0) or not weights.sum() > 0.0:
            raise ValueError("weights must be nonnegative with positive sum")
        if not spacing > 0.0:
            raise ValueError("spacing must be positive")
        self.kind = kind
        self.points = points
        self.weights = weights
        self.spacing = float(spacing)
        self.side = side

    @classmethod
    def interval(cls, n: int) -> "SampledSpace":
        """Uniform midpoint grid of n cells on [0, 1], total mass 1."""
        if not 1 <= n <= 100_000:
            raise ValueError("interval grid supports 1 to 1e5 points")
        h = 1.0 / n
        pts = (np.arange(n) + 0.5) * h
        return cls("interval", pts, np.full(n, h), h)

    @classmethod
    def torus(cls, side: int) -> "SampledSpace":
        """side x side grid on the flat unit 2-torus, total mass 1."""
        if not 2 <= side <= 512:
            raise ValueError("torus grid supports sides 2 to 512")
        h = 1.0 / side
        axis = (np.arange(side) + 0.5) * h
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        return cls("torus", pts, np.full(side * side, h * h), h, side)

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def distances_from(self, x) -> np.ndarray:
        """d(x, p) for every grid point p, under the space's metric."""
        if self.kind == "interval":
            return np.abs(self.points - float(x))
        x = np.asarray(x, dtype=float)
        diff = np.abs(self.points - x[None, :])
        diff = np.minimum(diff, 1.0 - diff)
        return np.sqrt(np.sum(diff * diff, axis=1))

    def __repr__(self):
        return (f"SampledSpace({self.kind}, {self.points.shape[0]} points, "
                f"spacing {self.spacing:g})")


@dataclass(frozen=True)
class KSKernel:
    """The scale-r PI kernel, optionally restricted to a set in the x slot."""

    r: float
    p: float
    restriction: IntervalSet | None = None
    kind: str = "pi_kernel"

    def __post_init__(self):
        if self.kind != "pi_kernel":
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.r > 0.0:
            raise ValueError("kernel scale r must be positive")
        if not self.p > 1.0:
            raise ValueError("exponent p must exceed 1")


def ball_measure(space: SampledSpace, x, r: float) -> float:
    """Quadrature mass of the open ball B(x, r)."""
    if not r > 0.0:
        raise ValueError("radius must be positive")
    return float(space.weights[space.distances_from(x) < r].sum())


def _offset_cap(space: SampledSpace, r: float) -> int:
    """Largest lattice offset with offset * spacing < r (open balls)."""
    return max(int(math.ceil(r / space.spacing)) - 1, 0)


def _membership(space: SampledSpace, restriction) -> np.ndarray:
    if restriction is None:
        return np.ones(space.points.shape[0])
    if space.kind != "interval":
        raise ValueError("restriction sets apply to the interval grid only")
    x = space.points
    inside = np.zeros(x.shape, dtype=bool)
    # the test of IntervalSet.contains, one component at a time
    for lo, hi, lc, hc in restriction.components:
        inside |= ((lo < x) & (x < hi)) | ((x == lo) & lc) | ((x == hi) & hc)
    return inside.astype(float)


def _checked_values(space: SampledSpace, u) -> np.ndarray:
    """u as a float array, one finite value per point of a bundled space."""
    u = np.asarray(u, dtype=float)
    if u.shape != (space.points.shape[0],):
        raise ValueError("need one value of u per grid point")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    if space.kind not in ("interval", "torus"):
        raise ValueError(f"unknown space kind {space.kind!r}")
    return u


def ks_energy(space: SampledSpace, u, kernel: KSKernel) -> float:
    """J_{p,r}(u): the double quadrature sum against the PI kernel."""
    u = _checked_values(space, u)
    if space.kind == "interval":
        return _ks_interval(space, u, kernel)
    return _ks_torus(space, u, kernel)


# one-radius entry points, kept by name: perfbench/tracer.py wraps them
def _ks_interval(space: SampledSpace, u: np.ndarray,
                 kernel: KSKernel) -> float:
    return float(_interval_energies(space, u, [kernel.r], kernel.p,
                                    kernel.restriction)[0])


def _ks_torus(space: SampledSpace, u: np.ndarray, kernel: KSKernel) -> float:
    return float(_torus_energies(space, u, [kernel.r], kernel.p,
                                 kernel.restriction)[0])


def _interval_energies(space: SampledSpace, u: np.ndarray, radii,
                       p: float, restriction) -> np.ndarray:
    """J_{p,r}(u) for every r in radii, each offset's power taken once.

    Offset k enters every radius whose cap reaches it, and each radius adds
    its terms in increasing k, so every J is the sum a lone radius makes.
    """
    n = u.size
    h = space.spacing
    caps = [min(_offset_cap(space, r), n - 1) for r in radii]
    member = _membership(space, restriction)
    idx = np.arange(n)
    sides = []
    for cap in caps:
        # open-ball point counts: interior points see 2 cap + 1 grid cells
        counts = (np.minimum(idx + cap, n - 1)
                  - np.maximum(idx - cap, 0) + 1)
        # per-x factor 1_U(x) / m(B(x, r))
        sides.append(member / (counts * h))
    acc = [0.0] * len(caps)
    # scratch rows, reused for every offset: a fresh array per step costs
    # more than the arithmetic at these lengths
    dp_row, term_row = np.empty(n), np.empty(n)
    for k in range(1, max(caps) + 1):
        dp = dp_row[:n - k]
        np.subtract(u[k:], u[:-k], out=dp)
        np.abs(dp, out=dp)
        dp **= p
        terms = term_row[:n - k]
        for i, side in enumerate(sides):
            if k <= caps[i]:
                np.add(side[k:], side[:-k], out=terms)
                terms *= dp
                acc[i] += float(terms.sum())
    return np.array([a * h * h / r ** p for a, r in zip(acc, radii)])


def _torus_cap(space: SampledSpace, r: float) -> int:
    """Offset cap per axis: open balls, and no offset past half the side."""
    return min(_offset_cap(space, r), space.side // 2)


def _torus_offsets(space: SampledSpace, r: float):
    """Integer lattice offsets (a, b) != 0 with torus distance < r, in
    lexicographic order, and their distances."""
    side = space.side
    h = space.spacing
    k_max = _torus_cap(space, r)
    if k_max == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    rng = np.arange(-k_max, k_max + 1)
    aa, bb = np.meshgrid(rng, rng, indexing="ij")
    off = np.column_stack([aa.ravel(), bb.ravel()])
    wrap = np.minimum(np.abs(off), side - np.abs(off)) * h
    dist = np.sqrt(np.sum(wrap * wrap, axis=1))
    keep = (dist < r) & np.any(off != 0, axis=1)
    return off[keep], dist[keep]


def _torus_energies(space: SampledSpace, u: np.ndarray, radii,
                    p: float, restriction) -> np.ndarray:
    """J_{p,r}(u) for every r in radii, each offset's sum taken once.

    A radius's offsets are those of the largest radius that lie inside its
    own cap and ball, in the same order, so every J is the sum a lone
    radius makes.
    """
    if restriction is not None:
        raise ValueError("restriction sets apply to the interval grid only")
    side = space.side
    offsets, dist = _torus_offsets(space, max(radii))
    grid = u.reshape(side, side)
    terms = []
    for a, b in offsets.tolist():
        shifted = np.roll(np.roll(grid, a, axis=0), b, axis=1)
        terms.append(float(np.sum(np.abs(grid - shifted) ** p)))
    reach = np.abs(offsets).max(axis=1)
    h = space.spacing
    w = h * h
    out = np.zeros(len(radii))
    for i, r in enumerate(radii):
        keep = np.flatnonzero((reach <= _torus_cap(space, r)) & (dist < r))
        if keep.size == 0:
            continue
        acc = 0.0
        for j in keep.tolist():
            acc += terms[j]
        # translation invariance: every ball holds the same mass
        ball = (keep.size + 1) * w
        out[i] = acc * w * w / (ball * r ** p)
    return out


# ---------------------------------------------------------------------------
# scans in r


@dataclass(frozen=True)
class KSScanReport:
    """J along a decreasing r-sequence with its limit diagnostics.

    ``extrapolated`` removes the O(r) boundary layer from the last two
    scan points; ``subsequence_gap`` is the spread between the even- and
    odd-indexed extrapolations (reported, never asserted away, since
    subsequence independence of the limit is open).  ``divergent`` flags
    profiles whose log-log slope keeps climbing as r drops, the signature
    of a jump: J scales like r^{1-p} there.
    """

    r_values: np.ndarray
    j_values: np.ndarray
    running_sup: np.ndarray
    window: int
    liminf_estimate: float
    extrapolated: float
    subsequence_gap: float
    loglog_slope: float
    divergent: bool

    @property
    def sup_value(self) -> float:
        return float(self.running_sup[-1])

    def to_rows(self):
        """(r, J, sup_so_far) rows for dumps."""
        return list(zip(self.r_values.tolist(), self.j_values.tolist(),
                        self.running_sup.tolist()))


def _linear_r_extrapolation(r: np.ndarray, j: np.ndarray) -> float:
    """Remove the O(r) term from the last two samples of J(r)."""
    if r.size == 1:
        return float(j[-1])
    r1, r2 = r[-2], r[-1]
    return float((j[-1] * r1 - j[-2] * r2) / (r1 - r2))


def ks_limit_scan(space: SampledSpace, u, p: float,
                  r_sequence, restriction: IntervalSet | None = None,
                  window: int = 4) -> KSScanReport:
    """J_{p,r} along a decreasing r-sequence, with limit diagnostics.

    The sequence must be strictly decreasing and stay at or above the
    resolution floor of 3 grid spacings; below it the ball quadrature
    error dominates every trend the scan is trying to see.
    """
    r_values = np.asarray(r_sequence, dtype=float)
    if r_values.ndim != 1 or r_values.size < 2:
        raise ValueError("need at least two scales r")
    if np.any(np.diff(r_values) >= 0.0):
        raise ValueError("r sequence must be strictly decreasing")
    floor = RESOLUTION_FACTOR * space.spacing
    if r_values[-1] < floor - 1e-12:
        raise ValueError(
            f"r={r_values[-1]:g} is below the resolution floor {floor:g}")
    for r in r_values:
        KSKernel(float(r), p, restriction)  # the kernel's own r and p checks
    u = _checked_values(space, u)
    if space.kind == "interval":
        j_values = _interval_energies(space, u, r_values.tolist(), p,
                                      restriction)
    else:
        j_values = _torus_energies(space, u, r_values.tolist(), p,
                                   restriction)
    running_sup = np.maximum.accumulate(j_values)
    window = min(max(window, 2), r_values.size)
    tail_r = r_values[-window:]
    tail_j = j_values[-window:]
    liminf_estimate = float(tail_j.min())
    extrapolated = _linear_r_extrapolation(r_values, j_values)
    even = _linear_r_extrapolation(r_values[0::2], j_values[0::2])
    odd = _linear_r_extrapolation(r_values[1::2], j_values[1::2])
    subsequence_gap = abs(even - odd)
    scale = float(np.max(j_values))
    if scale > 0.0 and np.all(tail_j > 0.0):
        slope = np.polyfit(np.log(tail_r), np.log(tail_j), 1)[0]
    else:
        slope = 0.0
    divergent = bool(slope < DIVERGENCE_SLOPE
                     and tail_j[-1] > 2.0 * j_values[0])
    return KSScanReport(r_values, j_values, running_sup, window,
                        liminf_estimate, extrapolated, subsequence_gap,
                        float(slope), divergent)


@dataclass(frozen=True)
class WeakMonotonicityReport:
    """Empirical constant in sup_r J <= C liminf_{r -> 0} J."""

    c_star: float
    sup_value: float
    liminf_estimate: float
    scan: KSScanReport = field(repr=False)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.c_star)


def check_weak_monotonicity(space: SampledSpace, u, p: float,
                            r_sequence) -> WeakMonotonicityReport:
    """Ratio of the running sup to the small-r window minimum.

    No universal constant is asserted; the report records the empirical
    C* and whether it is finite.  A constant profile makes the ratio 0/0
    and raises instead of reporting.
    """
    scan = ks_limit_scan(space, u, p, r_sequence)
    if scan.sup_value == 0.0:
        raise ValueError("constant profile: weak monotonicity is vacuous")
    if scan.liminf_estimate <= 0.0:
        c_star = math.inf
    else:
        c_star = scan.sup_value / scan.liminf_estimate
    return WeakMonotonicityReport(float(c_star), scan.sup_value,
                                  scan.liminf_estimate, scan)


# ---------------------------------------------------------------------------
# comparison against the interval form


@dataclass(frozen=True)
class CanonicalComparison:
    """(p+1) * lim J against the form energy and the measure's total mass."""

    ks_limit: float
    scaled_limit: float
    form_energy: float
    measure_mass: float
    energy_deviation: float
    measure_deviation: float
    scan: KSScanReport = field(repr=False)


def default_r_sequence(space: SampledSpace, count: int = 8,
                       r_max: float = 0.05,
                       r_min: float | None = None) -> np.ndarray:
    """Geometric scales from r_max down toward (not onto) the floor.

    Each target is snapped to (m + 1/2) grid spacings so the open-ball
    cutoff falls halfway between lattice shells; that turns the shell
    quantization error from O(h/r) into O((h/r)^2).  The default lower
    end stays a factor 5 under r_max rather than descending to the
    resolution floor itself: near the floor the residual (h/r)^2
    quadrature error grows past the O(r) boundary layer and would bend
    the small-r tail that the extrapolation relies on.
    """
    h = space.spacing
    floor = RESOLUTION_FACTOR * h
    if r_min is None:
        r_min = max(floor, r_max / 5.0)
    if not floor <= r_min < r_max:
        raise ValueError("need resolution floor <= r_min < r_max")
    targets = np.geomspace(r_max, r_min, count)
    snapped = (np.round(targets / h - 0.5) + 0.5) * h
    snapped = snapped[snapped >= floor - 1e-12]
    keep = np.concatenate(([True], np.diff(snapped) < 0.0))
    return snapped[keep]


def ks_vs_canonical(space: SampledSpace, u_pl: PLFunction, p: float,
                    r_sequence=None) -> CanonicalComparison:
    """Compare the extrapolated KS limit with the canonical quantities.

    On the unit interval with Lebesgue weights the kernel limit carries a
    factor 2 r^{p+1} / ((p+1) 2 r) per unit of |u'|^p, so (p+1) * lim J
    should match both the form energy and the measure's total mass.
    """
    if space.kind != "interval":
        raise ValueError("the canonical comparison runs on interval grids")
    if r_sequence is None:
        r_sequence = default_r_sequence(space)
    u = u_pl.evaluate(space.points)
    scan = ks_limit_scan(space, u, p, r_sequence)
    form = PLIntervalForm(p)
    energy = form.energy(u_pl)
    from .laws import set_masses
    mass = float(set_masses(form, u_pl, (IntervalSet.full(),))[0])
    scaled = (p + 1.0) * scan.extrapolated
    dev_e = abs(scaled - energy) / max(energy, 1e-12)
    dev_m = abs(scaled - mass) / max(mass, 1e-12)
    return CanonicalComparison(scan.extrapolated, scaled, energy, mass,
                               dev_e, dev_m, scan)


# ---------------------------------------------------------------------------
# bundled profiles


def profile_values(space: SampledSpace, name: str) -> np.ndarray:
    """Named test profiles sampled on the grid.

    Interval: linear, sine, tent, step.  Torus: constant-in-one-axis
    versions (sine uses the first coordinate; step splits the torus).
    """
    if space.kind == "interval":
        x = space.points
    else:
        x = space.points[:, 0]
    if name == "linear":
        return x.copy()
    if name == "sine":
        return np.sin(2.0 * np.pi * x) if space.kind == "torus" \
            else np.sin(np.pi * x)
    if name == "tent":
        return np.minimum(x, 1.0 - x) * 2.0
    if name == "step":
        return (x > 0.5).astype(float)
    raise ValueError(f"unknown profile {name!r}")
