"""Korevaar-Schoen functionals on sampled metric-measure spaces.

J_{p,r}(u) is the double integral of |u(x) - u(y)|^p against the scale-r
PI kernel 1_{B(x,r)}(y) 1_U(x) / (r^p m(B(x,r))), with open balls and U a
finite union of closed intervals (the whole space when unrestricted).  On
the bundled uniform grids the inner integral collapses to a band of lattice
offsets, so one evaluation costs O(N * r / spacing) instead of O(N^2).
A scan evaluates every radius in one pass over the offsets of the largest:
each offset's |u(x + k) - u(x)|^p is taken once and shared by every radius
that reaches it, so a scan costs O(N * max cap) powers, not O(N * sum of
caps), and each radius gets the bits a lone evaluation of it gives.  An
integer p takes the power by multiplication, not by a pow call.  On
the unrestricted interval a radius's ball factor is an interior constant c
plus an excess that lives on the two end strips, so an offset adds 2c
times one full-row sum plus a short dot product over the strips: one
full-row pass per offset, whatever the number of radii.  The torus takes
|u - u(. - o)|^p once for each pair of shifts o and -o, and reads every
shift of u as a view of one periodic pad.  Both add the terms of the
per-pair double sum in another order, so they match it to roundoff; a
restricted interval scan adds them in that sum's own order.

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

# the last SCAN_WINDOW scales of a scan (all of them, if fewer) give its
# liminf estimate and its log-log slope
SCAN_WINDOW = 4

# grid sizes each space supports: points of the interval, side of the torus
GRID_SIZES = {"interval": (1, 100_000), "torus": (2, 512)}


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
        low, high = GRID_SIZES["interval"]
        if not low <= n <= high:
            raise ValueError(f"interval grid supports {low} to {high} points")
        h = 1.0 / n
        pts = (np.arange(n) + 0.5) * h
        return cls("interval", pts, np.full(n, h), h)

    @classmethod
    def torus(cls, side: int) -> "SampledSpace":
        """side x side grid on the flat unit 2-torus, total mass 1."""
        low, high = GRID_SIZES["torus"]
        if not low <= side <= high:
            raise ValueError(f"torus grid supports sides {low} to {high}")
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
    """The scale-r PI kernel, optionally restricted in the x slot to a
    closed set U, an IntervalSet of the interval grid."""

    r: float
    p: float
    restriction: IntervalSet | None = None

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError("kernel scale r must be positive")
        if not self.p > 1.0:
            raise ValueError("exponent p must exceed 1")
        if not (math.isfinite(self.r) and math.isfinite(self.p)):
            raise ValueError("kernel scale r and exponent p must be finite")


def ball_measure(space: SampledSpace, x, r: float) -> float:
    """Quadrature mass of the open ball B(x, r): at a grid point the
    lattice ball ``ks_energy`` uses, elsewhere by ``distances_from``."""
    if not r > 0.0:
        raise ValueError("radius must be positive")
    x = np.asarray(x, dtype=float)
    at = (space.points == x).reshape(space.points.shape[0], -1).all(axis=1)
    if not at.any():
        return float(space.weights[space.distances_from(x) < r].sum())
    i = int(np.argmax(at))
    if space.kind == "interval":
        cap = _offset_cap(space, r)
        return float(space.weights[max(i - cap, 0):i + cap + 1].sum())
    side = space.side
    off = np.vstack([[0, 0], _torus_offsets(space, r)[0]])
    cells = (i // side + off[:, 0]) % side * side + (i + off[:, 1]) % side
    return float(space.weights[cells].sum())


def _offset_cap(space: SampledSpace, r: float) -> int:
    """Largest lattice offset m with m * spacing < r (open balls)."""
    h = space.spacing
    m = max(int(math.ceil(r / h)) - 1, 0)
    # r / h rounds, so ceil can land one above or one below that m
    if (m + 1) * h < r:
        m += 1
    elif m > 0 and not m * h < r:
        m -= 1
    return m


def _membership(space: SampledSpace, restriction) -> np.ndarray:
    if restriction is None:
        return np.ones(space.points.shape[0])
    if space.kind != "interval":
        raise ValueError("restriction sets apply to the interval grid only")
    x = space.points
    inside = np.zeros(x.shape, dtype=bool)
    # the test of IntervalSet.contains, one component at a time
    for lo, hi in restriction.components:
        inside |= (lo <= x) & (x <= hi)
    return inside.astype(float)


def _checked_values(space: SampledSpace, u) -> np.ndarray:
    """u as a float array, one finite value per point of a bundled space.

    The sums weigh every point by the grid's spacing alone, so a space
    whose weights are not all equal is rejected, not read as uniform.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (space.points.shape[0],):
        raise ValueError("need one value of u per grid point")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    if space.kind not in ("interval", "torus"):
        raise ValueError(f"unknown space kind {space.kind!r}")
    if np.any(space.weights != space.weights[0]):
        raise ValueError("Korevaar-Schoen energies need equal weights at "
                         "every point")
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

    Offset k enters every radius whose cap reaches it, in increasing k.
    Unrestricted, a radius splits its ball factor into the interior
    constant c = 1 / ((2 cap + 1) h) and an excess e >= 0 that lives on
    the end strips [0, min(cap, n - cap)) and [n - cap, n), so the offset
    adds 2c * sum(dp) plus one short dot product of e against the strips'
    terms: one full-row pass per offset, whatever the number of radii.
    A restriction's factor 1_U / m(B) has no interior constant, so a
    restricted radius multiplies and sums the whole row.
    """
    n = u.size
    h = space.spacing
    caps = [min(_offset_cap(space, r), n - 1) for r in radii]
    k_max = max(caps)
    idx = np.arange(n)

    def ball_counts(cap, x):
        # open-ball point counts: interior points see 2 cap + 1 grid cells
        return np.minimum(x + cap, n - 1) - np.maximum(x - cap, 0) + 1

    if restriction is not None:
        # per-x factor 1_U(x) / m(B(x, r))
        member = _membership(space, restriction)
        sides = [member / (ball_counts(cap, idx) * h) for cap in caps]
        term_row = _scratch(n)
    else:
        # strip layout: y = n - k_max .. n - 1, then y = 0 .. k_max - 1, so
        # a radius's strips [n - cap, n) and [0, min(cap, n - cap)) are the
        # one window [k_max - cap, k_max + min(cap, n - cap)) of it
        windows, interior, excess = [], [], []
        for cap in caps:
            c = 1.0 / ((2 * cap + 1) * h)
            left = min(cap, n - cap)
            y = np.concatenate((idx[n - cap:], idx[:left]))
            windows.append((k_max - cap, k_max + left))
            interior.append(2.0 * c)
            excess.append(1.0 / (ball_counts(cap, y) * h) - c)
        strip = np.empty(2 * k_max)
    acc = [0.0] * len(caps)
    # scratch rows, reused for every offset: a fresh array per step costs
    # more than the arithmetic at these lengths, and numpy writes a row that
    # starts inside a cache line up to 1.5x slower
    dp_row, base_row = _scratch(n), _scratch(n)
    for k in range(1, k_max + 1):
        m = n - k
        dp = dp_row[:m]
        np.subtract(u[k:], u[:-k], out=dp)
        _abs_power(dp, p, base_row[:m])
        if restriction is not None:
            terms = term_row[:m]
            for i, side in enumerate(sides):
                if k <= caps[i]:
                    np.add(side[k:], side[:m], out=terms)
                    terms *= dp
                    acc[i] += float(terms.sum())
            continue
        total = float(dp.sum())
        # the strip holds, at y, the terms of the pairs (y, y + k) and
        # (y - k, y), which both see e(y)
        strip.fill(0.0)
        strip[:k_max - k] = dp[n - k_max:]
        lo = max(k_max - m, 0)
        strip[lo:k_max] += dp[n - k_max + lo - k:]
        strip[k_max:k_max + min(k_max, m)] = dp[:k_max]
        strip[k_max + k:] += dp[:k_max - k]
        for i, (a, b) in enumerate(windows):
            if k <= caps[i]:
                acc[i] += interior[i] * total \
                    + float(np.dot(excess[i], strip[a:b]))
    return np.array([a * h * h / r ** p for a, r in zip(acc, radii)])


def _scratch(*shape) -> np.ndarray:
    """An empty float array whose data starts on a 64-byte cache line."""
    buf = np.empty(math.prod(shape) + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + math.prod(shape)].reshape(shape)


def _abs_power(d: np.ndarray, p: float, base: np.ndarray) -> None:
    """|d|^p in place.  Integer p multiply, within p - 1 roundings and with
    no slow path on zeros as numpy's pow has: d * d, exact without abs, then
    |d|^(p - 2) by squaring in ``base``, a scratch row.  Other p: np.power."""
    if not float(p).is_integer():
        np.abs(d, out=d)
        d **= p
        return
    if k := int(p) - 2:
        np.abs(d, out=base)
    np.multiply(d, d, out=d)
    while k:
        if k & 1:
            d *= base
        if k := k >> 1:
            base *= base


def _torus_cap(space: SampledSpace, r: float) -> int:
    """Offset cap per axis: open balls, and no offset past half the side."""
    return min(_offset_cap(space, r), space.side // 2)


def _torus_offsets(space: SampledSpace, r: float):
    """Lattice offsets (a, b) != 0 with torus distance < r, one per shift
    of the torus, in lexicographic order, and their distances."""
    side = space.side
    h = space.spacing
    k_max = _torus_cap(space, r)
    if k_max == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    rng = np.arange(-k_max, k_max + 1)
    if 2 * k_max == side:
        # on an even side the shifts by -side/2 and side/2 are one shift
        rng = rng[1:]
    aa, bb = np.meshgrid(rng, rng, indexing="ij")
    off = np.column_stack([aa.ravel(), bb.ravel()])
    wrap = np.minimum(np.abs(off), side - np.abs(off)) * h
    dist = np.sqrt(np.sum(wrap * wrap, axis=1))
    keep = (dist < r) & np.any(off != 0, axis=1)
    return off[keep], dist[keep]


def _torus_energies(space: SampledSpace, u: np.ndarray, radii,
                    p: float, restriction) -> np.ndarray:
    """J_{p,r}(u) for every r in radii, each shift pair's sum taken once.

    The shifts o and -o sum the same terms |u(x) - u(x - o)|^p in another
    order, so the first of each pair (by residue mod side) is summed and
    the second reuses it.  A radius's offsets are those of the largest
    radius that lie inside its own cap and ball, in the same order, so
    every J is the sum a lone radius makes.
    """
    if restriction is not None:
        raise ValueError("restriction sets apply to the interval grid only")
    side = space.side
    offsets, dist = _torus_offsets(space, max(radii))
    grid = u.reshape(side, side)
    # one periodic pad: np.roll(grid, (a, b)) is the view at (k - a, k - b)
    k = _torus_cap(space, max(radii))
    ext = np.pad(grid, k, mode="wrap")
    diff, base = _scratch(side, side), _scratch(side, side)
    summed = {}
    terms = []
    for a, b in offsets.tolist():
        term = summed.get((-a % side, -b % side))
        if term is None:
            np.subtract(grid, ext[k - a:k - a + side, k - b:k - b + side],
                        out=diff)
            _abs_power(diff, p, base)
            term = float(diff.sum())
            summed[a % side, b % side] = term
        terms.append(term)
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
                  r_sequence, restriction: IntervalSet | None = None
                  ) -> KSScanReport:
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
    window = min(SCAN_WINDOW, r_values.size)
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
