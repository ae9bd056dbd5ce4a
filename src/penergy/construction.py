"""Energy measures built from fold limits.

The route from a form to a measure goes through cell functions: fold the
function with a triangle wave of level n, cap it with a shifted cut of a
witness, and take energies.  As n grows the energies decrease to a limit
F_f^g(a) that behaves like the measure of the sublevel set {g <= a}.
Differencing those limits along a grid of levels yields a genuine measure
with a piecewise-constant density.

The fold has 2^n pieces, so nothing here materialises it.  Where the cap
sits at or above the fold's peak the energy is the plain energy of f, and
where it is nonpositive the cap wins outright.  Only the band in between
needs the fold's nodes, as many as the slope ratio of f to the witness,
whatever n is.  One ragged kernel, :func:`_band_energy`, integrates the
bands of a whole batch of thresholds, fed by two producers: the identity
witness, whose band is the x-interval [a, a + 2^-n], and general lids,
classified one by one in :func:`_folded_lid_parts`.  One driver,
:func:`_drive`, runs groups of thresholds through the levels in
lock-step: each group (one function f with its thresholds) keeps its own
reference energy and stops once all its thresholds, band residual
included, are quiet, while the band pieces of every group still running
go through one kernel call per level.  A group's rows, stop level and
trace do not depend on the other groups in its batch, so the identity
witness runs the sampled functions of a whole law as one batch.

Everything here requires the strongly local interval model; graph forms
expose their measures directly by edge decomposition instead.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .forms import PLIntervalForm
from .pl import (
    GEOM_TOL,
    MAX_CUT_LEVEL,
    PIECE_CAP,
    IntervalSet,
    PieceCapError,
    PLFunction,
    _merge_sorted_grids,
    _with_level_crossings,
    lattice,
    shifted_cut,
    sublevel_set,
    triangle_fold,
    triangle_wave,
)

__all__ = [
    "FoldSchedule",
    "DEFAULT_SCHEDULE",
    "MEASURE_SCHEDULE",
    "LAW_SCHEDULE",
    "ConvergenceError",
    "EmptyFamilyError",
    "CoverHypothesisError",
    "InadmissibleWitnessWarning",
    "ConvergenceTrace",
    "DistributionSamples",
    "CoveringReport",
    "EnergyMeasure",
    "cell_function",
    "folded_lid_energy",
    "F_value",
    "two_sided_cut_limit",
    "distribution",
    "reflection_gap",
    "canonical_witnesses",
    "outer_measure_lb",
    "energy_measure",
    "reference_measure",
    "covering_check",
]


class ConvergenceError(RuntimeError):
    """A fold limit failed to stall within the level budget."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class EmptyFamilyError(ValueError):
    """No admissible witness pair survived filtering."""


class CoverHypothesisError(ValueError):
    """The claimed covering does not contain the covered sublevel set."""


class InadmissibleWitnessWarning(UserWarning):
    """A witness pair was skipped (level not negative, or set escapes U)."""


@dataclass(frozen=True)
class FoldSchedule:
    """Level range and stopping rule for fold limits.

    A limit is declared converged once the level energy changes by less
    than ``rel_tol`` (relative to the larger of the values compared and of
    the total energy E(f)) for ``stall_count`` consecutive steps.  Where
    the evaluator can split off the band contribution, a step only counts
    as quiet if that residual is below the same tolerance: the capped
    region {lid >= peak} does not move with the level, so the band part
    bounds the distance to the limit from above.  Without that extra
    condition a function with a flat piece can produce a dyadic staircase
    of equal level energies and stall arbitrarily far from the limit.
    """

    n_min: int = 4
    n_max: int = 18
    rel_tol: float = 1e-6
    stall_count: int = 2

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.n_min, self.n_max, self.stall_count)):
            raise ValueError("n_min, n_max and stall_count must be integers")
        if not (1 <= self.n_min <= self.n_max <= MAX_CUT_LEVEL):
            raise ValueError(
                f"need 1 <= n_min <= n_max <= {MAX_CUT_LEVEL}, "
                f"got [{self.n_min}, {self.n_max}]")
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")
        if not math.isfinite(self.rel_tol):
            raise ValueError("rel_tol must be finite")
        if self.stall_count < 1:
            raise ValueError("stall_count must be at least 1")

    @property
    def levels(self) -> range:
        return range(self.n_min, self.n_max + 1)


DEFAULT_SCHEDULE = FoldSchedule()
# Deeper schedules for measure construction: the residual band energy at
# level n is bounded by w_max * max(|slope|, 1)^p * 2^-n, so pointwise
# errors keep shrinking by half per level and the budget below leaves the
# differenced density a comfortable margin under a 1e-4 sup gap.  The
# max(., 1) floor comes from the cut ramp's own slope, so nearly flat
# functions stall only once 2^-n drops below rel_tol * E(f); n_max = 48
# covers energies down to about 1e-6 * w_max.
MEASURE_SCHEDULE = FoldSchedule(n_min=6, n_max=48, rel_tol=1e-8)
LAW_SCHEDULE = FoldSchedule(n_min=6, n_max=24, rel_tol=1e-5)


@dataclass(frozen=True)
class ConvergenceTrace:
    """Level-by-level energies of one fold limit."""

    levels: tuple
    energies: tuple
    converged: bool
    stalled_at: int | None = None

    @property
    def final(self) -> float:
        """The running infimum; energies decrease up to stopping noise."""
        return float(min(self.energies))

    def to_rows(self):
        """(n, energy, inf_so_far) rows for dumps."""
        rows = []
        inf_so_far = np.inf
        for n, e in zip(self.levels, self.energies):
            inf_so_far = min(inf_so_far, e)
            rows.append((n, e, inf_so_far))
        return rows


@dataclass(frozen=True)
class DistributionSamples:
    """F_f^g sampled along a grid of levels a."""

    a_values: np.ndarray
    values: np.ndarray
    traces: tuple
    converged: bool


@dataclass(frozen=True)
class CoveringReport:
    """Subadditivity slack of one covering; slack = sum of parts - whole."""

    covered_value: float
    cover_values: tuple
    slack: float
    tolerance: float
    converged: bool

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance


def _require_pl(form) -> PLIntervalForm:
    if not isinstance(form, PLIntervalForm):
        raise TypeError(
            "the fold construction needs the strongly local interval model; "
            "graph forms expose measures by edge decomposition instead")
    return form


# ---------------------------------------------------------------------------
# cell functions and their energies


def cell_function(f: PLFunction, g: PLFunction, a: float,
                  n: int) -> PLFunction:
    """The capped fold min(T_n o f, S_n^a o g), materialised literally.

    Exponential in n; useful for cross-checks at small levels and as the
    defining object.  Deep levels go through :func:`folded_lid_energy`.
    """
    folded = triangle_fold(f, n)
    lid = shifted_cut(g, a, n)
    return lattice(folded, lid, "min")


#: fold nodes expanded per kernel step; bounds the kernel's scratch memory
_NODE_CHUNK = 1 << 16


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and in-row position of every entry of rows of the given lengths."""
    row = np.repeat(np.arange(counts.size), counts)
    return row, np.arange(row.size) - (np.cumsum(counts) - counts)[row]


def _band_energy(pieces, owner: np.ndarray, size: int, n: int,
                 p: float) -> np.ndarray:
    """Energy of min(T_n o f, lid) over band pieces, summed per owner.

    ``pieces`` holds per-piece arrays (x0, x1, v0, v1, l0, l1, w): on
    [x0, x1], with x0 < x1, f runs affinely from v0 to v1, the lid from l0
    to l1, and the weight is w; ``owner`` maps each piece to one of
    ``size`` thresholds.  Every piece is cut at the preimages of the
    half-period lattice k 2^-n, where the fold peaks (odd k) or vanishes
    (even k).  Between cuts fold and lid are both affine, so the lower one
    changes at most once, at the root of their difference.  Folding keeps
    |f'|, so the fold carries w |f'|^p and the lid w |lid'|^p on the
    stretches where each is lower.  Owners must not decrease from piece to
    piece.
    """
    x0, x1, v0, v1, l0, l1, w = pieces
    eps = 2.0 ** (-n)
    fs = (v1 - v0) / (x1 - x0)
    ls = (l1 - l0) / (x1 - x0)
    kmin = np.floor(np.minimum(v0, v1) / eps).astype(np.int64) + 1
    kmax = np.ceil(np.maximum(v0, v1) / eps).astype(np.int64) - 1
    count = np.maximum(kmax - kmin + 1, 0)
    if count.max(initial=0) > PIECE_CAP:
        raise PieceCapError(f"fold band would materialise {count.max()} "
                            "nodes on one piece")

    # pieces go through in runs of about _NODE_CHUNK nodes, bounding memory;
    # runs start only where the owner changes, so each threshold's band is
    # summed in one bincount whatever else shares the batch
    ends = np.cumsum(count + 2)
    cuts = np.searchsorted(ends, np.arange(0, ends[-1:].sum(), _NODE_CHUNK),
                           side="right")
    if cuts.size > 1:
        cuts = np.unique(np.searchsorted(owner, owner[cuts], side="left"))
    total = np.zeros(size)
    for lo, hi in zip(cuts, np.append(cuts[1:], count.size)):
        # nodes in x order: both piece ends and the lattice crossings between
        piece, pos = _ragged(count[lo:hi] + 2)
        piece += lo
        end = pos == count[piece] + 1
        x = np.where(pos == 0, x0[piece], x1[piece])
        y = triangle_wave(np.where(pos == 0, v0[piece], v1[piece]), n)
        inner = np.nonzero((pos > 0) & ~end)[0]
        ip = piece[inner]
        k = np.where(fs[ip] > 0.0, kmin[ip] + pos[inner] - 1,
                     kmax[ip] - pos[inner] + 1)
        x[inner] = x0[ip] + (k * eps - v0[ip]) / fs[ip]
        y[inner] = eps * (k & 1)
        d = y - (l0[piece] + ls[piece] * (x - x0[piece]))

        left = np.nonzero(~end)[0]
        seg = piece[left]
        span = x[left + 1] - x[left]
        d0, d1 = d[left], d[left + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            root = span * (d0 / (d0 - d1))
        # the stretch of each segment on which the fold is the lower one
        fold = np.where((d0 <= 0.0) & (d1 <= 0.0), span,
                        np.where((d0 >= 0.0) & (d1 >= 0.0), 0.0,
                                 np.where(d0 < 0.0, root, span - root)))
        energy = w[seg] * (np.abs(fs[seg]) ** p * fold
                           + np.abs(ls[seg]) ** p * (span - fold))
        total += np.bincount(owner[seg], minlength=size,
                             weights=np.where(span > 0.0, energy, 0.0))
    return total


def folded_lid_energy(form: PLIntervalForm, f: PLFunction, lid: PLFunction,
                      n: int) -> float:
    """E(min(T_n o f, lid)) without materialising the fold."""
    return float(_lid_energies(form, f, [lid], n)[0][0])


def _folded_lid_parts(form: PLIntervalForm, f: PLFunction, lid: PLFunction,
                      n: int) -> tuple[float, tuple]:
    """Plain energy and band pieces of min(T_n o f, lid).

    Pieces are classified against the fold's peak height 2^-n after
    refining the lid at its crossings of 0 and the peak:

    * lid at or above the peak: the fold wins; folding preserves |f'|, so
      the piece contributes its plain energy in the form.
    * lid at or below 0: the lid wins outright (the fold is nonnegative).
    * otherwise: a band piece, returned as :func:`_band_energy` input.

    For a shifted-cut lid the plain sets do not depend on n, so the band
    energy is an upper bound for the excess over the fold limit.
    """
    p = form.p
    eps = 2.0 ** (-n)
    lx, lv = _with_level_crossings(lid, (0.0, eps))
    grid = _merge_sorted_grids(lx, f.breakpoints, form.weight_bounds)
    fv = f.evaluate(grid)
    cv = np.interp(grid, lx, lv)

    lens = np.diff(grid)  # positive: merged grids are strictly increasing
    l0, l1 = cv[:-1], cv[1:]
    f0, f1 = fv[:-1], fv[1:]
    w = form.weight_at(0.5 * (grid[:-1] + grid[1:]))

    # crossing nodes reproduce the levels only up to rounding; the clip
    # arithmetic behind a shifted cut also leaves absolute residues of
    # order ulp(|a|), which dwarfs 1e-9 * eps once 2^-n nears float
    # granularity, so keep an absolute floor.  Blurring the classification
    # by 1e-14 moves at most that much energy between the plain and band
    # buckets, far below any stall tolerance in use.
    tol = 1e-9 * eps + 1e-14
    plateau = np.minimum(l0, l1) >= eps - tol
    sunk = (np.maximum(l0, l1) <= tol) & ~plateau
    band = ~plateau & ~sunk

    # the winner's slope: the fold's on the plateau, the lid's where sunk
    slope = np.where(plateau, f1 - f0, l1 - l0) / lens
    plain = float(np.sum((w * np.abs(slope) ** p * lens)[~band]))
    return plain, (grid[:-1][band], grid[1:][band], f0[band], f1[band],
                   l0[band], l1[band], w[band])


def _lid_energies(form: PLIntervalForm, f: PLFunction, lids,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """(energy, band residual) of min(T_n o f, lid) for each lid; the
    band pieces of all the lids go through one kernel call."""
    plain, parts = zip(*(_folded_lid_parts(form, f, lid, n) for lid in lids))
    owner = np.repeat(np.arange(len(parts)), [part[0].size for part in parts])
    pieces = [np.concatenate(column) for column in zip(*parts)]
    band = _band_energy(pieces, owner, len(parts), n, form.p)
    return np.array(plain) + band, band


# ---------------------------------------------------------------------------
# the level driver and the fold limits


@dataclass(frozen=True)
class _LevelRun:
    """One group of fold limits: one energy row per level, one column per
    threshold, each threshold's trailing quiet steps, and its last step's
    change or band residual, whichever is larger, over the tolerance."""

    thresholds: np.ndarray
    levels: tuple
    energies: np.ndarray
    quiet_run: np.ndarray
    miss: np.ndarray
    converged: bool

    def trace(self, j: int) -> ConvergenceTrace:
        return ConvergenceTrace(
            self.levels, tuple(self.energies[:, j].tolist()), self.converged,
            self.levels[-1] if self.converged else None)

    @property
    def values(self) -> np.ndarray:
        """Running minimum per threshold over the levels run."""
        return self.energies.min(axis=0)

    def limits(self) -> np.ndarray:
        """The values; if the batch did not stall, raises naming the
        threshold furthest from quiet (shortest quiet run, then largest
        last miss), with its trace."""
        if not self.converged:
            j = int(np.lexsort((-self.miss, self.quiet_run))[0])
            raise ConvergenceError(
                f"fold limits did not stall by n={self.levels[-1]}; furthest "
                f"from quiet: threshold a={self.thresholds[j]:g} (quiet run "
                f"{self.quiet_run[j]}, last step {self.miss[j]:.3g} x "
                f"tolerance)", self.trace(j))
        return self.values


def _cat(parts: list) -> np.ndarray:
    """Concatenation that hands a lone part back without copying it."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _drive(energies_at, groups, sched: FoldSchedule,
           tol: float) -> list[_LevelRun]:
    """Run groups of fold limits through levels n_min..n_max in lock-step.

    ``groups`` holds one (thresholds, reference) pair per group, and
    ``energies_at(n, active)`` gives (energy, band residual or None) for
    the thresholds of the groups listed in ``active``, side by side in that
    order.  A step is quiet when the energy change and the band residual,
    which bounds the distance left to the limit, are both at most ``tol``
    times the largest of the two energies and the group's ``reference``.
    A group stops once every one of its thresholds has had ``stall_count``
    quiet steps in a row; it is then frozen and leaves the active set, so
    its run is the one it would have had alone.

    A zero ``reference`` is E(f) = 0, and 0 <= F_f^g(a) <= E(f) forces
    every limit to be exactly 0: the group returns zeros, converged, at
    the first level, without running any.
    """
    runs = [None] * len(groups)
    active = []
    for g, (thresholds, reference) in enumerate(groups):
        if reference == 0.0 or thresholds.size == 0:
            runs[g] = _LevelRun(thresholds, (sched.n_min,),
                                np.zeros((1, thresholds.size)),
                                np.full(thresholds.size, sched.stall_count),
                                np.zeros(thresholds.size), True)
        else:
            active.append(g)
    active = tuple(active)
    sizes = np.array([groups[g][0].size for g in active], dtype=int)
    starts = np.cumsum(sizes) - sizes
    spans = list(zip(active, starts.tolist(), sizes.tolist()))
    floor = np.repeat([max(groups[g][1], 1e-300) for g in active], sizes)
    quiet_run = np.zeros(floor.size, dtype=int)
    miss = np.full(floor.size, np.inf)
    rows = {g: [] for g in active}
    prev = None
    levels = sched.levels
    for i, n in enumerate(levels):
        if not active:
            break
        e, band = energies_at(n, active)
        if prev is not None:
            limit = tol * np.maximum(np.maximum(e, prev), floor)
            step = np.abs(e - prev)
            if band is not None:
                step = np.maximum(step, band)
            miss = step / limit
            quiet_run = np.where(step <= limit, quiet_run + 1, 0)
        prev = e
        for g, s, k in spans:
            rows[g].append(e[s:s + k])
        done = np.minimum.reduceat(quiet_run, starts) >= sched.stall_count
        last = i + 1 == len(levels)
        if last or done.any():
            for (g, s, k), stop in zip(spans, done):
                if stop or last:
                    runs[g] = _LevelRun(groups[g][0], tuple(levels[:i + 1]),
                                        np.array(rows.pop(g)),
                                        quiet_run[s:s + k], miss[s:s + k],
                                        bool(stop))
            keep = np.repeat(~done, sizes)
            prev, floor = prev[keep], floor[keep]
            quiet_run, miss = quiet_run[keep], miss[keep]
            active = tuple(g for g, stop in zip(active, done) if not stop)
            sizes = sizes[~done]
            starts = np.cumsum(sizes) - sizes
            spans = list(zip(active, starts.tolist(), sizes.tolist()))
    return runs


def _cut_run(form: PLIntervalForm, f: PLFunction, pairs,
             sched: FoldSchedule) -> _LevelRun:
    """F_f^g(a) for every witness pair (g, a), as one group."""
    return _drive(lambda n, _: _lid_energies(
        form, f, [shifted_cut(g, a, n) for g, a in pairs], n),
        [(np.array([a for _, a in pairs], dtype=float), form.energy(f))],
        sched, sched.rel_tol)[0]


def _identity_runs(form: PLIntervalForm, groups,
                   sched: FoldSchedule) -> list[_LevelRun]:
    """F_f^id at every threshold of each (f, a_vec) group, in lock-step.

    The identity lid is the ramp a + 2^-n - x clipped to [0, 2^-n]: below
    a the fold is the minimum, read off the cumulative energy of f, and
    past a + 2^-n the lid is 0.  Only the band between goes to the kernel,
    cut where f or the weight changes slope.  Per level each running group
    locates its band ends in its own grid and evaluates its own f at its
    band nodes; the bands of all of them are assembled side by side and go
    through one kernel call.  A quarter of rel_tol as the stall tolerance
    keeps the band residual inside the cell-mass slack.
    """
    fns, grids, cols, drive = [], [], [], []
    for f, a_vec in groups:
        a_vec = np.asarray(a_vec, dtype=float)
        grid, cum = form.cumulative_energy(f)
        fns.append(f)
        grids.append(grid)
        cols.append((a_vec, np.interp(a_vec, grid, cum)))  # a and plateau
        drive.append((a_vec, float(cum[-1])))
    batch = {}  # the running groups' columns side by side, per active set

    def energies_at(n, active):
        if batch.get("active") != active:
            at = np.cumsum([0] + [cols[g][0].size for g in active])
            nodes = np.cumsum([0] + [grids[g].size for g in active]).tolist()
            spans = list(zip(active, at.tolist(), at[1:].tolist(), nodes))
            a, plateau = map(_cat, zip(*(cols[g] for g in active)))
            batch.update(active=active, spans=spans, a=a, plateau=plateau,
                         at=at, grid=_cat([grids[g] for g in active]))
        b = batch
        eps = 2.0 ** (-n)
        lo = np.clip(b["a"], 0.0, 1.0)
        hi = np.clip(b["a"] + eps, 0.0, 1.0)
        # per group, as indices into the grids side by side: the first node
        # past lo and the first node at or past hi
        first = _cat([np.searchsorted(grids[g], lo[i:j], side="right") + off
                      for g, i, j, off in b["spans"]])
        inside = _cat([np.searchsorted(grids[g], hi[i:j], side="left") + off
                       for g, i, j, off in b["spans"]]) - first
        # band nodes per threshold: lo, the grid nodes strictly inside, hi
        row, pos = _ragged(np.where(hi > lo, inside + 2, 0))
        end = pos == inside[row] + 1
        x = b["grid"][np.clip(first[row] + pos - 1, 0, b["grid"].size - 1)]
        x = np.where(pos == 0, lo[row], np.where(end, hi[row], x))
        # each group's nodes follow one another, as its thresholds do
        ends = np.searchsorted(row, b["at"][1:]).tolist()
        v = _cat([fns[g].evaluate(x[i:j]) for g, i, j
                  in zip(active, [0] + ends, ends)])
        lid = b["a"][row] + eps - x
        left = np.nonzero(~end)[0]
        right = left + 1
        pieces = (x[left], x[right], v[left], v[right], lid[left], lid[right],
                  form.weight_at(0.5 * (x[left] + x[right])))
        band = _band_energy(pieces, row[left], hi.size, n, form.p)
        return b["plateau"] + band, band

    return _drive(energies_at, drive, sched, 0.25 * sched.rel_tol)


def _identity_run(form: PLIntervalForm, f: PLFunction, a_vec,
                  sched: FoldSchedule) -> _LevelRun:
    """F_f^id at every threshold of a_vec: the one-group batch."""
    return _identity_runs(form, [(f, a_vec)], sched)[0]


def F_value(form: PLIntervalForm, f: PLFunction, g: PLFunction, a: float,
            sched: FoldSchedule = DEFAULT_SCHEDULE,
            materialized: bool = False) -> ConvergenceTrace:
    """The fold limit F_f^g(a), with its level trace.

    Runs levels n_min..n_max until the stall rule fires.  A trace that
    exhausts the budget comes back with ``converged=False``; callers that
    need a hard value decide whether to raise.  With ``materialized=True``
    the cell function is built literally at every level (cross-check path,
    exponential in n).
    """
    _require_pl(form)
    if not materialized:
        return _cut_run(form, f, [(g, a)], sched).trace(0)

    def literal(n, _):  # no plain/band split to certify against
        return np.array([form.energy(cell_function(f, g, a, n))]), None
    return _drive(literal, [(np.array([a], dtype=float), form.energy(f))],
                  sched, sched.rel_tol)[0].trace(0)


def two_sided_cut_limit(form: PLIntervalForm, f: PLFunction, g: PLFunction,
                        low: float, high: float,
                        sched: FoldSchedule = DEFAULT_SCHEDULE,
                        ) -> ConvergenceTrace:
    """Limit energy of the fold capped on both sides of a witness band.

    The cap is min(S_n^high o g, S_n^(-low) o (-g)): it opens only where
    low < g <= high, so the limit is a capacity-style upper bound for the
    measure of that slab, compared against F(high) - F(low) in tests.
    """
    _require_pl(form)
    neg_g = -g
    return _drive(lambda n, _: _lid_energies(form, f, [lattice(
        shifted_cut(g, high, n), shifted_cut(neg_g, -low, n), "min")], n),
        [(np.array([high], dtype=float), form.energy(f))], sched,
        sched.rel_tol)[0].trace(0)


def distribution(form: PLIntervalForm, f: PLFunction, g: PLFunction,
                 a_values, sched: FoldSchedule = DEFAULT_SCHEDULE,
                 ) -> DistributionSamples:
    """F_f^g along an increasing grid of levels, run as one batch.

    Checks the structure the measure construction relies on: values are
    monotone nondecreasing up to the stall slack, vanish below min g, and
    reach E(f) at or above max g.  A batch that does not stall, or values
    that break that structure, raise ConvergenceError.
    """
    _require_pl(form)
    a_grid = np.asarray(a_values, dtype=float)
    if a_grid.ndim != 1 or a_grid.size < 1:
        raise ValueError("need a one-dimensional, nonempty level grid")
    if np.any(np.diff(a_grid) <= 0.0):
        raise ValueError("level grid must be strictly increasing")
    e_ref = form.energy(f)
    run = _cut_run(form, f, [(g, a) for a in a_grid], sched)
    vals = run.limits()

    slack = sched.rel_tol * max(e_ref, 1e-300)
    drops = np.diff(vals)
    if drops.size and float(drops.min()) < -slack:
        k = int(np.argmin(drops))
        raise ConvergenceError(
            f"distribution not monotone: F({a_grid[k + 1]:g}) < "
            f"F({a_grid[k]:g}) by {-drops[k]:.3e}", run.trace(k))
    g_lo, g_hi = g.value_range()
    if a_grid[0] < g_lo and vals[0] > 4.0 * slack:
        raise ConvergenceError(
            f"distribution should vanish below min g: F({a_grid[0]:g}) = "
            f"{vals[0]:.3e}", run.trace(0))
    if a_grid[-1] >= g_hi and abs(vals[-1] - e_ref) > 4.0 * slack:
        raise ConvergenceError(
            f"distribution should reach E(f) above max g: "
            f"F({a_grid[-1]:g}) = {vals[-1]:.6e} vs {e_ref:.6e}",
            run.trace(a_grid.size - 1))
    return DistributionSamples(
        a_grid, vals, tuple(run.trace(j) for j in range(a_grid.size)), True)


def reflection_gap(form: PLIntervalForm, f: PLFunction, g: PLFunction,
                   a: float, sched: FoldSchedule = DEFAULT_SCHEDULE) -> float:
    """Signed defect of F_f^g(a) + F_f^(-g)(-a-1e-9) - E(f).

    The reflected witness counts the strict superlevel set {g > a}; the
    small shrink 1e-9 keeps the two sublevel sets disjoint when g hits the
    level a on a set of positive measure.
    """
    _require_pl(form)
    below, above = _cut_run(form, f, [(g, a), (-g, -a - 1e-9)], sched).values
    return float(below + above - form.energy(f))


# ---------------------------------------------------------------------------
# outer measure from witness families


LADDER_DEPTH = 10


def canonical_witnesses(target: IntervalSet):
    """Witness pairs (g, a) with a < 0 and {g <= a} inside the target.

    Per component the distance-like hat max(lo - x, x - hi) carries a
    dyadic ladder of LADDER_DEPTH negative levels; components touching the
    domain ends get one-sided affine witnesses whose sublevel sets reach
    the boundary.  A full-domain target gets the constant -1 at level
    -1/2, which is exact.  For several components the lattice min of the
    per-component witnesses joins them, so one level collects every
    component at once.  Levels translate the sublevel sets strictly
    inside, so the supremum over the ladder approaches the measure from
    below.
    """
    pairs = []
    primaries = []  # (witness, level scale) with {g <= -s/2^j} in its comp
    for lo, hi, _, _ in target.components:
        width = hi - lo
        if width <= GEOM_TOL:
            continue  # no room for a nonempty strict sublevel set
        if lo <= GEOM_TOL and hi >= 1.0 - GEOM_TOL:
            pairs.append((PLFunction.constant(-1.0), -0.5))
            primaries.append((PLFunction.constant(-1.0), 1.0))
            continue
        if lo <= GEOM_TOL:
            primary = PLFunction([0.0, 1.0], [-hi, 1.0 - hi])
        elif hi >= 1.0 - GEOM_TOL:
            primary = PLFunction([0.0, 1.0], [lo, lo - 1.0])
        else:
            mid = 0.5 * (lo + hi)
            primary = PLFunction([0.0, mid, 1.0],
                                 [lo, -0.5 * width, 1.0 - hi])
        primaries.append((primary, 0.5 * width))
        for j in range(1, LADDER_DEPTH + 1):
            pairs.append((primary, -0.5 * width * 2.0 ** (-j)))
    if len(primaries) > 1:
        joint = primaries[0][0]
        for g, _ in primaries[1:]:
            joint = lattice(joint, g, "min")
        scale = min(s for _, s in primaries)
        for j in range(1, LADDER_DEPTH + 1):
            pairs.append((joint, -scale * 2.0 ** (-j)))
    return pairs


def outer_measure_lb(form: PLIntervalForm, f: PLFunction,
                     target: IntervalSet, family=None,
                     sched: FoldSchedule = DEFAULT_SCHEDULE) -> float:
    """Lower bound sup F_f^g(a) over admissible witnesses for the target.

    Admissible means a < 0 and {g <= a} contained in the target; other
    pairs are skipped with a warning.  Raises when nothing is admissible.
    """
    _require_pl(form)
    if family is None:
        family = canonical_witnesses(target)
    admissible = []
    for g, a in family:
        if not a < 0.0:
            warnings.warn(
                f"witness level a={a:g} is not negative; skipped",
                InadmissibleWitnessWarning, stacklevel=2)
        elif not sublevel_set(g, a).issubset(target):
            warnings.warn(
                f"sublevel set at a={a:g} escapes the target; skipped",
                InadmissibleWitnessWarning, stacklevel=2)
        else:
            admissible.append((g, a))
    if not admissible:
        raise EmptyFamilyError(
            "no admissible witness pair for the target set")
    return float(_cut_run(form, f, admissible, sched).values.max())


# ---------------------------------------------------------------------------
# the energy measure


class EnergyMeasure:
    """A measure on [0, 1] with piecewise-constant density.

    Stored as cell masses over a strictly increasing node grid.  Cells are
    taken left-closed; single points carry no mass, so endpoint closure
    flags of queried interval sets are ignored.  A fold limit that does not
    stall raises ConvergenceError instead of yielding a measure.
    """

    __slots__ = ("nodes", "masses", "levels_used")

    def __init__(self, nodes, masses, levels_used=()):
        nodes = np.asarray(nodes, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if masses.shape != (nodes.size - 1,):
            raise ValueError("need one mass per cell")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        self.nodes = nodes
        self.masses = masses
        self.levels_used = tuple(levels_used)

    @property
    def density(self) -> np.ndarray:
        return self.masses / np.diff(self.nodes)

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def measure(self, target) -> float:
        """Mass of an IntervalSet (or a single (lo, hi) pair).

        Cells are prorated by overlap, exact for targets whose endpoints
        lie on the node grid and for any target once the density is
        constant on the straddled cells.
        """
        if isinstance(target, IntervalSet):
            comps = [(lo, hi) for lo, hi, _, _ in target.components]
        else:
            comps = [tuple(target)]
        dens = self.density
        total = 0.0
        for lo, hi in comps:
            left = np.maximum(self.nodes[:-1], lo)
            right = np.minimum(self.nodes[1:], hi)
            overlap = np.clip(right - left, 0.0, None)
            total += float(np.dot(dens, overlap))
        return total

    def cells(self):
        return zip(self.nodes[:-1], self.nodes[1:], self.density)

    def to_rows(self):
        """(cell_lo, cell_hi, density) rows for dumps."""
        return [(float(lo), float(hi), float(d)) for lo, hi, d in self.cells()]

    def __repr__(self):
        return (f"EnergyMeasure({self.nodes.size - 1} cells, "
                f"mass {self.total_mass():.6g})")


def _density_grid(form: PLIntervalForm, f: PLFunction,
                  resolution: int) -> np.ndarray:
    """Thresholds for differencing: uniform points plus the density cells.

    w |f'|^p is constant between consecutive breakpoints of f and weight
    bounds, so those points enter verbatim; a uniform point within a
    quarter cell of one is dropped rather than kept as a near-duplicate,
    which would divide schedule-level mass error by a sliver width.
    """
    fixed = np.unique(np.concatenate((f.breakpoints, form.weight_bounds)))
    uniform = np.arange(resolution + 1, dtype=float) / resolution
    pos = np.searchsorted(fixed, uniform)
    left = uniform - fixed[np.clip(pos - 1, 0, fixed.size - 1)]
    right = fixed[np.clip(pos, 0, fixed.size - 1)] - uniform
    near = np.minimum(np.abs(left), np.abs(right)) < 0.25 / resolution
    return np.unique(np.concatenate((fixed, uniform[~near])))


def energy_measure(form: PLIntervalForm, f: PLFunction, resolution: int = 512,
                   sched: FoldSchedule = MEASURE_SCHEDULE) -> EnergyMeasure:
    """The energy measure of f, by differencing identity-witness limits.

    Evaluates F_f^id in one batch on the uniform grid k/resolution refined
    by f's breakpoints and the weight bounds (the density is constant
    between those, so the differenced masses recover it exactly).  The
    differences form the cell masses; a budget exhaustion, dips below
    -rel_tol * E(f) and a total-mass mismatch beyond rel_tol raise
    ConvergenceError.
    """
    _require_pl(form)
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    a_grid = _density_grid(form, f, resolution)
    e_ref = form.energy(f)
    if e_ref == 0.0:
        return EnergyMeasure(a_grid, np.zeros(a_grid.size - 1))

    run = _identity_run(form, f, a_grid, sched)
    masses = np.diff(run.limits())
    slack = sched.rel_tol * e_ref
    if float(masses.min()) < -slack:
        k = int(np.argmin(masses))
        raise ConvergenceError(
            f"negative cell mass {masses[k]:.3e} on "
            f"[{a_grid[k]:g}, {a_grid[k + 1]:g}] beyond slack {slack:.1e}",
            run.trace(k))
    total = float(masses.sum())
    if abs(total - e_ref) > slack:
        raise ConvergenceError(
            f"total mass {total:.9e} vs energy {e_ref:.9e} beyond "
            f"slack {slack:.1e}", run.trace(a_grid.size - 1))
    return EnergyMeasure(a_grid, masses, run.levels)


def reference_measure(form: PLIntervalForm, f: PLFunction) -> EnergyMeasure:
    """The exact measure with density w |f'|^p, bypassing the fold limit."""
    _require_pl(form)
    grid, dens = form.density_cells(f)
    return EnergyMeasure(grid, dens * np.diff(grid))


def covering_check(form: PLIntervalForm, f: PLFunction, g: PLFunction,
                   a: float, cover,
                   sched: FoldSchedule = DEFAULT_SCHEDULE) -> CoveringReport:
    """Subadditivity of fold limits across a covering of {g <= a}.

    ``cover`` is an iterable of (h, b) pairs; their sublevel sets must
    jointly contain {g <= a} (checked exactly, hypothesis failure raises).
    Reports the slack sum_i F_f^h_i(b_i) - F_f^g(a), nonnegative up to
    rel_tol * E(f).
    """
    _require_pl(form)
    cover = list(cover)
    if not cover:
        raise CoverHypothesisError("empty cover")
    covered = sublevel_set(g, a)
    covering = IntervalSet.empty()
    for h, b in cover:
        covering = covering.union(sublevel_set(h, b))
    if not covered.issubset(covering):
        raise CoverHypothesisError(
            f"cover misses part of the sublevel set: {covered} is not "
            f"inside {covering}")
    run = _cut_run(form, f, [(g, a)] + cover, sched)
    lhs, *rhs = run.values.tolist()
    return CoveringReport(lhs, tuple(rhs), float(sum(rhs) - lhs),
                          sched.rel_tol * form.energy(f), run.converged)
