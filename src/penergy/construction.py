"""Energy measures built from fold limits.

The route from a form to a measure goes through cell functions: fold the
function with a triangle wave of level n, cap it with a lid made from a
witness g, and take energies.  As n grows the energies decrease to a limit
F_f^g(a) that behaves like the measure of the sublevel set {g <= a}.
Differencing those limits along a grid of levels yields a genuine measure
with a piecewise-constant density.

The fold has 2^n pieces, so nothing here materialises it.  Every limit is
one window lo <= g <= hi on a witness (lo = -inf for a sublevel set): on
the window the lid sits at the fold's peak and f keeps its plain energy,
and 2^-n outside it the lid is 0.  That plateau, f's energy on the window,
is exact.  Only the bands in between need the fold's nodes.  One producer,
:func:`_window_runs`, cuts those bands at the nodes of f, g and the weight
for every witness, the identity included: its rows are those of the
witness h = x on the cells of f and the weight.  One kernel,
:func:`_band_energy`, integrates them in closed form: the lattice
crossings of f cut a piece into a head, whole half-teeth and a tail, and
the half-teeth sum as arithmetic series, so a piece costs the same at any
slope.  A band is cut at the exact crossings of its two levels, where the
lid is 2^-n and 0, so the lid is the paper's clip(a + 2^-n - g, 0, 2^-n),
however narrow the band.  Each row reads f's value at its cell's left end,
and f's slope and the weight on its cell, once per batch, from the
partition the plateau is read from; the kernel takes slopes, not end
values, so no slope is taken again from two rounded values.  A band
crossed at slope |g'| is 2^-n / |g'| wide and carries at most w 2^-n
(|g'|^(p-1) + |f'|^p / |g'|), so the level energies of a steep witness
fall to the plateau like 2^-n, slowly when |g'|^(p-1) is large.  One level
loop, :func:`_drive`, runs groups (one function f with its windows)
through the levels in lock-step: each group stops once all its thresholds,
band residual included, are quiet, and its rows, numbered once per batch,
are then masked out of the kernel's work.  The kernel takes a block of
levels per call: the levels up to the first at which some group could
stop, so each call sends exactly the rows that a call per level would,
and each level's sums add the same terms in the same order.  A group's
rows, stop level and trace do not depend on the other groups in its batch.

An identity threshold need not run the early levels, which mostly confirm
the 2^-n decay of its band.  On an identity row the lid has slope -1 and
f the slope of its cell, so the row's band carries between w min(1,
|f'|^p) and w max(1, |f'|^p) times its width.  Before any row is built,
:func:`_first_levels` reads bounds on each band off the cumulative sums of
those two rates on the :class:`Cells` partition (:func:`_rate_bounds`)
and gives each threshold the latest first level at which they prove that
the run from there has the same values, stop level, quiet steps and
misses as the run from n_min; the threshold's rows are then built for its
band at that level.  The same proof bounds the blocks: no group stops
before the level its threshold of steepest band is first quiet at, plus
stall_count.  The levels listed stay n_min..stop, and a trace runs a late
threshold's skipped levels, on rows built for its band at n_min, in one
call, when it is asked for.

Everything here requires the strongly local interval model; graph forms
expose their measures directly by edge decomposition instead.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .forms import Cells, PLIntervalForm, integrate, spans
from .pl import (
    GEOM_TOL,
    MAX_CUT_LEVEL,
    IntervalSet,
    PLFunction,
    _merge_sorted_grids,
    dyadic_mod,
    lattice,
    sublevel_set,
)

__all__ = [
    "FoldSchedule",
    "DEFAULT_SCHEDULE",
    "MEASURE_SCHEDULE",
    "ConvergenceError",
    "EmptyFamilyError",
    "CoverHypothesisError",
    "InadmissibleWitnessWarning",
    "ConvergenceTrace",
    "DistributionSamples",
    "CoveringReport",
    "EnergyMeasure",
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


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and in-row position of every entry of rows of the given lengths."""
    row = np.repeat(np.arange(counts.size), counts)
    return row, np.arange(row.size) - (np.cumsum(counts) - counts)[row]


def _fold_below(span, d0, d1):
    """The stretch of [0, span] on which d, affine from d0 to d1, is at most
    0: the fold's share where d is fold minus lid."""
    root = span * (d0 / (d0 - d1))
    return np.where(np.maximum(d0, d1) <= 0.0, span,
                    np.where(np.minimum(d0, d1) >= 0.0, 0.0,
                             np.where(d0 < 0.0, root, span - root)))


#: lattice indices are clipped to +-_K_CLIP to fit int64: uncrossed past it
_K_CLIP = 2.0 ** 62


def _band_energy(pieces, eps, owner: np.ndarray, size: int) -> np.ndarray:
    """Energy of min(T_n o f, lid) over band pieces, summed per owner.

    ``pieces`` holds per-piece arrays (x0, x1, v0, fs, l0, ls, w, S, Sl):
    on [x0, x1], with x0 < x1, f runs from v0 at slope fs, the lid from l0
    at slope ls, the weight is w, and S = |fs|^p and Sl = |ls|^p; ``eps``
    is each piece's 2^-n, or one for all, and ``owner`` maps each piece to
    one of ``size`` sums.  Folding keeps |f'|, so the fold carries w S and
    the lid w Sl on the stretches where each is lower.  The preimages of
    the half-period lattice k 2^-n, where the fold peaks (odd k) or
    vanishes (even k), cut a piece into three parts.  On the head, before
    the first crossing, and the tail, after the last, fold and lid are
    affine, so the lower one changes at most once, at their root.  On each
    whole half-tooth in between, the fold runs its full height while the
    lid stays in [0, 2^-n]: the fold is lower on one stretch at the valley
    end, lambda / (|f'| - lid') long on a rising tooth and lambda / (|f'|
    + lid') on a falling one, lambda the lid at the valley.  lambda is
    affine in the crossing, so each kind sums as an arithmetic series, and
    a piece costs the same at any slope.  The fold's share is kept in [0,
    width], so a piece carries between w min(S, Sl) and w max(S, Sl) times
    its width.
    """
    x0, x1, v0, fs, l0, ls, w, fp, lp = pieces
    span, slope, period = x1 - x0, np.abs(fs), eps + eps
    v1 = v0 + fs * span
    kmin = np.floor(np.clip(np.minimum(v0, v1) / eps, -_K_CLIP, _K_CLIP)
                    ).astype(np.int64) + 1
    kmax = np.ceil(np.clip(np.maximum(v0, v1) / eps, -_K_CLIP, _K_CLIP)
                   ).astype(np.int64) - 1
    crossed, teeth = kmax - kmin >= 0, np.maximum(kmax - kmin, 0)
    up = fs > 0.0
    first, last = np.where(up, kmin, kmax), np.where(up, kmax, kmin)
    # T_n, as pl.triangle_wave, at both ends
    t0, t1 = dyadic_mod(v0, period), dyadic_mod(v1, period)
    t0, t1 = np.minimum(t0, period - t0), np.minimum(t1, period - t1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # k 2^-n - v0 has the sign of fs, so a crossing is never below x0
        xf, xl = (np.where(crossed, np.minimum(
            x1, x0 + (k * eps - v0) / fs), x1) for k in (first, last))
        lf, ll = l0 + ls * (xf - x0), l0 + ls * (xl - x0)
        head = _fold_below(xf - x0, t0 - l0, np.where(
            crossed, eps * (first & 1), t1) - lf)
        tail = _fold_below(x1 - xl, eps * (last & 1) - ll,
                           t1 - (l0 + ls * span))
        # the valleys are the crossings j = j0, j0 + 2, ... of even k, with
        # lid lf + j dl; a rising tooth starts at one, a falling one ends there
        j0 = first & 1
        rise = ((teeth + 1 - j0) // 2).astype(float)
        fall, dl = teeth - rise, ls * (eps / slope)
        lower = (rise * (lf + dl * (j0 + rise - 1.0)) / (slope - ls)
                 + fall * (lf + dl * (fall + 1.0 - j0)) / (slope + ls))
        # fmax drops a 0/0: where |lid'| = |f'| any split costs the same
        fold = np.minimum(head + np.fmin(np.fmax(lower, 0.0), xl - xf)
                          + tail, span)
    energy = w * (fp * fold + lp * (span - fold))
    return np.bincount(owner, weights=energy, minlength=size)


# ---------------------------------------------------------------------------
# the level driver and the fold limits


@dataclass(frozen=True)
class _LevelRun:
    """One group of fold limits: one energy row per level, one column per
    threshold, each threshold's first level, its trailing quiet steps, and
    its last step's change or band residual, whichever is larger, over the
    tolerance.

    A threshold that starts past the first level holds inf at the levels
    before its own; its running minimum is certified to lie among the
    levels it ran, so :attr:`values` need not look at the others, and
    :meth:`trace` runs them, threshold j alone and in one call, by
    ``rerun(j, levels)``.
    """

    thresholds: np.ndarray
    levels: tuple
    energies: np.ndarray
    quiet_run: np.ndarray
    miss: np.ndarray
    converged: bool
    first: np.ndarray
    rerun: Callable | None = field(default=None, compare=False, repr=False)

    def trace(self, j: int) -> ConvergenceTrace:
        """Every level's energy of threshold j, skipped levels included."""
        e = self.energies[:, j]
        late = int(self.first[j]) - self.levels[0]
        if late > 0:
            e = np.concatenate((self.rerun(j, self.levels[:late]), e[late:]))
        return ConvergenceTrace(
            self.levels, tuple(e.tolist()), self.converged,
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


def _drive(energies_at, rerun, groups, first: np.ndarray,
           stops: np.ndarray, table: dict, sched: FoldSchedule,
           tol: float) -> list[_LevelRun]:
    """Run groups of fold limits through levels n_min..n_max in lock-step,
    one block of levels per call.

    ``groups`` holds one (thresholds, reference) pair per group, and all
    thresholds are numbered once, group after group; ``first`` gives each
    threshold's first level, ``stops`` each group's earliest possible stop
    level, no earlier than any of its thresholds' first level plus
    stall_count, and ``table`` the kernel's rows by threshold ``owner``,
    ordered by first level; those of stopped groups are masked out.
    ``energies_at(table, levels, held)`` gives (energy, band residual) rows,
    one per level of the block, for all thresholds, the k-th level running
    the first held[k] rows.  ``rerun(j, levels)`` gives threshold j's
    energies at levels before its first.  A step is quiet when the energy
    change and the band residual, which bounds the distance left to the
    limit, are both at most ``tol`` times the largest of the two energies
    and the group's ``reference``; a threshold's first level is no step.
    A group stops once all its thresholds have had ``stall_count`` quiet
    steps in a row; its run, sliced out of the full rows, is the one it
    would have had alone.

    A block runs from the next level to the first at which some running
    group could stop: not before its ``stops`` level, nor before the level
    at which each of its thresholds could have had ``stall_count`` quiet
    steps, one more per level.  So no group stops inside a block, and each
    call sends the rows that a call per level would.  A block holds at most
    _BOUND_CHUNK rows, unless its one level alone holds more.  Its levels
    pass the stall test one by one.

    A zero ``reference`` is E(f) = 0, and 0 <= F_f^g(a) <= E(f) forces
    every limit to be exactly 0: the group returns zeros, converged, at
    the first level, without running any.
    """
    sizes = np.array([t.size for t, _ in groups], dtype=int)
    starts = np.cumsum(sizes) - sizes
    reference = np.array([r for _, r in groups], dtype=float)
    running = (reference != 0.0) & (sizes > 0)
    runs = [None if run else _LevelRun(
        t, (sched.n_min,), np.zeros((1, t.size)),
        np.full(t.size, sched.stall_count), np.zeros(t.size), True,
        first[s:s + t.size])
        for (t, _), run, s in zip(groups, running, starts)]
    filled = sizes > 0  # reduceat reads one entry past an empty group
    heads, least = starts[filled], np.zeros(len(groups), dtype=int)
    floor = np.repeat(np.maximum(reference, 1e-300), sizes)
    quiet_run = np.zeros(floor.size, dtype=int)
    miss = np.full(floor.size, np.inf)
    rows, prev, levels = [], None, sched.levels
    count = sched.stall_count

    def running_rows(table):
        """The rows of running groups, and how many run at each level."""
        keep = np.repeat(running, sizes)[table["owner"]]
        if not keep.all():
            table = {name: v[keep] for name, v in table.items()}
        return table, np.cumsum(np.bincount(
            first[table["owner"]] - sched.n_min, minlength=len(levels)))

    table, held = running_rows(table)
    i = 0
    while i < len(levels) and running.any():
        # the first level at which a running group could stop
        end = min(int(np.maximum(stops, levels[i] - 1 + count - np.minimum(
            least, count))[running].min()), sched.n_max)
        m = max(int(np.searchsorted(np.cumsum(
            held[i:end - sched.n_min + 1]), _BOUND_CHUNK, side="right")), 1)
        block = energies_at(table, np.arange(levels[i], levels[i] + m),
                            held[i:i + m])
        for e, band in zip(*block):
            n = levels[i]
            if prev is not None:
                limit = tol * np.maximum(np.maximum(e, prev), floor)
                step = np.maximum(np.abs(e - prev), band)
                # read only once a threshold has run a step
                miss = step / limit
                # a first level is no step
                still = (step <= limit) & (first < n)
                quiet_run = np.where(still, quiet_run + 1, 0)
            prev = e
            rows.append(e)
            least[filled] = np.minimum.reduceat(quiet_run, heads)
            quiet = least >= count
            stop = running & quiet if i + 1 < len(levels) else running
            for g in np.flatnonzero(stop):
                s, k = starts[g], sizes[g]
                energies = np.array([r[s:s + k] for r in rows])
                # a late threshold's levels before its first hold inf
                late = np.less.outer(levels[:i + 1], first[s:s + k])
                energies[late] = np.inf
                runs[g] = _LevelRun(
                    groups[g][0], tuple(levels[:i + 1]), energies,
                    quiet_run[s:s + k], miss[s:s + k], bool(quiet[g]),
                    first[s:s + k], lambda j, at, s=s: rerun(s + j, at))
            if stop.any():
                running = running & ~stop
                table, held = running_rows(table)
            i += 1
    return runs


def _preimage(x0, x1, s0, s1, level):
    """Where s, affine from s0 at x0 to s1 at x1, meets the level, clamped
    to [x0, x1]; a flat s gives x0 below it, x1 above it and NaN on it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.clip(x0 + (level - s0) / (s1 - s0) * (x1 - x0), x0, x1)


def _band_rows(h0, h1, c, eps):
    """(threshold, cell) pairs whose range of h, affine from h0 to h1 on
    the cell, meets the open band (c, c + eps); by threshold, then cell."""
    order = np.argsort(c, kind="stable")
    first = np.searchsorted(c[order] + eps, np.minimum(h0, h1), side="right")
    cell, pos = _ragged(np.maximum(np.searchsorted(
        c[order], np.maximum(h0, h1)) - first, 0))
    t = order[first[cell] + pos]
    sort = np.lexsort((cell, t))
    return t[sort], cell[sort]


def _band_ends(r: dict, top):
    """[x0, x1] of each row's band, where h, affine from ha at xa to hb at
    xb, lies in (c, top): the cell cut at the exact crossings of c (xc,
    found once) and of top.  A flat h is all band or none."""
    at_top = _preimage(r["xa"], r["xb"], r["ha"], r["hb"], top)
    return np.minimum(r["xc"], at_top), np.maximum(r["xc"], at_top)


#: The kernel's rounding, as a bound on what it sums: each row's term lies a
#: few roundings off its range, and one threshold's terms, up to 2^22 rows,
#: add up within a factor 1 +- _KAPPA.
_KAPPA = 2.0 ** -30
#: (row, level) entries per block of levels the driver asks for: past some
#: 2^13 entries the kernel's temporaries leave the cache, and an entry costs
#: half as much again
_BOUND_CHUNK = 1 << 13


def _rank(key: np.ndarray, group, x, side: str) -> np.ndarray:
    """np.searchsorted of x among the nodes of its group, as an index into
    ``key``, which holds every group's nodes as group + 1j node: numpy
    orders complex numbers by real, then imaginary part.  The nodes lie in
    [0, 1], and the clip keeps 1j x finite."""
    return np.searchsorted(key, group + 1j * np.clip(x, -1.0, 2.0), side)


def _identity_rows(grid: dict, ident: dict, k: np.ndarray, level) -> dict:
    """The rows of identity thresholds k at ``level`` (one, or one per
    threshold): the cells from each one's own to the last below c + 2^-n,
    by threshold, then cell, as :func:`_band_rows` gives them; a threshold
    at or past its group's last node has none."""
    c, own = ident["c"][k], ident["own"][k]
    last = np.minimum(_rank(grid["key"], ident["g"][k], c + np.ldexp(
        1.0, -level), "left") - 1, ident["end"][k])
    row, pos = _ragged(np.maximum(last - own + 1, 0) * (c < ident["xb"][k]))
    cell, c = own[row] + pos, c[row]
    xa, xb = grid["x"][cell], grid["x"][cell + 1]
    # the lid of the identity has slope -1, and |-1|^p = 1
    return dict(owner=ident["t"][k][row], c=c, xa=xa, xb=xb, ha=xa, hb=xb,
                xc=_preimage(xa, xb, xa, xb, c), ls=np.full(c.size, -1.0),
                Sl=np.ones(c.size), **{name: grid[name][cell] for name in (
                    "fa", "fs", "w", "S")})


def _rate_bounds(grid: dict, ident: dict, level):
    """L <= band <= U for the band energy the kernel gives identity
    thresholds (the columns of ``ident``, each of the shape of ``level`` or
    ``level`` a scalar) at ``level``.

    On an identity row the lid has slope -1 exactly and f the slope of its
    cell, so the row carries between r_lo = w min(1, |f'|^p) and r_hi = w
    max(1, |f'|^p) times the width of its band.  The band (c, c + 2^-n)
    runs from c's own cell to a last cell j; on those two its width is the
    producer's own, read by :func:`_preimage` as the producer reads it, so
    a band inside one cell, every fine level's, is one product with no
    cancellation.  The cells in between are whole, and their share is a
    difference of the cumulative rates R_lo and R_hi at the nodes.  The
    producer ends a whole cell [xa, xb]'s band exactly at xb: c + 2^-n >
    xb, so its ratio in :func:`_preimage` rounds to at least 1, and xb - xa
    is exact when xa >= xb / 2.  Only a cell wider than half its node, so
    with xa < (c + 2^-n) / 2, can end short, by at most an ulp of xb, which
    is 2^-51 of its band and far inside _KAPPA.  A difference of R over k
    cells is off by at most k ulps of R at its far end, a margin that
    widens both.  The kernel's own sum is within _KAPPA.
    """
    top = ident["c"] + np.ldexp(1.0, -level)
    xa, xb, own = ident["xa"], ident["xb"], ident["own"]
    head = _preimage(xa, xb, xa, xb, top) - ident["x0"]
    low, high = ident["lo"] * head, ident["hi"] * head
    cross = (top > xb) & (own < ident["end"])
    if cross.any():
        g, after, end, top = (v[cross] for v in (
            ident["g"], own + 1, ident["end"], top))
        j = np.minimum(_rank(grid["key"], g, top, "left") - 1, end)
        xj, xk = grid["x"][j], grid["x"][j + 1]
        tail = _preimage(xj, xk, xj, xk, top) - xj
        whole = np.ldexp(j - after, -52)
        for bound, side, r in ((low, -1.0, "lo"), (high, 1.0, "hi")):
            R = grid["R" + r]
            bound[cross] += grid[r][j] * tail + np.maximum(
                R[j] * (1.0 + side * whole) - R[after], 0.0)
    return low * (1.0 - _KAPPA), high * (1.0 + _KAPPA)


def _first_levels(grid: dict, ident: dict, plateau: np.ndarray,
                  reference: np.ndarray, sched: FoldSchedule,
                  tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each identity threshold's first level, and each group's earliest
    stop level.

    The first level is n_min, or a later level s chosen from the bounds of
    :func:`_rate_bounds`, such that the run from there keeps every value,
    stop level, quiet step and miss of the run from n_min; any such level
    would do.  ``plateau`` is each threshold's plateau and ``reference``
    each group's E(f).  The bounds are read off cumulative rates, not off
    rows, and widened by what the rows' rounding can move: the ends of a
    band in its first and last cell are the producer's own, each whole
    cell between ends at its node or, if wider than half of it, at most
    2^-51 of its band short, a difference of cumulative sums is off by an
    ulp of its far end per cell, and the kernel's sum by _KAPPA.  So they
    hold at every level, also where a band is a few ulps wide.

    A threshold whose band is certainly above the tolerance at a level is
    not quiet there.  If one threshold's is at every step up to a level m,
    no group stops before m + stall_count, and a threshold started at s <=
    m reaches every stop test with the quiet steps of the full run (at
    least stall_count of them if it had those).  The group's probe, the
    threshold tested at every level, is its one of steepest band at fine
    levels.  A threshold's running minimum is unchanged if each skipped
    level's energy, at least plateau + L_{s-1}, is no smaller than plateau
    + U at the earliest stop, a level it runs.  The bounds hold the bands
    the kernel sums, which only shrink with the level, so L_{s-1} bounds
    every skipped level's band, whatever the rounding of L at other levels;
    the latest such s <= m, m that of its group, is found bit by bit.  The
    earliest stop level, m + stall_count, bounds the blocks of levels
    :func:`_drive` asks for; a group whose probe's band is not certainly
    busy at n_min + 1 has m = n_min.
    """
    n_min, count, group = sched.n_min, sched.stall_count, ident["g"]
    # the probe: per group, the threshold whose own cell, the one from its
    # threshold on, has the largest w min(1, |f'|^p)
    rate = np.where(ident["xa"] <= ident["c"], ident["lo"], 0.0)
    best = np.zeros(reference.size)
    np.maximum.at(best, group, rate)
    tops = np.flatnonzero(rate == best[group])
    probe = tops[np.diff(group[tops], prepend=-1) != 0]
    # a proof past n_max - stall_count proves nothing
    levels = np.arange(n_min, sched.n_max - count + 1)
    low, high = _rate_bounds(grid, {k: np.broadcast_to(v[probe, None], (
        probe.size, levels.size)) for k, v in ident.items()}, levels)
    busy = low[:, 1:] > tol * (reference[group[probe], None] + np.maximum(
        high[:, 1:], high[:, :-1])) * (1.0 + 2.0 ** -40)
    proof = np.full(reference.size, n_min)
    proof[group[probe]] += np.logical_and.accumulate(busy, axis=1).sum(axis=1)
    # each threshold's latest start n_min + k, k at most its group's m -
    # n_min: k counts the levels n_min, ... with plateau + L >= plateau + U
    # at the earliest stop, and is found bit by bit, highest first
    cap, k = (proof - n_min)[group], np.zeros(group.size, dtype=int)
    ceiling = plateau + _rate_bounds(grid, ident, (proof + count)[group])[1]
    for bit in 1 << np.arange(int(cap.max(initial=0)).bit_length())[::-1]:
        up = k + bit
        k = np.where((up <= cap) & (plateau + _rate_bounds(
            grid, ident, n_min - 1 + up)[0] >= ceiling), up, k)
    return n_min + k, proof + count


def _window_runs(form: PLIntervalForm, groups, sched: FoldSchedule,
                 tol: float) -> list[_LevelRun]:
    """Fold limits over witness windows for each (f, blocks) group, run in
    lock-step by :func:`_drive` with stall tolerance ``tol``.

    A block (g, lo, hi) gives one threshold per entry of ``hi``, the window
    lo <= g <= hi, with ``lo`` None for a one-sided cut and ``g`` None for
    the identity, whose blocks are one-sided; a NaN bound is rejected.  The
    plateau, f's energy on the window, is read once off its cumulative
    energy.  Only the bands g in (hi, hi + 2^-n) and (lo - 2^-n, lo) need
    the fold's nodes, and each block of levels :func:`_drive` asks for sends
    all of them through one kernel call.  A row is one threshold c, side h
    and cell of the grid x of f, the weight and g, where the cell's range of
    h = g (for c = hi) or h = -g (for c = -lo) meets the band (c, c + 2^-n)
    at the threshold's first level; the identity's grid is that of f and
    the weight, and its h is x.  Each row reads, once, f's value at the
    cell's left end and f's slope and the weight on the cell of
    :class:`Cells` holding it, the partition the plateau is read from.
    Each level cuts the cell down to its band at the exact crossings of c,
    where the lid is 2^-n, and of c + 2^-n, where it is 0; at a cell end
    inside the band the lid is c + 2^-n - h.
    Thresholds are numbered once, when the batch is built.  A witness
    threshold's rows are built at sched.n_min; an identity threshold's first
    level is chosen by :func:`_first_levels` from rates on the same
    partition, before any of its rows exist, and its rows are built at that
    level, in order of first level, so that the rows a level runs are a
    prefix of those that run at all.  A batch with no groups has no runs.
    """
    if not groups:
        return []
    drive, plateau, rows, grids, idents = [], [], [], [], []
    start = 0  # thresholds so far
    for group, (f, blocks) in enumerate(groups):
        cells = Cells(form, f)
        grid, fs = cells.nodes, cells.slope(f)
        S = np.abs(fs) ** form.p
        cum = cells.cumulative(cells.weight * S * cells.width)
        his = []
        for g, lo, hi in blocks:
            sides = 1 if lo is None else 2
            hi = np.asarray(hi, dtype=float)
            lo = np.broadcast_to(np.asarray(-np.inf if lo is None else lo,
                                            dtype=float), hi.shape)
            if np.isnan(hi).any() or np.isnan(lo).any():
                raise ValueError("fold-limit thresholds must not be NaN")
            his.append(hi)
            row0, start = start, start + hi.size
            if g is None:
                plateau.append(np.interp(hi, grid, cum))
                idents.append((np.arange(row0, start), hi,
                               np.full(hi.size, group)))
                continue
            x = _merge_sorted_grids(grid, g.breakpoints)
            gx = g.evaluate(x)
            # the plateau: f's energy where lo <= g <= hi, cell by cell (a
            # flat cell all or nothing)
            ga, gb, top, bottom = gx[:-1], gx[1:], hi[:, None], lo[:, None]
            p0, p1 = (_preimage(x[:-1], x[1:], ga, gb, v)
                      for v in (bottom, top))
            a0 = np.where(ga == gb, x[:-1], np.minimum(p0, p1))
            a1 = np.where(ga == gb, np.where(
                (bottom <= ga) & (ga <= top), x[1:], x[:-1]),
                np.maximum(p0, p1))
            plateau.append(np.sum(np.where(a1 > a0, np.interp(
                a1, grid, cum) - np.interp(a0, grid, cum), 0.0), axis=1))
            # each cell of x lies in one cell of the partition
            at = np.searchsorted(grid, 0.5 * (x[:-1] + x[1:])) - 1
            fx = f.evaluate(x)
            for h, c in ((gx, hi), (-gx, -lo))[:sides]:
                t, cell = _band_rows(h[:-1], h[1:], c, 2.0 ** -sched.n_min)
                xa, xb, ha, hb = x[cell], x[cell + 1], h[cell], h[cell + 1]
                ls, on = (ha - hb) / (xb - xa), at[cell]
                rows.append(dict(
                    owner=t + row0, c=c[t], xa=xa, xb=xb, ha=ha, hb=hb,
                    xc=_preimage(xa, xb, ha, hb, c[t]), ls=ls, fa=fx[cell],
                    fs=fs[on], w=cells.weight[on], S=S[on],
                    Sl=np.abs(ls) ** form.p))
        if any(g is None for g, _, _ in blocks):
            # the identity's grid, each cell's columns at its left node
            r_lo, r_hi = (cells.weight * v(S, 1.0) for v in (np.minimum,
                                                             np.maximum))
            grids.append((group + 1j * grid, grid, f.evaluate(grid), *(
                np.append(v, 0.0) for v in (fs, cells.weight, S, r_lo, r_hi)),
                cells.cumulative(r_lo * cells.width),
                cells.cumulative(r_hi * cells.width)))
        drive.append((_cat(his), float(cum[-1])))
    plateau, size = _cat(plateau), start
    first = np.full(size, sched.n_min)
    stops = np.full(len(drive), sched.n_min + sched.stall_count)
    if idents:
        grid = dict(zip(("key", "x", "fa", "fs", "w", "S", "lo", "hi", "Rlo",
                         "Rhi"), map(_cat, zip(*grids))))
        t, c, group = map(_cat, zip(*idents))
        # each threshold's own cell, clipped to its group's, of rates 0 at
        # or past the group's last node
        start, end = (np.searchsorted(grid["key"].real, group, side) - d
                      for side, d in (("left", 0), ("right", 2)))
        own = np.clip(_rank(grid["key"], group, c, "right") - 1, start, end)
        xa, xb = grid["x"][own], grid["x"][own + 1]
        ident = dict(t=t, c=c, g=group, own=own, end=end, xa=xa, xb=xb,
                     x0=_preimage(xa, xb, xa, xb, c), **{
                         r: np.where(c < xb, grid[r][own], 0.0)
                         for r in ("lo", "hi")})
        first[t], stops = _first_levels(grid, ident, plateau[t], np.array(
            [e for _, e in drive]), sched, tol)
        order = np.argsort(first[t], kind="stable")
        rows.append(_identity_rows(grid, ident, order, first[t][order]))
    rows = {name: _cat([r[name] for r in rows]) for name in rows[0]}

    def energies_at(r, levels, held):
        """(energy, band residual) rows, one per level, where level l sends
        the first held[l] rows of table r."""
        k = levels.size
        if not held.any():
            band = np.zeros((k, size))
            return plateau + band, band
        # entries level by level, each level's in row order; one level's
        # rows are a prefix of r, taken as views
        if k == 1:
            level, pick = 0, slice(0, held[0])
        else:
            level, pick = _ragged(held)
        eps = np.ldexp(1.0, -levels)[level]
        ends = {name: r[name][pick] for name in ("c", "xa", "xb", "ha", "hb",
                                                "xc")}
        top = ends["c"] + eps
        x0, x1 = _band_ends(ends, top)
        keep = np.flatnonzero(x1 > x0)
        x0, x1, top, xa, ha = (v[keep] for v in (
            x0, x1, top, ends["xa"], ends["ha"]))
        if k == 1:
            pick = keep
        else:
            level, pick, eps = level[keep], pick[keep], eps[keep]
        fa, fs, ls, w, fp, lp, owner = (r[name][pick] for name in (
            "fa", "fs", "ls", "w", "S", "Sl", "owner"))
        # one sum per level and threshold
        band = _band_energy((x0, x1, fa + fs * (x0 - xa), fs,
                             np.clip(top - ha, 0.0, eps), ls, w, fp, lp),
                            eps, owner + level * size, k * size
                            ).reshape(k, size)
        return plateau + band, band

    def rerun(j, levels):
        # a late identity threshold's rows, built at the first level asked
        levels = np.asarray(levels)
        r = _identity_rows(grid, ident, ident["t"] == j, levels[0])
        return energies_at(r, levels, np.full(levels.size, r["owner"].size)
                           )[0][:, j]

    return _drive(energies_at, rerun, drive, first, stops, rows, sched, tol)


def _identity_runs(form: PLIntervalForm, groups,
                   sched: FoldSchedule) -> list[_LevelRun]:
    """F_f^id at every threshold of each (f, a_vec) group, in lock-step; a
    stall tolerance of rel_tol / 4 keeps the band inside the mass slack."""
    return _window_runs(form, [(f, [(None, None, a)]) for f, a in groups],
                        sched, 0.25 * sched.rel_tol)


def _identity_run(form: PLIntervalForm, f: PLFunction, a_vec,
                  sched: FoldSchedule) -> _LevelRun:
    """F_f^id at every threshold of a_vec: the one-group batch."""
    return _identity_runs(form, [(f, a_vec)], sched)[0]


def _cut_run(form: PLIntervalForm, f: PLFunction, pairs,
             sched: FoldSchedule) -> _LevelRun:
    """F_f^g(a) for every witness pair (g, a), as one group; consecutive
    pairs with the same witness share a block."""
    blocks = []
    for g, a in pairs:
        if not blocks or blocks[-1][0] is not g:
            blocks.append((g, None, []))
        blocks[-1][2].append(a)
    return _window_runs(form, [(f, blocks)], sched, sched.rel_tol)[0]


def F_value(form: PLIntervalForm, f: PLFunction, g: PLFunction, a: float,
            sched: FoldSchedule = DEFAULT_SCHEDULE) -> ConvergenceTrace:
    """The fold limit F_f^g(a), with its level trace.

    Runs levels n_min..n_max until the stall rule fires.  A trace that
    exhausts the budget comes back with ``converged=False``; callers that
    need a hard value decide whether to raise.
    """
    _require_pl(form)
    return _cut_run(form, f, [(g, a)], sched).trace(0)


def two_sided_cut_limit(form: PLIntervalForm, f: PLFunction, g: PLFunction,
                        low: float, high: float,
                        sched: FoldSchedule = DEFAULT_SCHEDULE,
                        ) -> ConvergenceTrace:
    """Limit energy of the fold capped on both sides of a witness band.

    The cap is min(S_n^high o g, S_n^(-low) o (-g)), at the peak only where
    low <= g <= high (finite bounds), so the limit is a capacity-style upper
    bound for the slab's measure, compared against F(high) - F(low) in tests.
    The two bands, high < g < high + 2^-n and low - 2^-n < g < low, are
    disjoint, and each is cut at its exact crossings, also where both lie
    on one steep piece of g.
    """
    _require_pl(form)
    if not (math.isfinite(low) and math.isfinite(high) and low <= high):
        raise ValueError(f"need finite low <= high, got [{low:g}, {high:g}]")
    return _window_runs(form, [(f, [(g, [low], [high])])], sched,
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
    if not np.all(np.diff(a_grid) > 0.0):  # a NaN fails this too
        raise ValueError("level grid must be strictly increasing")
    e_ref = form.energy(f)
    run = _window_runs(form, [(f, [(g, None, a_grid)])], sched,
                       sched.rel_tol)[0]
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
    for lo, hi in target.components:
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

    Stored as cell masses over a strictly increasing node grid; single
    points carry no mass.  A fold limit that does not stall raises
    ConvergenceError instead of yielding a measure.
    """

    __slots__ = ("nodes", "masses", "levels_used")

    def __init__(self, nodes, masses, levels_used=()):
        nodes = np.asarray(nodes, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if masses.shape != (nodes.size - 1,):
            raise ValueError("need one mass per cell")
        if not np.all(np.diff(nodes) > 0.0):  # a NaN fails this too
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
        """Mass of an IntervalSet (or a single (lo, hi) pair), clipped to
        [0, 1]: the oracle's :func:`penergy.forms.integrate` of the running
        mass, which prorates a straddled cell by its overlap."""
        return float(integrate(self.nodes, Cells.cumulative(self.masses),
                               spans((target,)))[0])

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
    if (not isinstance(resolution, numbers.Integral)
            or isinstance(resolution, bool) or resolution < 1):
        raise ValueError("resolution must be an integer of at least 1")
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
