"""Set-level laws of energy measures, checked on seeded samples.

Each law_* function draws its own fixtures, evaluates both sides of an
identity or inequality on a family of interval sets, and returns a LawReport
whose worst slack is a signed margin: negative means violation, and the
report passes iff the worst slack stays above -tolerance.  Equality laws use
slack = -gap (never positive); laws whose per-trial budget varies (product or
power interpolants) rescale the gap so a single tolerance line applies to the
whole report, with the budget recorded in the worst-case witness.

Masses flow through two route objects, each with a method per kind of
mass read and a tolerance; a public function looks its route up once by
name, and every mass read goes through one of them.
The oracle route integrates the closed-form density w |f'|^p exactly and
is the reference; its slacks sit at roundoff.
It and every other closed-form integral here (pairings, signed masses,
budgets, cell masses) run on :class:`penergy.forms.Cells`, one partition
per function family, each integrated over a whole set family in one pass.
A law reads each set family once, into a :class:`penergy.forms.Spans`.
The construction route differences identity-witness fold limits at component
endpoints, as the oracle differences its running integral, so its error
budget comes from the level schedule alone, with no proration involved.
Laws hand the construction route their functions in batches: those of
every trial at once, or of one trial where trials differ in shape (total
mass, homogeneity, two-variable differences), and one batch per form for
domination.  A batch runs its fold limits in lock-step, one block of
levels at a time for all functions, and each function's limits come out
bit for bit as they would alone.  Slacks are pushed in the order the
functions were drawn, and a batch whose limits did not stall raises for
the first such function in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import (
    FoldSchedule,
    MEASURE_SCHEDULE,
    _identity_runs,
    _require_pl,
    _window_runs,
)
from .forms import (
    WHOLE,
    Cells,
    PLIntervalForm,
    _clarkson_slacks,
    _signed_power,
    integrate,
    spans,
    step_at,
)
from .pl import (
    GEOM_TOL,
    IntervalSet,
    PLFunction,
    PLMap,
    _merge_sorted_grids,
    _split_counts,
    _with_level_crossings,
    compose,
    lattice,
    pl_power_interp,
    pl_product,
    refined_grid,
    sublevel_set,
)
from .sampler import PLSampler

# Tolerance ladder: closed-form identities are exact up to roundoff, the
# construction route is dominated by fold truncation, and differentiation
# pays for its step sizes.  Steps halve so order-2 Richardson applies.
ORACLE_TOL = 1e-9
CONSTRUCTION_TOL = 1e-4
DERIVATIVE_TOL = 1e-3
DERIVATIVE_STEPS = (1e-2, 5e-3, 2.5e-3)

# Atom probing differences four fold limits whose individual errors are
# bounded by the stall rule's band residual, rel_tol * E each; the second
# difference weights them 2+2+1+1, so 6e-9 of noise against an 1e-8 line.
# Levels below 30 can never be quiet at this tolerance, so skip them.
ATOM_TOL = 1e-8
ATOM_SCHEDULE = FoldSchedule(n_min=30, n_max=40, rel_tol=1e-9)
# Widest half-width of an atom probe's window, before it shrinks to keep
# the other critical values out.
ATOM_WINDOW = 1e-4

# Interpolation grids split every merged cell this many times: products
# for the Leibniz rule, |f|^q for the functional identity, and phi(g) for
# the multivariable chain rule.
PRODUCT_REFINE = 8
POWER_REFINE = 16
POLY_REFINE = 16

# p in (1, 2) makes |u'|^{p-2} blow up near flat pieces; derivative checks
# there use slope-floored samples and a wider budget.
SLOPE_FLOOR = 0.05


def _derivative_tol(p: float) -> float:
    return DERIVATIVE_TOL if p >= 2.0 else 1e-2


class ExtrapolationError(RuntimeError):
    """Richardson extrapolants disagree more than the raw differences."""


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law over its sampled trials."""

    law: str
    form: dict
    seed: int
    trials: int
    worst_slack: float
    tolerance: float
    passed: bool
    worst_case: dict | None = None

    def __post_init__(self):
        if self.passed != (self.worst_slack >= -self.tolerance):
            raise ValueError("pass flag inconsistent with worst slack")


@dataclass(frozen=True)
class SignedMeasureSample:
    """nu_{u;v} on a set family by differentiation, closed form alongside."""

    sets: tuple
    values: np.ndarray
    closed_form: np.ndarray
    steps: tuple
    extrapolation_error: np.ndarray

    @property
    def mismatch(self) -> np.ndarray:
        return np.abs(self.values - self.closed_form)


class _Worst:
    """Running minimum of slacks plus the witness of where it happened."""

    def __init__(self):
        self.slack = math.inf
        self.case = None

    def push(self, slack: float, **case):
        # NaN compares false either way, so it is taken as the worst slack
        # outright; the first NaN keeps its witness
        if slack < self.slack or (math.isnan(slack)
                                  and not math.isnan(self.slack)):
            self.slack = float(slack) + 0.0  # an exact 0 reads 0.0, not -0.0
            self.case = case or None

    @property
    def value(self) -> float:
        return 0.0 if self.slack is math.inf else self.slack


def _report(law: str, form, seed: int, trials: int, worst: _Worst,
            tol: float) -> LawReport:
    return LawReport(law, form.to_descriptor(), int(seed), int(trials),
                     worst.value, float(tol), worst.value >= -tol, worst.case)


# ---------------------------------------------------------------------------
# set families and mass routes


def dyadic_sets(levels: int = 5) -> tuple[IntervalSet, ...]:
    """All dyadic intervals [k/2^j, (k+1)/2^j] for j = 0..levels."""
    out = []
    for lev in range(levels + 1):
        m = 2 ** lev
        out.extend(IntervalSet.closed(k / m, (k + 1) / m) for k in range(m))
    return tuple(out)


def default_set_family(sampler: PLSampler, levels: int = 5,
                       unions: int = 8) -> tuple[IntervalSet, ...]:
    """Dyadic intervals of levels 0..levels plus seeded interval unions."""
    extra = tuple(sampler.interval_union(1000 + i) for i in range(unions))
    return dyadic_sets(levels) + extra


def set_mass_oracle(form: PLIntervalForm, f: PLFunction, target) -> float:
    """Exact mu_f(target) by integrating the closed-form density."""
    return float(_ORACLE.masses(form, [(f, spans((target,)))])[0][0])


def set_masses(form: PLIntervalForm, f: PLFunction, targets) -> np.ndarray:
    """Construction-route masses mu_f(A) for each target, via fold limits.

    All component endpoints go through one batched level run; the mass of a
    set is the sum of F(hi) - F(lo) over its components, so the error budget
    is per endpoint and no cell proration enters.  The one-function case of
    the batch every construction-route law runs.
    """
    _require_pl(form)
    return _CONSTRUCTION.masses(form, [(f, spans(targets))])[0]


class _OracleRoute:
    """Masses of the closed-form density w |f'|^p, integrated on Cells."""

    tol = ORACLE_TOL

    def masses(self, form, jobs):
        cells = [Cells(form, f) for f, _ in jobs]
        return [c.integrate(c.mass(f), family)
                for c, (f, family) in zip(cells, jobs)]

    def cell_masses(self, form, jobs):
        return [cells.mass(fn) for fn, cells in jobs]

    def sublevel_masses(self, form, jobs, sched):
        return self.masses(form, [(f, spans([sublevel_set(f, s)
                                             for s in levels]))
                                  for f, levels in jobs])


class _ConstructionRoute:
    """Masses from fold limits, all jobs of a call in one lock-step batch."""

    tol = CONSTRUCTION_TOL

    def masses(self, form, jobs):
        ends = [np.unique(np.concatenate((fam.lo, fam.hi))) for _, fam in jobs]
        runs = _identity_runs(form, [(f, pts) for (f, _), pts
                                     in zip(jobs, ends)], MEASURE_SCHEDULE)
        return [integrate(pts, run.limits(), family)
                for (_, family), pts, run in zip(jobs, ends, runs)]

    def cell_masses(self, form, jobs):
        runs = _identity_runs(form, [(fn, cells.nodes) for fn, cells in jobs],
                              MEASURE_SCHEDULE)
        return [np.diff(run.limits()) for run in runs]

    def sublevel_masses(self, form, jobs, sched):
        runs = _window_runs(form, [(f, [(f, None, a)]) for f, a in jobs],
                            sched, sched.rel_tol)
        return [run.limits() for run in runs]


_ORACLE, _CONSTRUCTION = _OracleRoute(), _ConstructionRoute()


def _route(name: str):
    """The route ``name`` selects, read per call so a test can swap it."""
    if name not in ("oracle", "construction"):
        raise ValueError(f"unknown mass route {name!r}")
    return {"oracle": _ORACLE, "construction": _CONSTRUCTION}[name]


# ---------------------------------------------------------------------------
# exact pairings (the closed forms every identity is checked against)


def signed_mass_oracle(form: PLIntervalForm, u: PLFunction, v: PLFunction,
                       target) -> float:
    """Exact nu_{u;v}(target) = int_target w sgn(u')|u'|^{p-1} v' dx."""
    return float(_signed_masses(form, u, v, spans((target,)))[0])


def _signed_masses(form, u, v, family) -> np.ndarray:
    """signed_mass_oracle over a set family, in one pass."""
    cells = Cells(form, u, v)
    return cells.integrate(cells.flux(u) * cells.slope(v) * cells.width,
                           family)


def _pairings(form, f, terms, family) -> np.ndarray:
    """Exact int_A w sgn(f')|f'|^{p-1} sum_i g_i h_i' dx for each target A.

    Each (g_i, h_i) contributes g_i * h_i'; with the component ends among
    the nodes the integrand is linear per cell, so the midpoint rule is
    exact.
    """
    cells = Cells(form, f, *(fn for term in terms for fn in term),
                  nodes=(family.lo, family.hi))
    acc = sum(g.evaluate(cells.mid) * cells.slope(h) for g, h in terms)
    return cells.integrate(cells.flux(f) * acc * cells.width, family)


def _pairing(form: PLIntervalForm, f: PLFunction, terms,
             target=None) -> float:
    """One target of :func:`_pairings`; ``None`` is the whole domain."""
    family = WHOLE if target is None else spans((target,))
    return float(_pairings(form, f, terms, family)[0])


def _density_pairing(form: PLIntervalForm, f: PLFunction, g: PLFunction,
                     target=None) -> float:
    """Exact int_target g dmu_f = int w |f'|^p g dx: since
    sgn(f')|f'|^{p-1} f' = |f'|^p, the pairing with the one term (g, f)."""
    return _pairing(form, f, [(g, f)], target)


# ---------------------------------------------------------------------------
# two-variable measure by differentiation


def two_variable_measure(form: PLIntervalForm, u: PLFunction, v: PLFunction,
                         sets, steps=DERIVATIVE_STEPS) -> SignedMeasureSample:
    """nu_{u;v} on a set family by Richardson-extrapolated differences.

    D(t) = (mu_{u+tv}(A) - mu_{u-tv}(A)) / (2 p t) per step, then successive
    order-2 eliminations; the error estimate per set is the spread of the
    last two extrapolants.  The closed form int_A w sgn(u')|u'|^{p-1} v' dx
    rides along in ``closed_form`` for cross-checks.  Raises
    ExtrapolationError when extrapolants disagree beyond the raw deltas.
    """
    _require_pl(form)
    steps = tuple(float(t) for t in steps)
    if len(steps) < 2 or any(t <= 0.0 for t in steps) \
            or any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("need >= 2 positive, strictly decreasing steps")
    sets = tuple(sets)
    family = spans(sets)
    p = form.p
    masses = _ORACLE.masses(form, [(u + v * s, family) for t in steps
                                   for s in (t, -t)])
    d = np.vstack([(plus - minus) / (2.0 * p * t) for t, plus, minus
                   in zip(steps, masses[0::2], masses[1::2])])
    rich = []
    for i in range(len(steps) - 1):
        t1, t2 = steps[i], steps[i + 1]
        rich.append((d[i + 1] * t1 ** 2 - d[i] * t2 ** 2) / (t1 ** 2 - t2 ** 2))
    values = rich[-1]
    err = np.abs(rich[-1] - rich[-2]) if len(rich) >= 2 \
        else np.abs(rich[-1] - d[-1])
    closed = _signed_masses(form, u, v, family)

    e_scale = max(form.energy(u) + form.energy(v), 1e-12)
    floor = 1e-12 * e_scale
    raw = np.abs(d[-1] - d[-2])
    bad = err > 4.0 * raw + 16.0 * floor
    if bad.any():
        k = int(np.argmax(err - 4.0 * raw))
        raise ExtrapolationError(
            f"extrapolants spread {err[k]:.3e} on set {k} exceeds the raw "
            f"difference budget {4.0 * raw[k] + 16.0 * floor:.3e}")
    return SignedMeasureSample(sets, values, closed, steps, err)


# ---------------------------------------------------------------------------
# the laws


def law_total_mass(form: PLIntervalForm, sampler: PLSampler, trials: int = 24,
                   route: str = "oracle") -> LawReport:
    """mu_f(X) = E(f), and mu_f vanishes on the interior of {f = 0}.

    Sampled draws rarely hit exact zeros, so each trial also checks a
    plateaued variant (f - median)^+ whose zero set has genuine interior.
    """
    via = _route(route)
    _require_pl(form)
    worst = _Worst()
    for k in range(trials):
        f = sampler.pl(k)
        variants = [(name, fn, _flat_zero_interior(fn)) for name, fn in
                    (("as_drawn", f), ("plateaued", _positive_part(f)))]
        jobs = []
        for _, fn, zero in variants:
            jobs += [(fn, WHOLE)] + ([(fn, spans((zero,)))] if zero else [])
        masses = iter(via.masses(form, jobs))
        for name, fn, zero in variants:
            e = form.energy(fn)
            scale = e if e > 0.0 else 1.0
            total = next(masses)[0]
            worst.push(-abs(total - e) / scale, trial=k, variant=name,
                       check="total_mass")
            if zero:
                mass = next(masses)[0]
                worst.push(-abs(mass) / scale, trial=k, variant=name,
                           check="zero_interior")
    return _report("total_mass", form, sampler.seed, trials, worst, via.tol)


def _positive_part(f: PLFunction) -> PLFunction:
    """(f - median value)^+, which is exactly zero on a fat sublevel set."""
    med = float(np.median(f.values))
    return lattice(f - med, PLFunction.constant(0.0), "max")


def _flat_zero_interior(f: PLFunction) -> IntervalSet:
    """The interior of {f = 0}: the union of pieces identically zero."""
    x, y = f.breakpoints, f.values
    flat = (y[:-1] == 0.0) & (y[1:] == 0.0)
    idx = np.nonzero(flat)[0]
    if idx.size == 0:
        return IntervalSet.empty()
    return IntervalSet((x[i], x[i + 1]) for i in idx)


def law_homogeneity_shift(form: PLIntervalForm, sampler: PLSampler,
                          trials: int = 16, route: str = "oracle",
                          sets=None) -> LawReport:
    """mu_{af} = |a|^p mu_f and mu_{|f-a|-|a|} = mu_f on the set family."""
    via = _route(route)
    _require_pl(form)
    family = spans(default_set_family(sampler) if sets is None else sets)
    p = form.p
    worst = _Worst()
    for k in range(trials):
        f = sampler.pl(k)
        e = form.energy(f)
        if e == 0.0:
            continue
        rng = sampler._rng(k, tag=11)
        a = float(rng.uniform(0.25, 3.0)) * (1.0 if rng.uniform() < 0.5
                                             else -1.0)
        shifts = (("random", float(rng.uniform(-1.0, 1.0))),
                  ("at_max", float(f.values.max())))
        fns = [f, f * a] + [_reflected_abs(f, s) for _, s in shifts]
        base, scaled, *shifted = via.masses(
            form, [(fn, family) for fn in fns])
        gap = np.abs(scaled - abs(a) ** p * base)
        i = int(np.argmax(gap))
        worst.push(-float(gap[i]) / (abs(a) ** p * e), trial=k,
                   identity="scaling", a=a, set=i)
        for (tag, _), mass in zip(shifts, shifted):
            gap = np.abs(mass - base)
            i = int(np.argmax(gap))
            worst.push(-float(gap[i]) / e, trial=k, identity="shift",
                       shift=tag, set=i)
    return _report("homogeneity_shift", form, sampler.seed, trials, worst,
                   via.tol)


def _reflected_abs(f: PLFunction, s: float) -> PLFunction:
    """|f - s| - |s|, energy-measure preserving for every real s."""
    h = f - s
    lo, hi = h.value_range()
    if hi - lo <= GEOM_TOL:
        return PLFunction(f.breakpoints,
                          np.full(f.values.size, abs(lo) - abs(s)))
    return compose(PLMap.absolute(lo, hi), h) - abs(s)


def law_measure_clarkson(form: PLIntervalForm, sampler: PLSampler,
                         trials: int = 40, route: str = "oracle",
                         sets=None) -> LawReport:
    """Clarkson inequalities for mu(A)^{1/p} over pairs and the set family.

    Slacks are normalised by the pair's total energy (the p-power scale), so
    sets of tiny mass do not amplify schedule noise.
    """
    via = _route(route)
    _require_pl(form)
    family = spans(default_set_family(sampler) if sets is None else sets)
    p = form.p
    worst = _Worst()
    pairs = [sampler.pl_pair(k) for k in range(trials)]
    masses = via.masses(form, [(fn, family) for u, v in pairs
                               for fn in (u, v, u + v, u - v)])
    for k, (u, v) in enumerate(pairs):
        scale = max(form.energy(u) + form.energy(v), 1e-12)
        # schedule noise can leave a mass a hair below zero; clip before ^1/p
        mu = [np.maximum(m, 0.0) ** (1.0 / p)
              for m in masses[4 * k:4 * k + 4]]
        for i in range(family.size):
            slacks = _clarkson_slacks(p, mu[0][i], mu[1][i], mu[2][i],
                                      mu[3][i])
            for name, s in slacks.items():
                worst.push(s / scale, trial=k, set=i, inequality=name)
    return _report("measure_clarkson", form, sampler.seed, trials, worst,
                   via.tol)


def law_measure_triangle(form: PLIntervalForm, sampler: PLSampler,
                         trials: int = 40, route: str = "oracle",
                         sets=None) -> LawReport:
    """mu_{f+g}(A)^{1/p} <= mu_f(A)^{1/p} + mu_g(A)^{1/p} on the family."""
    via = _route(route)
    _require_pl(form)
    family = spans(default_set_family(sampler) if sets is None else sets)
    invp = 1.0 / form.p
    worst = _Worst()
    pairs = [sampler.pl_pair(k) for k in range(trials)]
    masses = via.masses(form, [(fn, family) for u, v in pairs
                               for fn in (u, v, u + v)])
    for k, (u, v) in enumerate(pairs):
        scale = max(form.energy(u) ** invp + form.energy(v) ** invp, 1e-9)
        su, sv, ssum = (np.maximum(m, 0.0) ** invp
                        for m in masses[3 * k:3 * k + 3])
        margin = su + sv - ssum
        i = int(np.argmin(margin))
        worst.push(float(margin[i]) / scale, trial=k, set=i)
    return _report("measure_triangle", form, sampler.seed, trials, worst,
                   via.tol)


def law_locality(form: PLIntervalForm, sampler: PLSampler, trials: int = 32,
                 route: str = "oracle") -> LawReport:
    """Pairs equal up to a constant on A have equal masses on A.

    Each trial draws A and f, then g = f + h with h constant on A and a
    wiggle confined to the widest gap of the complement.  The construction
    route runs at tolerance 1e-6 relative to E(f) + E(g): endpoint limits
    carry schedule-level error only, well under that line.
    """
    via = _route(route)
    _require_pl(form)
    tol = min(via.tol, 1e-6)
    worst = _Worst()
    cases = []
    for k in range(trials):
        A = sampler.interval_union(4000 + k)
        f = sampler.pl(k)
        rng = sampler._rng(k, tag=12)
        h = _gap_bump(A, float(rng.uniform(-1.5, 1.5)),
                      float(rng.uniform(0.5, 2.0)))
        cases.append((A, spans((A,)), f, f + h))
    masses = via.masses(form, [(fn, family) for _, family, f, g in cases
                               for fn in (f, g)])
    for k, (A, _, f, g) in enumerate(cases):
        m_f, m_g = masses[2 * k][0], masses[2 * k + 1][0]
        scale = max(form.energy(f) + form.energy(g), 1e-12)
        worst.push(-abs(m_f - m_g) / scale, trial=k,
                   set_measure=A.measure())
    return _report("locality", form, sampler.seed, trials, worst, tol)


def _gap_bump(A: IntervalSet, c: float, amp: float) -> PLFunction:
    """Constant c everywhere except a PL wiggle inside the widest gap of A."""
    gaps = []
    prev = 0.0
    for lo, hi in A.components:
        if lo > prev + 1e-9:
            gaps.append((prev, lo))
        prev = max(prev, hi)
    if prev < 1.0 - 1e-9:
        gaps.append((prev, 1.0))
    if not gaps:
        return PLFunction.constant(c)
    lo, hi = max(gaps, key=lambda g: g[1] - g[0])
    w = hi - lo
    if w < 0.02:
        return PLFunction.constant(c)
    xs = [0.0, lo, lo + 0.35 * w, lo + 0.7 * w, hi, 1.0]
    ys = [c, c, c + amp, c - 0.5 * amp, c, c]
    return PLFunction(xs, ys)


def law_minmax_bound(form: PLIntervalForm, sampler: PLSampler,
                     trials: int = 32, route: str = "oracle",
                     sets=None) -> LawReport:
    """mu of f v (g-a) and f ^ (g+a) stay within c_p (mu_f + mu_g) setwise."""
    via = _route(route)
    _require_pl(form)
    family = spans(default_set_family(sampler) if sets is None else sets)
    c_p = 2.0 ** abs(form.p - 2.0)
    worst = _Worst()
    cases = []
    for k in range(trials):
        f, g = sampler.pl_pair(k)
        a = float(sampler._rng(k, tag=13).uniform(0.0, 1.5))
        cases.append((f, g, a, lattice(f, g - a, "max"),
                      lattice(f, g + a, "min")))
    masses = via.masses(form, [(fn, family) for f, g, _, top, bot in cases
                               for fn in (f, g, top, bot)])
    for k, (f, g, a, _, _) in enumerate(cases):
        mf, mg, mt, mb = masses[4 * k:4 * k + 4]
        scale = max(form.energy(f) + form.energy(g), 1e-12)
        margin = c_p * (mf + mg) - np.maximum(mt, mb)
        i = int(np.argmin(margin))
        worst.push(float(margin[i]) / scale, trial=k, set=i, a=a)
    return _report("minmax_bound", form, sampler.seed, trials, worst, via.tol)


# ---------------------------------------------------------------------------
# chain rule


def default_map_family(lo: float, hi: float) -> tuple[PLMap, ...]:
    """Ten piecewise-affine maps on [lo, hi]: scalings, |.|, folds, cuts."""
    span = hi - lo
    zig_x = [lo, lo + 0.3 * span, lo + 0.55 * span, lo + 0.8 * span, hi]
    zig_y = [0.0, 0.6 * span, 0.6 * span, 0.2 * span, 0.45 * span]
    return (
        PLMap.identity(lo, hi),
        PLMap.scaling(2.0, lo, hi),
        PLMap.scaling(-1.5, lo, hi),
        PLMap.scaling(0.5, lo, hi),
        PLMap.absolute(lo, hi),
        PLMap.triangle(2, lo, hi),
        PLMap.triangle(3, lo, hi),
        PLMap.cut_map(lo + 0.25 * span, lo + 0.75 * span, lo, hi),
        PLMap.cut_map(lo + 0.1 * span, lo + 0.45 * span, lo, hi),
        PLMap(zig_x, zig_y),
    )


def law_chain_rule(form: PLIntervalForm, sampler: PLSampler,
                   trials: int = 12, route: str = "construction", sets=None,
                   derivative_trials: int = 2) -> LawReport:
    """Cell-wise density identity mu_{phi o f} = |phi' o f|^p mu_f.

    The maps phi are :func:`default_map_family` on f's value range.  Cells
    merge f's breakpoints with preimages of each map's kinks, so both
    sides are single-slope per cell; flat cells of f sitting exactly on a
    kink are excluded (phi' undefined there).  Relative gaps use a floor of
    1% of the largest cell mass so near-empty cells are judged absolutely.
    The first ``derivative_trials`` trials also check the signed weighting
    sgn(phi' o f)|phi' o f|^{p-1} through two_variable_measure, rescaled
    into this report's tolerance.
    """
    via = _route(route)
    _require_pl(form)
    p = form.p
    worst = _Worst()
    deriv_sets = dyadic_sets(2) if sets is None else tuple(sets)
    deriv_family = spans(deriv_sets)
    dtol = _derivative_tol(p)
    dsteps = DERIVATIVE_STEPS if p >= 2.0 \
        else tuple(0.25 * t for t in DERIVATIVE_STEPS)
    drawn = []  # per trial: f and, per map, phi, its cells and phi o f
    for k in range(trials):
        f = sampler.nonzero_pl(k)
        per_map = []
        for phi in default_map_family(*f.value_range()):
            # f's preimages of phi's kinks make phi o f affine per cell
            kinks, _ = _with_level_crossings(f, phi.breakpoints[1:-1])
            per_map.append((phi, Cells(form, f, nodes=(kinks,)),
                            compose(phi, f)))
        drawn.append((f, per_map))
    jobs = [job for f, per_map in drawn for _, cells, g in per_map
            for job in ((g, cells), (f, cells))]
    masses = iter(via.cell_masses(form, jobs))
    for k, (f, per_map) in enumerate(drawn):
        e_ref = max(form.energy(f), 1e-12)
        for j, (phi, cells, g) in enumerate(per_map):
            vmid = f.evaluate(cells.mid)
            pslope = step_at(phi.breakpoints, phi.slopes, vmid)
            on_kink = (np.abs(vmid[:, None] - phi.breakpoints[None, 1:-1])
                       <= GEOM_TOL).any(axis=1)
            undefined = (cells.slope(f) == 0.0) & on_kink
            lhs = next(masses)
            rhs = np.abs(pslope) ** p * next(masses)
            top = max(float(np.max(lhs)), float(np.max(rhs)), 0.0)
            denom = np.maximum(np.maximum(lhs, rhs),
                               max(0.01 * top, 1e-3 * e_ref))
            gap = np.where(undefined, 0.0, np.abs(lhs - rhs) / denom)
            i = int(np.argmax(gap))
            worst.push(-float(gap[i]), trial=k, map=j, cell=i)
        if k < derivative_trials:
            fd = f if p >= 2.0 \
                else sampler.with_slope_floor(SLOPE_FLOOR).pl(k)
            lo2, hi2 = fd.value_range()
            partner = sampler.pl(60000 + k)
            for phi in (PLMap.absolute(min(lo2, -1e-6), max(hi2, 1e-6)),
                        PLMap.triangle(2, lo2, hi2 + 1e-9)):
                u = compose(phi, fd)
                sample = two_variable_measure(form, u, partner, deriv_sets,
                                              steps=dsteps)
                rhs = _chain_weighted_masses(form, fd, phi, partner,
                                             deriv_family)
                scale = max(float(np.max(np.abs(rhs))),
                            form.energy(fd) + form.energy(partner), 1e-12)
                worst.push(-float(np.max(np.abs(sample.closed_form - rhs)))
                           / scale, trial=k, check="weighting_closed_form")
                rel = float(np.max(np.abs(sample.values - rhs))) / scale
                worst.push(-rel * via.tol / dtol, trial=k,
                           check="weighting_derivative")
    return _report("chain_rule", form, sampler.seed, trials, worst, via.tol)


def _chain_weighted_masses(form, f, phi, v, family) -> np.ndarray:
    """Exact int_A w sgn(phi'of)|phi'of|^{p-1} sgn(f')|f'|^{p-1} v' dx for
    each target A."""
    kinks, _ = _with_level_crossings(f, phi.breakpoints[1:-1])
    cells = Cells(form, f, v, nodes=(kinks,))
    outer = _signed_power(step_at(phi.breakpoints, phi.slopes,
                                  f.evaluate(cells.mid)), form.p - 1.0)
    return cells.integrate(cells.flux(f) * outer * cells.slope(v)
                           * cells.width, family)


# ---------------------------------------------------------------------------
# Leibniz and the functional identity


def law_leibniz(form: PLIntervalForm, sampler: PLSampler, trials: int = 16,
                sets=None) -> LawReport:
    """Setwise nu_{f;gh}(A) = int_A w sp(f') (g h' + h g') dx, products PL.

    The left side evaluates nu_{f;P} for the interpolant P = pl_product(g,h);
    the right side is the exact pairing.  The budget bounds
    int w |f'|^{p-1} |(P - gh)'| from the per-cell curvature |g'h'| h_cell,
    and gaps are rescaled so the report tolerance stays at the oracle line.
    """
    _require_pl(form)
    family = spans(default_set_family(sampler) if sets is None else sets)
    worst = _Worst()
    for k in range(trials):
        f, g = sampler.pl_pair(k)
        h = sampler.pl(10_000 + k)
        prod = pl_product(g, h, PRODUCT_REFINE)
        budget = _product_pairing_budget(form, f, g, h)
        scale = max(_pairing_scale(form, f, g, h), 1e-12)
        allowed = ORACLE_TOL + budget / scale
        lhs = _signed_masses(form, f, prod.fn, family)
        rhs = _pairings(form, f, [(g, h), (h, g)], family)
        for i, rel in enumerate(np.abs(lhs - rhs) / scale):
            worst.push(-rel * ORACLE_TOL / allowed, trial=k, set=i,
                       budget=budget / scale)
    return _report("leibniz", form, sampler.seed, trials, worst, ORACLE_TOL)


def _product_pairing_budget(form, f, g, h) -> float:
    """Bound on |nu_{f;P} - nu_{f;gh}| from interpolant slope error.

    On a refined cell of width c inside a piece where g and h are affine,
    the chord slope of the quadratic gh deviates by at most |g'h'| c.
    """
    base, _ = refined_grid((g.breakpoints, h.breakpoints), 1)
    width = base[1:] - base[:-1]
    cells = Cells(form, f, g, h)
    cell = step_at(base, width / _split_counts(width, PRODUCT_REFINE),
                   cells.mid)
    err = np.abs(cells.slope(g) * cells.slope(h)) * cell
    return float(cells.integrate(np.abs(cells.flux(f)) * err
                                 * cells.width)[0])


def _pairing_scale(form, f, g, h) -> float:
    """Total-variation scale of the Leibniz pairing (midpoint estimate)."""
    cells = Cells(form, f, g, h)
    mag = (np.abs(g.evaluate(cells.mid) * cells.slope(h))
           + np.abs(h.evaluate(cells.mid) * cells.slope(g)))
    return float(cells.integrate(np.abs(cells.flux(f)) * mag
                                 * cells.width)[0])


def law_functional_identity(form: PLIntervalForm, sampler: PLSampler,
                            trials: int = 16) -> LawReport:
    """int g dmu_f = E(f;fg) - ((p-1)/p)^{p-1} E(|f|^{p/(p-1)};g).

    E(f;fg) expands exactly through the pairing (fg)' = f'g + fg', and the
    power term through its exact form q^{p-1} int w sp(f') f g' dx; the
    slack is the residual of that closed-form identity.  The power term of
    the PL interpolant of |f|^{p/(p-1)} rides along in the witness as
    ``interp_gap``: it measures the interpolant, not the identity.
    """
    _require_pl(form)
    p = form.p
    q = p / (p - 1.0)
    cfac = ((p - 1.0) / p) ** (p - 1.0)
    worst = _Worst()
    for k in range(trials):
        f, g = sampler.pl_pair(k)
        lhs = _density_pairing(form, f, g)
        term1 = _pairing(form, f, [(g, f), (f, g)], None)
        term2_exact = q ** (p - 1.0) * _pairing(form, f, [(f, g)], None)
        power = pl_power_interp(f, q, POWER_REFINE)
        term2 = form.energy_derivative(power.fn, g)
        scale = max(form.energy(f) * max(1.0,
                                         float(np.max(np.abs(g.values)))),
                    1e-12)
        rel = abs(lhs - (term1 - cfac * term2_exact)) / scale
        worst.push(-rel, trial=k,
                   interp_gap=cfac * abs(term2 - term2_exact) / scale,
                   interp_sup=power.sup_error)
    return _report("functional_identity", form, sampler.seed, trials, worst,
                   ORACLE_TOL)


# ---------------------------------------------------------------------------
# multivariable chain rule


class PolyMap:
    """Polynomial in up to three variables, vanishing at the origin.

    Coefficients are keyed by exponent tuples, e.g. {(1, 1): 2.0} for 2 x y.
    Total degree is capped at 3 so the closed-form side stays within exact
    Simpson quadrature.
    """

    def __init__(self, coeffs: dict):
        items = sorted(coeffs.items())
        if not items:
            raise ValueError("polynomial needs at least one term")
        arity = len(items[0][0])
        if arity < 1 or arity > 3:
            raise ValueError("supported arities are 1 to 3")
        for expo, _ in items:
            if len(expo) != arity:
                raise ValueError("exponent tuples must share one arity")
            if any(e < 0 or e != int(e) for e in expo):
                raise ValueError("exponents must be nonnegative integers")
            if sum(expo) > 3:
                raise ValueError("total degree above 3 is not supported")
            if sum(expo) == 0:
                raise ValueError("constant term breaks phi(0) = 0")
        self.coeffs = {tuple(int(e) for e in expo): float(c)
                       for expo, c in items if c != 0.0}
        self.arity = arity

    def value(self, cols) -> np.ndarray:
        cols = [np.asarray(c, dtype=float) for c in cols]
        if len(cols) != self.arity:
            raise ValueError(f"expected {self.arity} argument columns")
        out = np.zeros_like(cols[0])
        for expo, c in self.coeffs.items():
            term = np.full_like(cols[0], c)
            for x, e in zip(cols, expo):
                if e:
                    term = term * x ** e
            out += term
        return out

    def partial(self, i: int) -> "PolyMap":
        out: dict = {}
        for expo, c in self.coeffs.items():
            if expo[i] == 0:
                continue
            dexpo = list(expo)
            dexpo[i] -= 1
            key = tuple(dexpo)
            out[key] = out.get(key, 0.0) + c * expo[i]
        if not out:
            out = {(0,) * self.arity: 0.0}
        poly = PolyMap.__new__(PolyMap)
        poly.coeffs = out
        poly.arity = self.arity
        return poly

    def __repr__(self):
        terms = " + ".join(f"{c:g}*x^{expo}" for expo, c in
                           sorted(self.coeffs.items()))
        return f"PolyMap({terms or '0'})"


DEFAULT_POLY = PolyMap({(1, 1, 0): 1.0, (3, 0, 0): 1.0, (0, 1, 2): -0.5})


def law_multivariable_chain(form: PLIntervalForm, sampler: PLSampler,
                            trials: int = 12, phi: PolyMap = DEFAULT_POLY,
                            sets=None) -> LawReport:
    """Setwise nu_{f; phi(g_1..g_n)}(A) = sum_i int_A d_i phi(g) dnu_{f;g_i}.

    The composition phi(g) is PL-interpolated on a POLY_REFINE-fold grid; the
    right side integrates w sp(f') sum_i d_i phi(g(x)) g_i'(x) by Simpson,
    exact for the degree involved.  The interpolation budget bounds the
    slope error from the (piecewise linear-in-x) second derivative.
    """
    _require_pl(form)
    family = spans(default_set_family(sampler) if sets is None else sets)
    n = phi.arity
    partials = [phi.partial(i) for i in range(n)]
    worst = _Worst()
    for k in range(trials):
        f = sampler.pl(k)
        gs = [sampler.pl(20_000 + n * k + j) for j in range(n)]
        base, grid = refined_grid([g.breakpoints for g in gs], POLY_REFINE)
        comp = PLFunction(grid, phi.value([g.evaluate(grid) for g in gs]))
        budget = _poly_pairing_budget(form, f, phi, gs, base)
        scale = max(form.energy(f) + sum(form.energy(g) for g in gs), 1e-12)
        allowed = ORACLE_TOL + budget / scale
        lhs = _signed_masses(form, f, comp, family)
        rhs = _poly_chain_rhs(form, f, partials, gs, family)
        for i, rel in enumerate(np.abs(lhs - rhs) / scale):
            worst.push(-rel * ORACLE_TOL / allowed, trial=k, set=i,
                       budget=budget / scale)
    return _report("multivariable_chain", form, sampler.seed, trials, worst,
                   ORACLE_TOL)


def _poly_chain_rhs(form, f, partials, gs, family) -> np.ndarray:
    """Exact int_A w sp(f') sum_i d_i phi(g(x)) g_i'(x) dx for each target A.

    The integrand is a polynomial of degree <= 2 per cell once the
    component ends are among the nodes, so Simpson's rule is exact.
    """
    cells = Cells(form, f, *gs, nodes=(family.lo, family.hi))
    at_nodes = [g.evaluate(cells.nodes) for g in gs]
    at_mid = [g.evaluate(cells.mid) for g in gs]
    slopes = [cells.slope(g) for g in gs]
    left = right = mid = 0.0
    for dphi, slope in zip(partials, slopes):
        at = dphi.value(at_nodes)
        left = left + at[:-1] * slope
        right = right + at[1:] * slope
        mid = mid + dphi.value(at_mid) * slope
    simpson = (left + 4.0 * mid + right) / 6.0
    return cells.integrate(cells.flux(f) * simpson * cells.width, family)


def _poly_pairing_budget(form, f, phi, gs, base) -> float:
    """Bound |nu_{f;interp} - nu_{f;phi(g)}| from second-derivative size.

    Per refined cell, (phi o g)'' is linear in x (degree <= 3), so its
    maximum sits at cell endpoints; the chord slope deviates by at most
    that maximum times half the cell width.
    """
    n = phi.arity
    at_base = [g.evaluate(base) for g in gs]
    width = base[1:] - base[:-1]
    slopes = [(v[1:] - v[:-1]) / width for v in at_base]
    # (phi o g)'' at both ends of every base cell
    left, right = np.zeros(base.size - 1), np.zeros(base.size - 1)
    for i in range(n):
        for j in range(n):
            at = phi.partial(i).partial(j).value(at_base)
            left += at[:-1] * slopes[i] * slopes[j]
            right += at[1:] * slopes[i] * slopes[j]
    worst_err = float(np.max(np.maximum(np.abs(left), np.abs(right))
                             * (width / _split_counts(width, POLY_REFINE))
                             / 2.0,
                             initial=0.0))
    cells = Cells(form, f)
    return worst_err * float(cells.integrate(np.abs(cells.flux(f))
                                             * cells.width)[0])


# ---------------------------------------------------------------------------
# domination and the dominant measure


def law_domination(form_lo: PLIntervalForm, form_hi: PLIntervalForm,
                   sampler: PLSampler, trials: int = 24,
                   route: str = "oracle", sets=None) -> LawReport:
    """The smaller form's measure is dominated setwise by the larger's."""
    via = _route(route)
    _require_pl(form_lo)
    _require_pl(form_hi)
    if form_lo.p != form_hi.p:
        raise ValueError("domination compares forms with one p")
    bounds = _merge_sorted_grids(form_lo.weight_bounds, form_hi.weight_bounds)
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    w_lo, w_hi = form_lo.weight_at(mids), form_hi.weight_at(mids)
    if (w_lo > w_hi + GEOM_TOL).any():
        i = int(np.argmax(w_lo - w_hi))
        raise ValueError(
            f"weights are not ordered: w_lo={w_lo[i]:g} > w_hi={w_hi[i]:g} "
            f"near x={mids[i]:g}; domination needs w_lo <= w_hi cell-wise")
    family = spans(default_set_family(sampler) if sets is None else sets)
    worst = _Worst()
    fns = [sampler.pl(k) for k in range(trials)]
    jobs = [(f, family) for f in fns]
    lows = via.masses(form_lo, jobs)
    highs = via.masses(form_hi, jobs)
    for k, (f, mu, nu) in enumerate(zip(fns, lows, highs)):
        scale = max(form_hi.energy(f), 1e-12)
        margin = nu - mu
        i = int(np.argmin(margin))
        worst.push(float(margin[i]) / scale, trial=k, set=i)
    return _report("domination", form_lo, sampler.seed, trials, worst, via.tol)


def dominant_measure(form: PLIntervalForm, basis) -> tuple[np.ndarray,
                                                           np.ndarray]:
    """Density of nu = sum_i 2^{-i} E(u_i)^{-1} mu_{u_i} on a merged grid."""
    _require_pl(form)
    basis = list(basis)
    if not basis:
        raise ValueError("basis must be nonempty")
    cells = Cells(form, *basis)
    dens = np.zeros(cells.mid.size)
    for i, u in enumerate(basis):
        e = form.energy(u)
        if e <= 0.0:
            raise ValueError(f"basis function {i} has zero energy")
        dens += 2.0 ** (-i) / e * cells.density(u)
    return cells.nodes, dens


def law_minimal_dominant(form: PLIntervalForm) -> LawReport:
    """nu = sum 2^{-i} E(u_i)^{-1} mu_{u_i} dominates measures from the span.

    The basis is (identity, tent).  Test functions are affine and lattice
    combinations of the basis, whose densities vanish wherever every basis
    density does.  Minimality is not asserted: it quantifies over all
    dominating measures.
    """
    _require_pl(form)
    u, v = PLFunction.identity(), PLFunction.tent()
    grid, nu_dens = dominant_measure(form, (u, v))
    tests = [u, v, u + v, u - v * 2.0, lattice(u, v, "min"),
             lattice(u, v, "max"), u * 0.5, u - 0.3]
    worst = _Worst()
    for t, fn in enumerate(tests):
        cells = Cells(form, fn, nodes=(grid,))
        mu_d = cells.density(fn)
        nu_d = step_at(grid, nu_dens, cells.mid)
        scale = max(float(np.max(mu_d)), 1e-12)
        dead = nu_d == 0.0
        if dead.any():
            i = int(np.argmax(np.where(dead, mu_d, -1.0)))
            worst.push(-float(mu_d[i]) / scale, test=t, cell=i)
        else:
            worst.push(0.0, test=t)
    return _report("minimal_dominant", form, 0, len(tests), worst,
                   ORACLE_TOL)


# ---------------------------------------------------------------------------
# image density


def pushforward_density(form: PLIntervalForm, f: PLFunction,
                        t: float) -> float:
    """Density of f_* mu_f at t: sum of w |f'|^{p-1} over the preimages.

    Defined for t that is not the image of a node or weight bound (the
    density is piecewise constant between such critical values).
    """
    _require_pl(form)
    cells = Cells(form, f)
    vals = f.evaluate(cells.nodes)
    inside = (np.minimum(vals[:-1], vals[1:]) < t) \
        & (t < np.maximum(vals[:-1], vals[1:]))
    return float(np.sum(np.abs(cells.flux(f))[inside]))


def law_image_density(form: PLIntervalForm, sampler: PLSampler,
                      trials: int = 12, probes: int = 50,
                      route: str = "oracle",
                      sched: FoldSchedule = ATOM_SCHEDULE) -> LawReport:
    """The pushforward of mu_f under f carries no atoms, probed pointwise.

    Each sampled f is rescaled to unit energy (atoms scale with the measure
    and the tolerance is absolute).  Probes take every distinct critical
    value (node and weight-bound images, flat-piece values included), then
    pad with value-range quantiles.  Each probe shrinks its half-width from
    ATOM_WINDOW until every other critical value stays out of the window,
    so the second difference 2 m(d/2) - m(d) cancels the locally linear
    mass exactly and the residue estimates the atom.  Every trial is drawn
    first, so the construction route runs all their levels as one batch.
    """
    via = _route(route)
    _require_pl(form)
    drawn = []  # (trial, f, probe values, half-widths, levels) per trial
    for k in range(trials):
        f0 = sampler.pl(k)
        e = form.energy(f0)
        if e == 0.0:
            drawn.append((k, None, None, None, None))
            continue
        f = f0 * e ** (-1.0 / form.p)
        crit = np.unique(np.concatenate((f.values,
                                         f.evaluate(form.weight_bounds))))
        crit = crit[np.concatenate(([True], crit[1:] - crit[:-1] > 1e-12))]
        lo, hi = f.value_range()
        pad = 0.05 * (hi - lo) + 1e-6
        fill = np.linspace(lo - pad, hi + pad, max(probes - crit.size, 0))
        targets = np.concatenate((crit, fill))[:probes]
        widths = []
        for t in targets:
            others = crit[np.abs(crit - t) > 1e-12]
            dmin = float(np.min(np.abs(others - t))) if others.size \
                else math.inf
            widths.append(float(np.clip(0.4 * dmin, 1e-10, ATOM_WINDOW)))
        levels = targets[:, None] + np.array(widths)[:, None] * np.array(
            [-1.0, -0.5, 0.5, 1.0])
        drawn.append((k, f, targets, widths, levels))
    jobs = [(f, levels.ravel()) for _, f, _, _, levels in drawn
            if f is not None]
    masses = iter(via.sublevel_masses(form, jobs, sched))
    worst = _Worst()
    for k, f, targets, widths, levels in drawn:
        if f is None:
            worst.push(0.0, trial=k, note="zero energy, zero measure")
            continue
        m = next(masses).reshape(levels.shape)
        atoms = 2.0 * (m[:, 2] - m[:, 1]) - (m[:, 3] - m[:, 0])
        for t, d, atom in zip(targets, widths, atoms):
            worst.push(-abs(float(atom)), trial=k, value=float(t), width=d)
    return _report("image_density", form, sampler.seed, trials, worst,
                   ATOM_TOL)


# ---------------------------------------------------------------------------
# continuity of t -> mu_{f+tg}(A)


def law_continuity(form: PLIntervalForm, sampler: PLSampler, trials: int = 8,
                   coarse: int = 24) -> LawReport:
    """Sweeps t -> mu_{f+tg}({h <= a}) show no isolated jumps.

    The sweep runs at a coarse resolution and at 10x; a continuous map's
    largest adjacent increment must shrink by at least the Hölder factor,
    asserted here as fine <= 0.7 coarse plus a roundoff floor.
    """
    _require_pl(form)
    worst = _Worst()
    for k in range(trials):
        f, g = sampler.pl_pair(k)
        h = sampler.pl(70_000 + k)
        a = float(np.median(h.values))
        A = sublevel_set(h, a)
        if A.measure() == 0.0 or form.energy(g) == 0.0:
            worst.push(0.0, trial=k, note="degenerate sweep")
            continue

        family = spans((A,))

        def sweep(ts):
            return np.array([m[0] for m in _ORACLE.masses(
                form, [(f + g * t, family) for t in ts])])

        vals_c = sweep(np.linspace(-1.0, 1.0, coarse + 1))
        vals_f = sweep(np.linspace(-1.0, 1.0, 10 * coarse + 1))
        d_c = float(np.abs(vals_c[1:] - vals_c[:-1]).max())
        d_f = float(np.abs(vals_f[1:] - vals_f[:-1]).max())
        floor = 1e-12 * max(float(np.abs(vals_c).max()), 1.0)
        margin = 0.7 * d_c + floor - d_f
        worst.push(margin / max(d_c, floor), trial=k, coarse_step=d_c,
                   fine_step=d_f)
    return _report("continuity", form, sampler.seed, trials, worst,
                   ORACLE_TOL)


# ---------------------------------------------------------------------------
# two-variable wrapper and the registry


def law_two_variable(form: PLIntervalForm, sampler: PLSampler,
                     trials: int = 8, sets=None) -> LawReport:
    """Differenced nu_{u;v} matches its closed form; nu_{u;u} = mu_u."""
    _require_pl(form)
    sets = dyadic_sets(2) if sets is None else tuple(sets)
    family = spans(sets)
    p = form.p
    tol = _derivative_tol(p)
    src = sampler if p >= 2.0 else sampler.with_slope_floor(SLOPE_FLOOR)
    steps = DERIVATIVE_STEPS if p >= 2.0 \
        else tuple(0.25 * t for t in DERIVATIVE_STEPS)
    worst = _Worst()
    for k in range(trials):
        u, v = src.pl_pair(k)
        sample = two_variable_measure(form, u, v, sets, steps=steps)
        scale = max(float(np.max(np.abs(sample.closed_form))),
                    form.energy(u), 1e-12)
        i = int(np.argmax(sample.mismatch))
        worst.push(-float(sample.mismatch[i]) / scale, trial=k, set=i,
                   check="closed_form")
        diag = two_variable_measure(form, u, u, sets, steps=steps)
        mu, = _ORACLE.masses(form, [(u, family)])
        j = int(np.argmax(np.abs(diag.values - mu)))
        worst.push(-float(np.abs(diag.values - mu)[j]) / scale, trial=k,
                   set=j, check="diagonal")
    return _report("two_variable", form, sampler.seed, trials, worst, tol)


def heavier_form(form: PLIntervalForm, bump: float = 1.0,
                 upto: float = 0.5) -> PLIntervalForm:
    """A copy of the form with the weight raised by ``bump`` on [0, upto]."""
    bounds = _merge_sorted_grids(form.weight_bounds, np.array([upto]))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    vals = form.weight_at(mids) + np.where(mids < upto, bump, 0.0)
    weight = [(bounds[i], bounds[i + 1], vals[i])
              for i in range(vals.size)]
    return PLIntervalForm(form.p, weight=weight)


# Registry entries share the signature (form, sampler, trials), which every
# sampled law has itself.  Only domination, which needs a second form, and
# minimal_dominant, which samples nothing, go through shims.
ALL_LAWS = {
    "total_mass": law_total_mass,
    "homogeneity_shift": law_homogeneity_shift,
    "measure_clarkson": law_measure_clarkson,
    "measure_triangle": law_measure_triangle,
    "locality": law_locality,
    "minmax_bound": law_minmax_bound,
    "two_variable": law_two_variable,
    "chain_rule": law_chain_rule,
    "leibniz": law_leibniz,
    "functional_identity": law_functional_identity,
    "multivariable_chain": law_multivariable_chain,
    "domination": lambda form, sampler, trials: law_domination(
        form, heavier_form(form), sampler, trials),
    "minimal_dominant": lambda form, sampler, trials: law_minimal_dominant(
        form),
    "image_density": law_image_density,
    "continuity": law_continuity,
}


def run_all_laws(form: PLIntervalForm, sampler: PLSampler,
                 trials: int = 12) -> dict[str, LawReport]:
    """Every registered law at the given trial count, keyed by law id."""
    return {name: ALL_LAWS[name](form, sampler, trials)
            for name in sorted(ALL_LAWS)}
