"""Fold limits, the measures they produce, and their cross-checks.

The literal cell function is exponential in the fold level, so the tests
anchor the fast evaluators against it at small levels, then check the
deep-level behaviour against closed forms and the exact reference density.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penergy import construction
from penergy.construction import (
    DEFAULT_SCHEDULE,
    LAW_SCHEDULE,
    MEASURE_SCHEDULE,
    ConvergenceError,
    CoverHypothesisError,
    EmptyFamilyError,
    EnergyMeasure,
    FoldSchedule,
    InadmissibleWitnessWarning,
    F_value,
    canonical_witnesses,
    cell_function,
    covering_check,
    distribution,
    energy_measure,
    outer_measure_lb,
    reference_measure,
    reflection_gap,
    two_sided_cut_limit,
)
from penergy.construction import _identity_run
from penergy.forms import PLIntervalForm
from penergy.laws import _sublevel_masses, set_mass_oracle, set_masses
from penergy.pl import (IntervalSet, PLFunction, lattice,
                        shifted_cut, sublevel_set, triangle_fold,
                        triangle_wave)
from penergy.sampler import PLSampler

SAMPLER = PLSampler(seed=137)
IDENT = PLFunction.identity()
DEEP = FoldSchedule(n_min=6, n_max=36, rel_tol=1e-8)


# ---------------------------------------------------------------------------
# cell functions and the fast evaluator


def test_cell_function_small_level_grid_oracle():
    # f = g = id, a = 1/2, n = 3: the triangle wave survives up to 1/2,
    # then the cap ramps it to zero within one peak width 1/8
    cell = cell_function(IDENT, IDENT, 0.5, 3)
    x = np.linspace(0.0, 1.0, 2001)
    ramp = np.clip(0.5 + 0.125 - x, 0.0, 0.125)
    expected = np.minimum(triangle_wave(x, 3), ramp)
    assert np.max(np.abs(cell.evaluate(x) - expected)) <= 1e-12
    assert np.all(cell.evaluate(x[x >= 0.5 + 0.125 + 1e-9]) == 0.0)


def _one_level(form, f, g, lo, hi, n):
    """Level-n energy of the window lo <= g <= hi (one-sided for lo None):
    a single-level run of the fold-limit producer."""
    sched = FoldSchedule(n, n)
    if lo is None:
        return F_value(form, f, g, hi, sched).energies[0]
    return two_sided_cut_limit(form, f, g, lo, hi, sched).energies[0]


def _literal(form, f, g, lo, hi, n):
    """The same energy from the materialised cell function."""
    if lo is None:
        return form.energy(cell_function(f, g, hi, n))
    lid = lattice(shifted_cut(g, hi, n), shifted_cut(-g, -lo, n), "min")
    return form.energy(lattice(triangle_fold(f, n), lid, "min"))


def _exact_values(xs, ys, nodes):
    """An exact PL function (xs, ys) at sorted nodes inside its domain."""
    out, j = [], 0
    for x in nodes:
        while j + 2 < len(xs) and xs[j + 1] <= x:
            j += 1
        out.append(ys[j] + (ys[j + 1] - ys[j]) * (x - xs[j])
                   / (xs[j + 1] - xs[j]))
    return out


def _exact_level(form, f, g, lo, hi, n, ps):
    """E(min(T_n o f, lid)) at each p of ``ps``, the capped fold built in
    rationals from the float inputs; lid = clip(hi + 2^-n - g, 0, 2^-n),
    and with ``lo`` also clip(g - lo + 2^-n, 0, 2^-n), whichever is lower.

    Between the nodes (those of f, g and the weight, f's preimages of the
    lattice k 2^-n and g's of the window's levels) fold and lid are both
    affine, so the lower one changes at most once, at their crossing.
    Each stretch's term w |m'|^p |I| takes the exact slope m': at p = 2 the
    term is exact up to its one rounding, otherwise it takes one float
    power.  math.fsum adds the terms with one more rounding.
    """
    F = Fraction
    eps = F(1, 2 ** n)
    fx, fy, gx, gy, wb, wv = ([F(v) for v in a.tolist()] for a in (
        f.breakpoints, f.values, g.breakpoints, g.values,
        form.weight_bounds, form.weight_values))
    levels = [F(hi), F(hi) + eps]
    if lo is not None:
        levels += [F(lo) - eps, F(lo)]
    nodes = set(fx) | set(gx) | set(wb)
    for xs, ys, folded in ((fx, fy, True), (gx, gy, False)):
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            a, b = min(y0, y1), max(y0, y1)
            ts = (k * eps for k in range(math.floor(a / eps) + 1,
                                         math.ceil(b / eps))) \
                if folded else (t for t in levels if a < t < b)
            nodes.update(x0 + (t - y0) * (x1 - x0) / (y1 - y0) for t in ts)
    nodes = sorted(nodes)

    def fold(v):
        r = v - 2 * eps * math.floor(v / (2 * eps))
        return r if r <= eps else 2 * eps - r

    def lid(v):
        cap = min(max(F(hi) + eps - v, 0), eps)
        return cap if lo is None else min(cap, max(v - F(lo) + eps, 0))

    fold_at = [fold(v) for v in _exact_values(fx, fy, nodes)]
    lid_at = [lid(v) for v in _exact_values(gx, gy, nodes)]
    terms = {p: [] for p in ps}
    k = 0
    for a, b, t0, t1, l0, l1 in zip(nodes, nodes[1:], fold_at, fold_at[1:],
                                    lid_at, lid_at[1:]):
        while wb[k + 1] <= a:
            k += 1
        ends = [(a, min(t0, l0))]
        d0, d1 = t0 - l0, t1 - l1
        if d0 * d1 < 0:
            r = a + d0 / (d0 - d1) * (b - a)
            ends.append((r, t0 + (t1 - t0) * (r - a) / (b - a)))
        ends.append((b, min(t1, l1)))
        for (u, m0), (v, m1) in zip(ends, ends[1:]):
            rise, width = abs(m1 - m0), v - u
            for p in ps:
                terms[p].append(float(wv[k] * rise * rise / width) if p == 2
                                else float(wv[k] * width)
                                * float(rise / width) ** p)
    return [math.fsum(terms[p]) for p in ps]


def _exact_bound(g, n):
    """Relative gap allowed from the exact level energy: the producer
    rounds each crossing to ulp(x) on a band 2^-n / |g'| wide."""
    return 1e-12 + 2.0 ** (n - 50) * float(np.max(np.abs(g.slopes)))


WEIGHTED = [(0.0, 0.35, 0.5), (0.35, 1.0, 2.5)]


def _reference_case(k, delta):
    """Sampler pair k, its witness lifted by 5 over [0.5, 0.5 + delta]
    unless delta is None, and the base witness's range."""
    f, g = SAMPLER.pl_pair(k)
    glo, ghi = g.value_range()
    if delta is not None:
        g = g + PLFunction([0.0, 0.5, 0.5 + delta, 1.0], [0, 0, 5, 5])
    return f, g, glo, ghi


def _identity_threshold(f, where):
    """A threshold for g = x: mid-cell, or 2^-52 below a breakpoint of f
    or a bound of WEIGHTED, so that its band starts in a sliver."""
    if where == "mid-cell":
        return 0.5 * (f.breakpoints[1] + f.breakpoints[2])
    return (f.breakpoints[2] if where == "f node" else WEIGHTED[0][1]) \
        - 2.0 ** -52


REFERENCE_CASES = [
    (k, d, n, s) for k, d, n in
    [(k, None, n) for k in (13, 14, 15) for n in (6, 9)]
    + [(13, d, n) for d in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10) for n in (6, 9)]
    + [(14, None, 12), (13, 1e-4, 12), (13, 1e-10, 12)]
    for s in (False, True)] + [
    (13, where, n, False) for where in ("mid-cell", "f node", "weight bound")
    for n in (6, 9, 12)]


@pytest.mark.parametrize("k,delta,n,two_sided", REFERENCE_CASES)
def test_level_energy_matches_exact_reference(k, delta, n, two_sided):
    ps = (1.5, 2.0, 3.0)
    if isinstance(delta, str):
        # the identity g = x, through the identity rows of _identity_run
        f, g = SAMPLER.pl_pair(k)[0], PLFunction([0.0, 1.0], [0.0, 1.0])
        lo, hi = None, _identity_threshold(f, delta)
        sched = FoldSchedule(n, n)
        got = [_identity_run(PLIntervalForm(p, weight=WEIGHTED), f, [hi],
                             sched).energies[0, 0] for p in ps]
    else:
        f, g, glo, ghi = _reference_case(k, delta)
        lo, hi = (glo + 0.3 * (ghi - glo) if two_sided else None,
                  glo + (0.7 if two_sided else 0.5) * (ghi - glo))
        got = [_one_level(PLIntervalForm(p, weight=WEIGHTED), f, g, lo, hi,
                          n) for p in ps]
    exact = _exact_level(PLIntervalForm(2.0, weight=WEIGHTED), f, g, lo, hi,
                         n, ps)
    for value, want in zip(got, exact):
        assert abs(value - want) <= _exact_bound(g, n) * want


# a witness flat at 0.4 on [0.25, 0.6]
FLAT = PLFunction([0.0, 0.25, 0.6, 1.0], [-0.3, 0.4, 0.4, 1.1])


def _windows(f, g, n):
    """(witness, lo, hi) windows: g one- and two-sided, g = f, -g, and a
    flat piece at the threshold, inside the band and under a two-sided
    window of zero width."""
    glo, ghi = g.value_range()
    flo, fhi = f.value_range()
    eps = 2.0 ** (-n)
    return [(g, None, glo + 0.25 * (ghi - glo)),
            (g, None, glo + 0.7 * (ghi - glo)),
            (g, glo + 0.25 * (ghi - glo), glo + 0.7 * (ghi - glo)),
            (f, None, flo + 0.4 * (fhi - flo)),
            (-g, None, -glo - 0.6 * (ghi - glo)),
            (FLAT, None, 0.4),
            (FLAT, None, 0.4 - 0.5 * eps),
            (FLAT, 0.4, 0.4)]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_folded_energy_matches_materialized(p):
    form = PLIntervalForm(p, weight=[(0.0, 0.35, 0.5), (0.35, 1.0, 2.5)])
    for k in range(4):
        f, g = SAMPLER.pl_pair(k)
        for n in (5, 8, 11):
            for w, lo, hi in _windows(f, g, n):
                fast = _one_level(form, f, w, lo, hi, n)
                literal = _literal(form, f, w, lo, hi, n)
                assert fast == pytest.approx(literal, rel=1e-12, abs=1e-13)


def test_batched_identity_rows_match_general():
    form = PLIntervalForm(2.0, weight=[(0.0, 0.5, 1.0), (0.5, 1.0, 3.0)])
    for k in range(3):
        f = SAMPLER.pl(20 + k, allow_flat=False)
        a = np.arange(33) / 32.0
        for n in (6, 12):
            rows = _identity_run(form, f, a, FoldSchedule(n, n)).energies[0]
            # rows are the plateau energy plus a nonnegative band residual
            assert np.all(rows >= np.interp(a, *form.cumulative_energy(f)))
            for j in (0, 1, 7, 16, 31, 32):
                # the identity as a general witness, not the exact ramp
                want = _one_level(form, f, IDENT, None, float(a[j]), n)
                assert rows[j] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_identity_keeps_bands_narrower_than_geom_tol():
    # at n = 44 the band [a, a + 2^-44] is narrower than GEOM_TOL, yet the
    # identity's exact ramp still carries its energy, within the bound
    # w max(1, |f'|)^p 2^-n that the stall rule relies on
    form = PLIntervalForm(2.0)
    f = SAMPLER.pl(21, allow_flat=False)
    a = np.array([0.25, 0.5, 0.75])
    rows = _identity_run(form, f, a, FoldSchedule(44, 44)).energies[0]
    band = rows - np.interp(a, *form.cumulative_energy(f))
    bound = max(1.0, float(np.max(np.abs(f.slopes)))) ** 2 * 2.0 ** -44
    assert np.all(band > 0.0) and np.all(band <= bound)


def test_flat_witness_piece_leaves_the_band():
    # FLAT's piece at 0.4 lies in the upper band (c, c + 2^-n) of c = 0.4 -
    # 0.75 2^-6, and in the lower band (c2 - 2^-n, c2) of c2 = 0.4 + 0.75
    # 2^-6, at n = 6 only: the rows found at n = 6 must carry nothing once
    # the band has moved off the piece
    form = PLIntervalForm(2.0, weight=WEIGHTED)
    f = SAMPLER.pl(3)
    c, c2 = 0.4 - 0.75 * 2.0 ** -6, 0.4 + 0.75 * 2.0 ** -6
    sched = FoldSchedule(6, 9, 1e-16)  # a tolerance no run meets
    for lo, trace in ((None, F_value(form, f, FLAT, c, sched)),
                      (c2, two_sided_cut_limit(form, f, FLAT, c2, 0.9,
                                               sched))):
        hi = c if lo is None else 0.9
        for n, got in zip(trace.levels, trace.energies, strict=True):
            want, = _exact_level(form, f, FLAT, lo, hi, n, (2.0,))
            assert abs(got - want) <= _exact_bound(FLAT, n) * want


@pytest.mark.parametrize("n", [6, 8])
def test_witness_band_narrower_than_geom_tol_is_measured(n):
    # each witness rises (or falls) by 5 over 1e-10, so at these levels its
    # band is narrower than GEOM_TOL: the PL algebra would merge the band's
    # ends, but the producer cuts it at its exact crossings, and the level
    # carries the band's energy, not just the plateau
    form = PLIntervalForm(2.0, weight=WEIGHTED)
    f, g = SAMPLER.pl_pair(13)
    a = float(np.mean(g.value_range()))
    for block in (PLFunction([0.0, 0.5, 0.5 + 1e-10, 1.0], [0, 0, 5, 5]),
                  PLFunction([0.0, 0.5 - 1e-10, 0.5, 1.0], [5, 5, 0, 0])):
        w = g + block
        plateau = sum(form.energy_between(f, lo, hi)
                      for lo, hi in sublevel_set(w, a).components)
        fast = _one_level(form, f, w, None, a, n)
        exact, = _exact_level(form, f, w, None, a, n, (2.0,))
        assert fast - plateau > 1e-3 * plateau
        assert abs(fast - exact) <= _exact_bound(w, n) * exact


def test_unresolved_band_is_reported_not_converged():
    # a nearly flat f with the identity as a general witness: the band
    # carries about 2^-n, which stays above rel_tol E(f) = 4e-16 up to
    # n_max = 48, so the trace comes back unconverged, just above the limit
    form = PLIntervalForm(2.0)
    bump = PLFunction([0.0, 0.5, 1.0], [0.0, 1e-4, 0.0])
    for a in (0.3, 0.5, 0.7):
        trace = F_value(form, bump, IDENT, a, MEASURE_SCHEDULE)
        assert not trace.converged
        assert trace.levels[-1] == MEASURE_SCHEDULE.n_max
        limit = form.energy_between(bump, 0.0, a)
        assert limit <= trace.final <= limit * (1.0 + 3e-7)


# ---------------------------------------------------------------------------
# beyond the sampler's envelope: steep pieces, many weight cells


def _steep(slope: float, seed: int) -> PLFunction:
    """Five-piece zigzag whose steepest piece has |f'| = slope."""
    rng = np.random.default_rng(seed)
    x = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 4)), [1.0]))
    mags = slope * rng.uniform(0.8, 1.0, 5)
    mags[rng.integers(5)] = slope
    signs = np.where(np.arange(5) % 2 == 0, 1.0, -1.0)
    y = np.concatenate(([0.0], np.cumsum(signs * mags * np.diff(x))))
    return PLFunction(x, y)


def _steep_form(p: float, cells: int, seed: int) -> PLIntervalForm:
    """p-form with ``cells`` jittered weight cells, weights in [0.5, 2]."""
    if cells == 1:
        return PLIntervalForm(p)
    rng = np.random.default_rng(seed)
    bounds = np.linspace(0.0, 1.0, cells + 1)
    bounds[1:-1] += rng.uniform(-0.3, 0.3, cells - 1) / cells
    vals = rng.uniform(0.5, 2.0, cells)
    return PLIntervalForm(p, weight=[(bounds[i], bounds[i + 1], vals[i])
                                     for i in range(cells)])


STEEP_CASES = [(8.0, 1.1, 50), (16.0, 1.5, 1), (32.0, 2.0, 50),
               (64.0, 3.0, 20), (64.0, 6.0, 50)]


@pytest.mark.parametrize("slope,p,cells", STEEP_CASES)
def test_kernel_matches_literal_steep_weighted(slope, p, cells):
    form = _steep_form(p, cells, seed=int(slope))
    f = _steep(slope, seed=int(slope) + 1)
    g = _steep(4.0, seed=3)
    glo, ghi = g.value_range()
    a = np.array([0.1, 0.33, 0.5, 0.77])
    for n in (5, 8, 11):
        # the literal fold has about 2^n |f'| pieces and recomputes every
        # slope from node differences, so its own rounding grows like that
        rel = max(1e-12, 2.0 ** n * slope * 1e-15)
        rows = _identity_run(form, f, a, FoldSchedule(n, n)).energies[0]
        for j, aj in enumerate(a):
            literal = form.energy(cell_function(f, IDENT, aj, n))
            assert rows[j] == pytest.approx(literal, rel=rel)
            ag = glo + aj * (ghi - glo)
            for w, lo, hi in [(g, None, ag), (g, glo, ag), (-g, None, -ag),
                              (f, None, f(aj))]:
                literal = _literal(form, f, w, lo, hi, n)
                fast = _one_level(form, f, w, lo, hi, n)
                assert fast == pytest.approx(literal, rel=rel)


# a band piece costs the same at any slope, so the measure also takes
# slopes whose literal fold would pass the piece cap
@pytest.mark.parametrize("slope,p,cells", STEEP_CASES + [
    (2.0 ** 14, 3.0, 50), (2.0 ** 18, 2.0, 20)])
def test_energy_measure_matches_reference_when_steep(slope, p, cells):
    form = _steep_form(p, cells, seed=int(slope))
    _assert_matches_reference(form, _steep(slope, seed=int(slope) + 1),
                              resolution=64)


def _random_pieces(rng, count):
    """Band pieces (x0, x1, v0, fs, l0, ls, w) at levels n = 6..48, as the
    producer hands them to the kernel: a lid of slope -1 (identity rows)
    or of a witness, staying in [0, 2^-n], and f crossing up to about 10^4
    lattice levels, rising or falling."""
    for _ in range(count):
        n = int(rng.integers(6, 49))
        eps = 2.0 ** -n
        ls = -1.0 if rng.random() < 0.5 else float(
            rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
        width = eps / abs(ls) * 10.0 ** rng.uniform(-2, 0)
        x0 = float(rng.uniform(0.0, 1.0 - width))
        x1 = x0 + width
        if not x1 > x0:
            continue
        drop = -ls * (x1 - x0)  # the lid's fall over the piece
        l0 = float(rng.uniform(max(drop, 0.0), eps + min(drop, 0.0)))
        fs = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 4)
                   * eps / (x1 - x0))
        yield ((x0, x1, float(rng.uniform(-2, 2)), fs, l0, ls,
                float(rng.choice([0.5, 1.0, 3.0]))), n,
               float(rng.choice([1.5, 2.0, 3.0])))


def _exact_piece(piece, n, p):
    """E(min(T_n o f, lid)) on one band piece, its split between fold and
    lid taken in rationals from the float inputs: the nodes are the ends
    and f's preimages of the lattice k 2^-n, and between two nodes the
    lower of fold and lid changes at most once, at their crossing."""
    x0, x1, v0, fs, l0, ls, w = map(Fraction, piece)
    eps = Fraction(1, 2 ** n)
    width = x1 - x0
    v1 = v0 + fs * width
    ks = list(range(math.floor(min(v0, v1) / eps) + 1,
                    math.ceil(max(v0, v1) / eps)))[::1 if fs > 0 else -1]

    def fold(v):
        r = v - 2 * eps * math.floor(v / (2 * eps))
        return r if r <= eps else 2 * eps - r

    ts = [Fraction(0)] + [(k * eps - v0) / fs for k in ks] + [width]
    folds = [fold(v0)] + [eps * (k & 1) for k in ks] + [fold(v1)]
    d = [y - l0 - ls * t for y, t in zip(folds, ts)]
    lower = Fraction(0)
    for t0, t1, d0, d1 in zip(ts, ts[1:], d, d[1:]):
        if d0 <= 0 and d1 <= 0:
            lower += t1 - t0
        elif d0 < 0 or d1 < 0:
            root = (t1 - t0) * d0 / (d0 - d1)
            lower += root if d0 < 0 else t1 - t0 - root
    return float(w) * (float(abs(fs)) ** p * float(lower)
                       + float(abs(ls)) ** p * float(width - lower))


@pytest.mark.parametrize("seed", range(3))
def test_band_kernel_matches_exact_pieces(seed):
    for piece, n, p in _random_pieces(np.random.default_rng(seed), 40):
        got, = construction._band_energy(
            tuple(np.array([v]) for v in piece), np.zeros(1, dtype=int), 1,
            n, p)
        x0, x1, v0, fs, _, ls, w = piece
        # the kernel rounds the ends of a piece's parts by an ulp of x, or
        # of f over |f'|: a few of those, not one per crossing
        delta = np.spacing(x1) + np.spacing(
            max(abs(v0), abs(v0 + fs * (x1 - x0)))) / abs(fs)
        bound = w * max(abs(fs) ** p, abs(ls) ** p) * (
            1e-12 * (x1 - x0) + 4.0 * delta)
        assert abs(got - _exact_piece(piece, n, p)) <= bound


def test_band_kernel_takes_a_piece_of_2_to_40_crossings():
    # an identity row of slope 2^40 at n = 20: half of each half-tooth,
    # on average, lies under the lid, so the piece carries about w (S +
    # 1) / 2 times its width, S = |f'|^p, inside [w, w S] times the width
    n, w, p = 20, 2.5, 1.5
    eps = 2.0 ** -n
    piece = tuple(np.array([v]) for v in (
        0.5, 0.5 + eps, 0.3, 2.0 ** 40, eps, -1.0, w))
    got, = construction._band_energy(piece, np.zeros(1, dtype=int), 1, n, p)
    s = 2.0 ** (40 * p)
    assert w * eps <= got <= w * s * eps
    assert got == pytest.approx(w * (s + 1.0) * eps / 2.0, rel=1e-9)


def test_band_kernel_lattice_indices_fit_int64():
    # |f| 2^n is about 1.1e20 at n = 40, past int64: the kernel clips its
    # lattice indices instead of casting out of range, and a piece with
    # both ends past the clip stays uncrossed
    f = PLFunction([0.0, 0.5, 1.0], [1e8, 1e8 + 1.0, 1e8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = _identity_run(PLIntervalForm(2.0), f,
                            np.array([0.25, 0.5, 0.75]), FoldSchedule(40, 40))
    assert run.values.tolist() == [1.000000000003638, 2.000000000003638,
                                   3.000000000003638]


@pytest.mark.parametrize("slope,p,cells", STEEP_CASES)
def test_set_masses_with_ends_next_to_nodes(slope, p, cells):
    # each end sits 3e-11, 1e-8 or 2^-20 off a breakpoint or weight bound,
    # so its band straddles that node at every level up to 34, 26 or 19
    form = _steep_form(p, cells, seed=int(slope))
    f = _steep(slope, seed=int(slope) + 1)
    nodes = np.union1d(f.breakpoints[1:-1], form.weight_bounds[1:-1])
    sets = []
    for t in nodes:
        for d in (3e-11, 1e-8, 2.0 ** -20):
            sets += [IntervalSet.closed(0.0, t - d),
                     IntervalSet.closed(0.0, t + d),
                     IntervalSet.closed(t - d, t + d)]
    got = set_masses(form, f, sets)
    want = np.array([set_mass_oracle(form, f, A) for A in sets])
    assert np.max(np.abs(got - want)) <= 1e-6 * form.energy(f)


# ---------------------------------------------------------------------------
# fold limits: closed forms and trace structure


def test_limit_above_witness_range_is_energy_exactly():
    form = PLIntervalForm(2.0)
    f = SAMPLER.pl(1)
    tr = F_value(form, f, IDENT, 2.0)
    assert tr.converged
    # the cap sits at the peak everywhere, so every level is exact
    assert tr.final == pytest.approx(form.energy(f), rel=0, abs=0)
    assert set(tr.energies) == {tr.final}


def test_limit_below_witness_range_is_zero():
    form = PLIntervalForm(3.0)
    f = SAMPLER.pl(2)
    tr = F_value(form, f, IDENT, -2.5)
    assert tr.converged
    assert tr.final == 0.0


def test_identity_halfway_limit():
    # F_id^id(1/2) = 1/2; the level-n value is exactly 1/2 + 2^-n
    form = PLIntervalForm(2.0)
    shallow = F_value(form, IDENT, IDENT, 0.5)
    assert abs(shallow.final - 0.5) <= 2.0 ** (-17)
    deep = F_value(form, IDENT, IDENT, 0.5, DEEP)
    assert deep.converged
    assert abs(deep.final - 0.5) <= 1e-8
    for n, e in zip(deep.levels, deep.energies):
        assert e == pytest.approx(0.5 + 2.0 ** (-n), rel=1e-12)


def test_trace_final_is_running_infimum():
    form = PLIntervalForm(2.0)
    f, g = SAMPLER.pl_pair(3)
    a = float(np.mean(g.value_range()))
    tr = F_value(form, f, g, a, LAW_SCHEDULE)
    assert tr.final <= min(tr.energies) + 0.0
    rows = tr.to_rows()
    infs = [r[2] for r in rows]
    assert all(x >= y for x, y in zip(infs, infs[1:]))
    assert infs[-1] == tr.final


def test_unconverged_trace_returned_not_raised():
    form = PLIntervalForm(2.0)
    f, g = SAMPLER.pl_pair(4)
    a = float(np.mean(g.value_range()))
    strict = FoldSchedule(n_min=4, n_max=6, rel_tol=1e-15, stall_count=2)
    tr = F_value(form, f, g, a, strict)
    assert not tr.converged
    assert tr.stalled_at is None
    assert len(tr.energies) == 3
    with pytest.raises(ConvergenceError):
        distribution(form, f, g, [a], strict)


def test_materialized_route_agrees_at_small_levels():
    form = PLIntervalForm(1.5)
    f, g = SAMPLER.pl_pair(5)
    a = float(np.mean(g.value_range()))
    # a tolerance the run cannot meet: it runs the full level range
    sched = FoldSchedule(n_min=4, n_max=9, rel_tol=1e-16)
    fast = F_value(form, f, g, a, sched)
    assert fast.levels == tuple(range(4, 10))
    literal = [_literal(form, f, g, None, a, n) for n in fast.levels]
    assert np.allclose(fast.energies, literal, rtol=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        FoldSchedule(n_min=0)
    with pytest.raises(ValueError):
        FoldSchedule(n_min=10, n_max=5)
    with pytest.raises(ValueError):
        FoldSchedule(rel_tol=0.0)
    with pytest.raises(ValueError):
        FoldSchedule(stall_count=0)


@pytest.mark.parametrize("fields", [
    {"rel_tol": np.inf}, {"rel_tol": np.nan}, {"n_min": 4.0},
    {"n_max": 18.5}, {"stall_count": 2.5}, {"stall_count": True},
])
def test_schedule_rejects_non_finite_and_non_integral_numbers(fields):
    with pytest.raises(ValueError):
        FoldSchedule(**fields)


# ---------------------------------------------------------------------------
# distribution along levels


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_distribution_monotone_and_endpoints(p):
    form = PLIntervalForm(p)
    f, g = SAMPLER.pl_pair(6)
    glo, ghi = g.value_range()
    grid = np.linspace(glo - 0.05, ghi + 0.05, 11)
    d = distribution(form, f, g, grid, LAW_SCHEDULE)
    assert d.converged
    e_ref = form.energy(f)
    assert d.values[0] <= 4e-5 * e_ref
    assert d.values[-1] == pytest.approx(e_ref, rel=4e-5)
    assert np.all(np.diff(d.values) >= -1e-5 * e_ref)


def test_distribution_rejects_bad_grid():
    form = PLIntervalForm(2.0)
    f, g = SAMPLER.pl_pair(6)
    with pytest.raises(ValueError):
        distribution(form, f, g, [0.5, 0.4], LAW_SCHEDULE)
    with pytest.raises(ValueError, match="strictly increasing"):
        distribution(form, f, g, [0.1, np.nan, 0.3], LAW_SCHEDULE)


def test_reflection_identity():
    form = PLIntervalForm(2.0)
    for k in range(3):
        f, g = SAMPLER.pl_pair(7 + k)
        glo, ghi = g.value_range()
        a = glo + 0.4 * (ghi - glo)
        gap = reflection_gap(form, f, g, a, LAW_SCHEDULE)
        assert abs(gap) <= 1e-4 * form.energy(f)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 40), st.floats(0.15, 0.45), st.floats(0.55, 0.85))
def test_limit_monotone_in_level(k, t1, t2):
    form = PLIntervalForm(2.0)
    f, g = SAMPLER.pl_pair(k)
    glo, ghi = g.value_range()
    a1 = glo + t1 * (ghi - glo)
    a2 = glo + t2 * (ghi - glo)
    f1 = F_value(form, f, g, a1, LAW_SCHEDULE).final
    f2 = F_value(form, f, g, a2, LAW_SCHEDULE).final
    assert f1 <= f2 + 4e-5 * max(form.energy(f), 1.0)


# ---------------------------------------------------------------------------
# outer measure lower bounds


def test_outer_full_domain_is_exact():
    form = PLIntervalForm(2.0)
    f = SAMPLER.pl(9)
    lb = outer_measure_lb(form, f, IntervalSet.full(), sched=LAW_SCHEDULE)
    # the constant witness caps the fold at its peak, no limit needed
    assert lb == pytest.approx(form.energy(f), rel=0, abs=0)


def test_outer_half_domain_identity():
    form = PLIntervalForm(2.0)
    lb = outer_measure_lb(form, IDENT, IntervalSet.closed(0.0, 0.5),
                          sched=LAW_SCHEDULE)
    assert lb == pytest.approx(0.5, abs=1e-3)
    assert lb <= 0.5 + 1e-9


def test_outer_lb_never_exceeds_measure():
    form = PLIntervalForm(2.0)
    f = SAMPLER.pl(10, allow_flat=False)
    meas = energy_measure(form, f)
    targets = [
        IntervalSet.closed(0.2, 0.7),
        IntervalSet([(0.0, 0.3), (0.6, 1.0)]),
        IntervalSet([(0.1, 0.25), (0.4, 0.55), (0.8, 0.95)]),
    ]
    for target in targets:
        lb = outer_measure_lb(form, f, target, sched=LAW_SCHEDULE)
        mu = meas.measure(target)
        assert lb <= mu + 1e-4 * max(1.0, form.energy(f))
        # the joint ladder should come close from below as well
        assert lb >= mu - 0.05 * max(form.energy(f), 1.0)


def test_outer_skips_inadmissible_and_raises_on_empty():
    form = PLIntervalForm(2.0)
    f = SAMPLER.pl(11)
    target = IntervalSet.closed(0.0, 0.5)
    with pytest.warns(InadmissibleWitnessWarning):
        with pytest.raises(EmptyFamilyError):
            # nonnegative level, and a sublevel set escaping the target
            outer_measure_lb(form, f, target,
                             family=[(IDENT, 0.3),
                                     (PLFunction.constant(-1.0), -0.5)])


def test_canonical_witnesses_are_admissible():
    target = IntervalSet([(0.0, 0.3), (0.45, 0.6), (0.9, 1.0)])
    fam = canonical_witnesses(target)
    assert fam
    from penergy.pl import sublevel_set
    for g, a in fam:
        assert a < 0.0
        assert sublevel_set(g, a).issubset(target)


# ---------------------------------------------------------------------------
# covering


def test_covering_self_cover_has_zero_slack():
    form = PLIntervalForm(2.0)
    f, g = SAMPLER.pl_pair(12)
    a = float(np.mean(g.value_range()))
    rep = covering_check(form, f, g, a, [(g, a)], LAW_SCHEDULE)
    assert rep.passed
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_covering_split_passes_and_bad_cover_raises():
    form = PLIntervalForm(2.0)
    f, g = SAMPLER.pl_pair(13)
    a = float(np.mean(g.value_range()))
    # lift g on one half: each piece covers half of the sublevel set; the
    # lift's slope of 5e6 gives bands of about 5e6 2^-n, quiet below 1e-5
    # E(f) only near n = 36, past LAW_SCHEDULE's n_max
    sched = FoldSchedule(6, 48, 1e-5)
    left_block = PLFunction([0.0, 0.5, 0.500001, 1.0], [0.0, 0.0, 5.0, 5.0])
    right_block = PLFunction([0.0, 0.499999, 0.5, 1.0], [5.0, 5.0, 0.0, 0.0])
    rep = covering_check(form, f, g, a,
                         [(g + left_block, a), (g + right_block, a)], sched)
    assert rep.passed
    assert rep.converged
    with pytest.raises(CoverHypothesisError):
        covering_check(form, f, g, a, [(g + left_block, a)], sched)
    with pytest.raises(CoverHypothesisError):
        covering_check(form, f, g, a, [], sched)


def test_two_sided_cut_capacity_bound():
    form = PLIntervalForm(2.0)
    for k in range(3):
        f, g = SAMPLER.pl_pair(14 + k)
        glo, ghi = g.value_range()
        a = glo + 0.3 * (ghi - glo)
        b = glo + 0.7 * (ghi - glo)
        cap = two_sided_cut_limit(form, f, g, a, b, LAW_SCHEDULE)
        fa = F_value(form, f, g, a, LAW_SCHEDULE).final
        fb = F_value(form, f, g, b, LAW_SCHEDULE).final
        assert cap.final <= fb - fa + 4e-5 * max(form.energy(f), 1.0)


def test_two_sided_window_on_one_steep_piece_converges():
    # g rises by 1 over 1e-10, so both bands of [0.3, 0.6] lie on one piece
    # of g, each narrower than GEOM_TOL: the levels match the exact capped
    # fold, and the band above the plateau is at most w 2^-n (|g'|^(p-1) +
    # |f'|^p / |g'|) per band, so the levels converge to the plateau
    form = PLIntervalForm(2.0)
    f = SAMPLER.pl(3)
    g = PLFunction([0.0, 0.5, 0.5 + 1e-10, 1.0], [0.0, 0.0, 1.0, 1.0])
    plateau = form.energy_between(f, 0.5 + 0.3e-10, 0.5 + 0.6e-10)
    steep, fs = 1e10, float(np.max(np.abs(f.slopes)))
    for n in (6, 8, 10):
        fast = two_sided_cut_limit(form, f, g, 0.3, 0.6,
                                   FoldSchedule(n, n)).energies[0]
        exact, = _exact_level(form, f, g, 0.3, 0.6, n, (2.0,))
        assert abs(fast - exact) <= _exact_bound(g, n) * exact
        band = fast - plateau
        assert 0.0 < band <= 2.0 * 2.0 ** -n * (steep + fs ** 2 / steep)


@pytest.mark.parametrize("low,high", [(0.6, 0.4), (-np.inf, 0.5),
                                      (0.2, np.inf), (np.nan, 0.5)])
def test_two_sided_cut_rejects_malformed_window(low, high):
    form = PLIntervalForm(2.0)
    f, g = SAMPLER.pl_pair(14)
    with pytest.raises(ValueError, match="finite low <= high"):
        two_sided_cut_limit(form, f, g, low, high, LAW_SCHEDULE)


@pytest.mark.parametrize("call", [
    lambda form, f: F_value(form, f, IDENT, np.nan),
    lambda form, f: reflection_gap(form, f, IDENT, np.nan),
    lambda form, f: set_masses(form, f, [(0.2, np.nan)]),
    lambda form, f: set_mass_oracle(form, f, (np.nan, 0.5)),
    lambda form, f: _sublevel_masses(form, [(f, np.array([0.2, np.nan]))],
                                     "oracle", LAW_SCHEDULE),
], ids=["F_value", "reflection_gap", "set_masses", "set_mass_oracle",
        "sublevel_masses_oracle"])
def test_nan_thresholds_are_rejected_not_read_as_empty(call):
    # a NaN threshold used to give F = 0, converged, and a NaN set end an
    # empty set of mass 0
    with pytest.raises(ValueError, match="NaN"):
        call(PLIntervalForm(2.0), PLFunction.tent())


def test_infinite_thresholds_give_the_limits_at_the_ends():
    form, f = PLIntervalForm(2.0), PLFunction.tent()
    assert F_value(form, f, IDENT, np.inf).final == form.energy(f)
    assert F_value(form, f, IDENT, -np.inf).final == 0.0


def test_huge_threshold_gives_the_energy_without_warning():
    # on a cell where g rises by 0.5, the crossing of 1e308 lies 2e308
    # cell widths on: it overflows to inf, which the clamp sends to the end
    form, f = PLIntervalForm(2.0), PLFunction.tent()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = F_value(form, f, PLFunction([0.0, 1.0], [0.0, 1.0]), 1e308)
    assert trace.final == form.energy(f)


# ---------------------------------------------------------------------------
# the energy measure


def test_energy_measure_identity_has_unit_density():
    form = PLIntervalForm(2.0)
    m = energy_measure(form, IDENT)
    assert np.max(np.abs(m.density - 1.0)) <= 1e-6
    assert m.total_mass() == pytest.approx(1.0, rel=1e-8)


def test_energy_measure_constant_is_zero():
    form = PLIntervalForm(2.0)
    m = energy_measure(form, PLFunction.constant(0.7))
    assert m.total_mass() == 0.0
    assert np.all(m.masses == 0.0)


@pytest.mark.parametrize("form, f", [
    (PLIntervalForm(2.0), PLFunction.constant(0.3)),
    # all of f's slope sits on the zero-weight cell
    (PLIntervalForm(3.0, weight=[(0.0, 0.5, 0.0), (0.5, 1.0, 2.0)]),
     PLFunction([0.0, 0.2, 0.5, 1.0], [0.0, 1.0, 0.4, 0.4])),
])
def test_zero_energy_fold_limits_are_zero_and_converged(form, f):
    assert form.energy(f) == 0.0
    g = PLFunction.identity()
    trace = F_value(form, f, g, 0.5)
    assert trace.converged and trace.final == 0.0
    dist = distribution(form, f, g, [-0.5, 0.25, 0.5, 1.5])
    assert dist.converged and np.all(dist.values == 0.0)
    assert all(t.converged for t in dist.traces)
    sets = (IntervalSet.closed(0.1, 0.6), IntervalSet.full())
    assert np.all(set_masses(form, f, sets) == 0.0)


def test_energy_measure_tent_p3_unit_density():
    form = PLIntervalForm(3.0)
    m = energy_measure(form, PLFunction.tent())
    assert np.max(np.abs(m.density - 1.0)) <= 1e-6
    assert m.total_mass() == pytest.approx(1.0, rel=1e-8)


def test_energy_measure_affine_p2():
    form = PLIntervalForm(2.0)
    f = PLFunction([0.0, 1.0], [-1.0, 1.0])
    m = energy_measure(form, f)
    assert np.max(np.abs(m.density - 4.0)) <= 4e-6
    assert m.total_mass() == pytest.approx(4.0, rel=1e-8)
    r = reference_measure(form, f)
    assert r.total_mass() == pytest.approx(4.0, rel=0, abs=0)
    assert np.all(r.density == 4.0)


def test_energy_measure_weighted_identity_recovers_weight():
    w = [(0.0, 0.25, 0.5), (0.25, 0.75, 2.0), (0.75, 1.0, 1.0)]
    form = PLIntervalForm(2.0, weight=w)
    m = energy_measure(form, IDENT)
    mids = 0.5 * (m.nodes[:-1] + m.nodes[1:])
    assert np.max(np.abs(m.density - form.weight_at(mids))) <= 1e-5


def _assert_matches_reference(form, f, resolution=512):
    """Criterion-01 tolerances: 1e-4 sup density gap, 1e-6 mass gap."""
    m = energy_measure(form, f, resolution)
    r = reference_measure(form, f)
    cell_ref = np.array([r.measure((lo, hi))
                         for lo, hi in zip(m.nodes[:-1], m.nodes[1:])])
    widths = np.diff(m.nodes)
    sup_gap = np.max(np.abs(m.masses - cell_ref) / widths)
    assert sup_gap <= 1e-4 * np.max(r.density)
    e_ref = form.energy(f)
    assert abs(m.total_mass() - e_ref) <= 1e-6 * e_ref


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_energy_measure_matches_reference(p):
    form = PLIntervalForm(p)
    for k in range(3):
        _assert_matches_reference(form, SAMPLER.pl(30 + k, allow_flat=False))


def test_energy_measure_deterministic():
    form = PLIntervalForm(2.0)
    f = SAMPLER.pl(33)
    m1 = energy_measure(form, f)
    m2 = energy_measure(form, f)
    assert np.array_equal(m1.masses, m2.masses)
    assert m1.levels_used == m2.levels_used


def test_energy_measure_shallow_schedule_raises():
    form = PLIntervalForm(2.0)
    f = SAMPLER.pl(34, allow_flat=False)
    with pytest.raises(ConvergenceError):
        energy_measure(form, f,
                       sched=FoldSchedule(n_min=4, n_max=6, rel_tol=1e-12))


def test_measure_query_prorates_cells():
    nodes = np.array([0.0, 0.25, 0.5, 1.0])
    masses = np.array([1.0, 2.0, 4.0])  # densities 4, 8, 8
    m = EnergyMeasure(nodes, masses)
    assert m.measure((0.0, 1.0)) == pytest.approx(7.0)
    assert m.measure((0.125, 0.375)) == pytest.approx(0.125 * 4 + 0.125 * 8)
    target = IntervalSet([(0.0, 0.125), (0.75, 1.0)])
    assert m.measure(target) == pytest.approx(0.5 + 2.0)
    rows = m.to_rows()
    assert rows[0] == (0.0, 0.25, 4.0)


def test_energy_measure_rejects_nan_nodes_and_targets():
    with pytest.raises(ValueError, match="strictly increasing"):
        EnergyMeasure([0.0, np.nan, 1.0], [1.0, 1.0])
    m = EnergyMeasure([0.0, 0.5, 1.0], [1.0, 1.0])
    for target in ((0.0, np.nan), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="NaN"):
            m.measure(target)


def test_energy_measure_validation():
    with pytest.raises(ValueError):
        EnergyMeasure([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        EnergyMeasure([0.0, 1.0], [1.0, 2.0])
    for resolution in (0, 2.5, True):  # 2.5 gave nodes past 1
        with pytest.raises(ValueError, match="resolution"):
            energy_measure(PLIntervalForm(2.0), PLFunction.tent(), resolution)
    with pytest.raises(TypeError):
        from penergy.forms import GraphForm
        g = GraphForm(2, [(0, 1, 1.0)], p=2.0)
        energy_measure(g, IDENT)
