"""Identity fold runs that start late, bit for bit.

A threshold whose band is certainly above the stall tolerance at the early
levels, and whose skipped energies certainly stay above its late running
minimum, starts at a later level.  Everything a caller sees must be the run
from n_min: values, levels, the stop level, misses, error messages and
traces (a late threshold's trace runs its skipped levels on demand).  The
reference run here is the same code with the start chooser patched to
n_min; quiet runs may only be capped at the steps a late threshold ran.
"""

import dataclasses

import numpy as np
import pytest

from penergy import construction
from penergy.construction import (
    MEASURE_SCHEDULE,
    ConvergenceError,
    FoldSchedule,
    _band_energy,
    _identity_runs,
    _rate_bounds,
    _window_runs,
    energy_measure,
)
from penergy.forms import PLIntervalForm
from penergy.pl import PLFunction
from penergy.sampler import PLSampler

SCHED = FoldSchedule(n_min=6, n_max=34, rel_tol=1e-8)
WEIGHT = [(0.0, 0.3, 1.0), (0.3, 0.45, 0.0), (0.45, 1.0, 2.5)]


def _both(from_n_min, make):
    """(late, full) results of make(), the second with every start at
    n_min."""
    return make(), from_n_min(make)


def _groups():
    """Flat pieces, slope-64 pieces, thresholds below 0 and above 1, a
    zero-energy f, and a nearly flat f that exhausts SCHED."""
    sampler = PLSampler(seed=3)
    a = np.linspace(-0.1, 1.1, 97)
    flat = PLFunction([0.0, 0.2, 0.5, 0.7, 1.0], [0.0, 0.6, 0.6, 0.1, 0.4])
    steep = PLFunction([0.0, 0.5, 0.51, 0.6, 1.0], [0.0, 0.2, 0.84, 0.2, 0.5])
    return [(sampler.pl(k), a[k % 3::2]) for k in range(4)] + [
        (flat, np.sort(np.append(a, flat.breakpoints))),
        (steep, np.sort(np.append(a, [0.505, 1.0]))),
        (PLFunction.constant(0.3), a),
        (PLFunction([0.0, 0.5, 1.0], [0.0, 1e-3, 0.0]), a[::4])]


def _assert_as_full(late, full):
    assert late.levels == full.levels
    assert late.converged == full.converged
    assert late.values.tobytes() == full.values.tobytes()
    assert late.miss.tobytes() == full.miss.tobytes()
    assert np.all(full.first == full.levels[0])
    ran = late.levels[-1] - late.first
    assert np.array_equal(late.quiet_run, np.where(
        late.first > late.levels[0], np.minimum(full.quiet_run, ran),
        full.quiet_run))
    for j in range(0, late.thresholds.size, 3):  # a late trace reruns
        assert late.trace(j) == full.trace(j)
    if not full.converged:
        with pytest.raises(ConvergenceError) as want:
            full.limits()
        with pytest.raises(ConvergenceError) as got:
            late.limits()
        assert str(got.value) == str(want.value)
        assert got.value.trace == want.value.trace


@pytest.mark.parametrize("p", [1.5, 2.0, 6.0])
def test_late_runs_match_the_run_from_n_min(from_n_min, p):
    form = PLIntervalForm(p, weight=WEIGHT)
    groups = _groups()
    late, full = _both(from_n_min,
                       lambda: _identity_runs(form, groups, SCHED))
    for x, y in zip(late, full):
        _assert_as_full(x, y)
    starts = np.concatenate([run.first for run in late[:-2]])
    assert np.any(starts > SCHED.n_min) and np.any(starts == SCHED.n_min)
    flat = late[-1]
    assert not flat.converged and flat.levels[-1] == SCHED.n_max
    # below p = 6 the flat f's band is provably busy, so the raised trace
    # is that of a late row; at p = 6 the lid's energy swamps |f'|^p
    assert np.any(flat.first > SCHED.n_min) == (p < 6.0)


def test_witness_rows_start_at_n_min(from_n_min):
    # a group mixing an identity block with a witness block: the witness
    # rows keep n_min, the identity rows may start late
    form = PLIntervalForm(2.0, weight=WEIGHT)
    f, a = _groups()[4]
    g = PLSampler(seed=3).pl(7)
    groups = [(f, [(None, None, a), (g, None, np.linspace(*g.value_range(),
                                                          9))])]
    late, full = _both(from_n_min, lambda: _window_runs(
        form, groups, SCHED, SCHED.rel_tol))
    _assert_as_full(late[0], full[0])
    assert np.all(late[0].first[a.size:] == SCHED.n_min)
    assert np.any(late[0].first[:a.size] > SCHED.n_min)


def test_negative_mass_error_traces_a_late_row(monkeypatch, from_n_min):
    # lower one threshold's last energy so that the cell below it comes
    # out negative; the error names the threshold before it, a late one,
    # whose trace must still hold every level from n_min
    form = PLIntervalForm(2.0, weight=WEIGHT)
    f = PLSampler(seed=3).pl(1)
    real = construction._identity_run
    dent = []

    def dented(form, f, a, sched):
        run = real(form, f, a, sched)
        if not dent:  # the late run comes first and picks the threshold
            late = np.flatnonzero(run.first[:-1] > run.levels[0])
            dent.append(int(late[late.size // 2]) + 1)
        energies = run.energies.copy()
        energies[-1, dent[0]] -= 0.1 * float(np.max(run.values))
        return dataclasses.replace(run, energies=energies)

    monkeypatch.setattr(construction, "_identity_run", dented)
    late, full = _both(from_n_min, lambda: pytest.raises(
        ConvergenceError, energy_measure, form, f, 64, MEASURE_SCHEDULE))
    assert "negative cell mass" in str(late.value)
    assert str(late.value) == str(full.value)
    assert late.value.trace == full.value.trace
    # the skipped levels were run, not left at their placeholder
    assert np.all(np.isfinite(late.value.trace.energies))


def _random_bands(rng):
    """(form, f, thresholds, levels): flat and steep pieces, zero and unit
    weights, and thresholds a few ulps off a node, whose bands end in
    slivers, at levels up to 50; then narrow whole cells."""
    for _ in range(60):
        p = float(rng.choice([1.5, 2.0, 6.0]))
        x = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 3))))
        slope = 10.0 ** rng.uniform(-3, 1.8, 4) * rng.choice([-1, 1], 4)
        slope[rng.random(4) < 0.25] = 0.0
        f = PLFunction(x, np.concatenate(([rng.uniform(-1, 1)],
                                          np.cumsum(slope * np.diff(x)))))
        cut = float(rng.uniform(0.1, 0.9))
        form = PLIntervalForm(p, weight=[(0.0, cut, float(rng.choice(
            [0.0, 1.0]))), (cut, 1.0, float(rng.choice([0.5, 3.0])))])
        nodes = np.concatenate((f.breakpoints, form.weight_bounds))
        deep = np.ldexp(1.0, -rng.integers(6, 51, 16))
        yield form, f, np.sort(np.concatenate((
            rng.uniform(-0.05, 1.05, 16),
            rng.choice(nodes, 16) - deep
            + rng.integers(-2, 3, 16) * 2.0 ** -53))), \
            rng.integers(6, 51, 4).tolist()
    # f near 16, whose ulp is four lattice steps at n = 50: a crossing
    # taken from v0 can round past the band's end
    yield (PLIntervalForm(2.0), PLFunction([0.0, 1.0], [17.0, 15.7]),
           np.linspace(0.01, 0.99, 99), [48, 49, 50])
    # 48 weight cells 1e-7 wide after a cell of weight 1e6: each band
    # covers whole cells, whose share is a difference of cumulative rates
    # near 5e5 that rounding moves by thousands of times _KAPPA of the
    # band; the band's top lies a few ulps either side of a node
    ends = 0.75 + 1e-7 * np.arange(49)
    yield (PLIntervalForm(2.0, weight=[(0.0, 0.75, 1e6)] + [
        (lo, hi, 1.0 + i % 3) for i, (lo, hi) in enumerate(
            zip(ends[:-1], ends[1:]))] + [(ends[-1], 1.0, 1.0)]),
           PLFunction([0.0, 1.0], [0.0, 1.0]), np.sort(np.concatenate([
               ends[12:-4] - 2.0 ** -21 + k * 2.0 ** -53
               for k in range(-2, 6)])), [21])


@pytest.mark.parametrize("seed", range(4))
def test_bounds_hold_the_kernel_band(monkeypatch, seed):
    # bands through the producer: each row's band lies in its
    # rounding-free range [w min(1, S), w max(1, S)] times its width, S =
    # |f'|^p, and each threshold's in [L, U], with L > 0 where that range is
    kernel, chooser = construction._band_energy, construction._first_levels
    seen = {}

    def kernel_spy(pieces, eps, owner, size):
        seen.update(pieces=pieces, eps=eps, owner=owner,
                    band=kernel(pieces, eps, owner, size))
        return seen["band"]

    def chooser_spy(grid, ident, *args):
        seen.update(grid=grid, ident=ident)
        return chooser(grid, ident, *args)

    monkeypatch.setattr(construction, "_band_energy", kernel_spy)
    monkeypatch.setattr(construction, "_first_levels", chooser_spy)
    checked = 0
    for form, f, a, levels in _random_bands(np.random.default_rng(seed)):
        p = form.p
        for n in levels:
            seen.clear()
            _identity_runs(form, [(f, a)], FoldSchedule(n, n))
            if "band" not in seen:  # E(f) = 0: no level runs
                continue
            x0, x1, _, fs, _, ls, w, s, sl = seen["pieces"]
            assert np.all(ls == -1.0) and np.all(sl == 1.0)
            assert np.array_equal(s, np.abs(fs) ** p)
            one = kernel(seen["pieces"], seen["eps"], np.arange(x0.size),
                         x0.size)
            width = w * (x1 - x0)
            assert np.all(one >= width * np.minimum(1.0, s) * (1.0 - 1e-12))
            assert np.all(one <= width * np.maximum(1.0, s) * (1.0 + 1e-12))
            low, high = _rate_bounds(seen["grid"], seen["ident"], n)
            band = seen["band"]
            assert np.all(low <= band) and np.all(band <= high)
            assert np.all(np.isfinite(high))
            # a threshold with a band of positive rate gets a positive L
            rate = np.bincount(seen["owner"], width * np.minimum(1.0, s),
                               a.size)
            assert np.all(low[rate > 0.0] > 0.0)
            checked += int(np.sum(rate > 0.0))
    assert checked > 1000


def test_anchor_sends_at_most_forty_percent_of_the_row_levels(
        monkeypatch, from_n_min):
    # the resolution-32768 anchor: the pieces the kernel integrates, late
    # start against the run from n_min, with the same values
    form = PLIntervalForm(2.0)
    f = PLSampler(seed=2026).nonzero_pl(0)
    sent = []
    kernel = construction._band_energy

    def counting(pieces, eps, owner, size):
        sent[-1] += owner.size
        return kernel(pieces, eps, owner, size)

    monkeypatch.setattr(construction, "_band_energy", counting)

    def build():
        sent.append(0)
        return energy_measure(form, f, 32768, MEASURE_SCHEDULE)

    late, full = _both(from_n_min, build)
    assert late.levels_used == full.levels_used
    assert late.masses.tobytes() == full.masses.tobytes()
    assert sent[0] <= 0.4 * sent[1], sent
