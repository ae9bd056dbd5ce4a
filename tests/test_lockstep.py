"""Fold limits of many functions run in lock-step, a block of levels at a
time.

A batch shares one band-kernel call per block of levels across its
groups, yet each group must come out exactly as it would alone: same rows
to the bit, same stop level, same quiet runs and misses, and, when its
budget runs out, the same error and trace.  A block ends at the first
level at which some group could stop, so no row reaches the kernel past
its group's stop, and a run in blocks is the run of one call per level.
The laws that batch their functions must still raise for the first
failing function in draw order.
"""

import numpy as np
import pytest

from penergy import construction, laws
from penergy.construction import (
    MEASURE_SCHEDULE,
    ConvergenceError,
    FoldSchedule,
    _identity_run,
    _identity_runs,
    _window_runs,
    energy_measure,
)
from penergy.forms import PLIntervalForm
from penergy.laws import (ATOM_SCHEDULE, dyadic_sets, law_image_density,
                          law_measure_clarkson, set_masses)
from penergy.pl import PLFunction
from penergy.sampler import PLSampler

FORM = PLIntervalForm(3.0, weight=[(0.0, 0.4, 1.0), (0.4, 1.0, 2.0)])
# deep enough for most sampled functions, too shallow for a nearly flat one
SCHED = FoldSchedule(n_min=6, n_max=34, rel_tol=1e-8)


def _groups():
    sampler = PLSampler(seed=3)
    fns = [sampler.pl(k) for k in range(6)]
    fns += [PLFunction.constant(0.3),                  # zero energy
            PLFunction([0.0, 0.5, 1.0], [0.0, 1e-3, 0.0])]  # exhausts SCHED
    a = np.linspace(-0.1, 1.1, 23)
    groups = [(f, a[k % 3::2]) for k, f in enumerate(fns)]
    # no thresholds, between running groups: a zero-width group
    groups.insert(3, (sampler.pl(9), np.empty(0)))
    return groups


def _assert_same_run(got, want):
    assert got.levels == want.levels
    assert got.converged == want.converged
    for field in ("thresholds", "energies", "quiet_run", "miss", "first"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and g.shape == w.shape, field
        assert g.tobytes() == w.tobytes(), field
    for j in range(got.thresholds.size):  # a late row's trace reruns
        g, w = got.trace(j), want.trace(j)
        assert (g.levels, g.converged, g.stalled_at) == (
            w.levels, w.converged, w.stalled_at)
        assert np.array(g.energies).tobytes() == np.array(
            w.energies).tobytes()


def _forty_cells():
    """Forty weight cells: about six pieces in each band at level 3."""
    bounds = np.linspace(0.0, 1.0, 41)
    return PLIntervalForm(2.0, weight=[(lo, hi, 1.0 + (i % 3)) for i, (lo, hi)
                                       in enumerate(zip(bounds, bounds[1:]))])


def _spy(monkeypatch):
    """Every kernel call, as the (level, owner) of each of its pieces; an
    owner is a level's offset in its block times the batch's thresholds
    plus the threshold."""
    calls = []
    kernel = construction._band_energy

    def spy(pieces, eps, owner, size):
        level = 1 - np.frexp(np.broadcast_to(eps, owner.shape))[1]
        calls.append((level, owner))
        return kernel(pieces, eps, owner, size)

    monkeypatch.setattr(construction, "_band_energy", spy)
    return calls


def _assert_lockstep(calls, levels):
    # no level appears in two calls, and there are no more calls than levels
    seen = [set(level.tolist()) for level, _ in calls]
    assert sum(map(len, seen)) == len(set().union(*seen))
    assert 0 < len(calls) <= len(levels)


def test_batch_matches_lone_runs_field_for_field():
    # a threshold's band is one sum per kernel call, so the rest of the
    # batch moves no bit of it, also where many pieces make up each band
    groups = _groups()
    for form, sched in ((FORM, SCHED),
                        (_forty_cells(), FoldSchedule(3, 34, 1e-8))):
        batch = _identity_runs(form, groups, sched)
        for (f, a), run in zip(groups, batch):
            _assert_same_run(run, _identity_run(form, f, a, sched))
        stops = [run.levels[-1] for run in batch]
        assert len(set(stops)) >= 4, stops  # groups leave at different levels
        zero, flat = batch[-2], batch[-1]
        assert zero.levels == (sched.n_min,) and zero.converged
        assert not np.any(zero.energies)
        assert flat.levels[-1] == sched.n_max and not flat.converged


def test_exhausted_group_raises_as_it_would_alone():
    groups = _groups()
    f, a = groups[-1]
    with pytest.raises(ConvergenceError) as lone:
        _identity_run(FORM, f, a, SCHED).limits()
    runs = _identity_runs(FORM, groups, SCHED)
    for run in runs[:-1]:
        run.limits()
    with pytest.raises(ConvergenceError) as batched:
        runs[-1].limits()
    assert str(batched.value) == str(lone.value)
    assert batched.value.trace == lone.value.trace


@pytest.mark.parametrize("make,batch", [
    (_groups, lambda groups: _identity_runs(FORM, groups, SCHED)),
    (lambda: _mixed_groups(),
     lambda groups: _window_runs(FORM, groups, SCHED, SCHED.rel_tol)),
], ids=["identity", "mixed"])
def test_stopped_groups_send_no_pieces_to_the_kernel(monkeypatch, make,
                                                     batch):
    # a stopped group's rows must leave the kernel's work, not only its
    # results: at each level the batch sends exactly the pieces that the
    # lone runs of the groups still running there send
    calls = _spy(monkeypatch)

    def sent():
        levels = [level for level, _ in calls]
        if not levels:
            return {}
        at, count = np.unique(np.concatenate(levels), return_counts=True)
        return dict(zip(at.tolist(), count.tolist()))

    want = {}
    for group in make():
        calls.clear()
        batch([group])
        for n, count in sent().items():
            want[n] = want.get(n, 0) + count
    calls.clear()
    runs = batch(make())
    assert sent() == want
    _assert_lockstep(calls, SCHED.levels)
    stops = {run.levels[-1] for run in runs}
    assert len(stops) >= 3, stops  # so groups stop at several levels


@pytest.mark.parametrize("make,batch", [
    (_groups, lambda groups: _identity_runs(FORM, groups, SCHED)),
    (lambda: _mixed_groups(),
     lambda groups: _window_runs(FORM, groups, SCHED, SCHED.rel_tol)),
    (lambda: _late_groups(), lambda groups: _identity_runs(
        _late_form(), groups, SCHED)),
], ids=["identity", "mixed", "late"])
def test_no_row_reaches_the_kernel_past_its_group_s_stop(monkeypatch, make,
                                                         batch):
    # every piece's level lies between its threshold's first level and
    # its group's stop: a block never runs past the first level at which
    # a group could stop, nor a row before its own first level
    calls = _spy(monkeypatch)
    groups = make()
    runs = batch(groups)
    size = sum(run.thresholds.size for run in runs)
    stop = np.concatenate([np.full(run.thresholds.size, run.levels[-1])
                           for run in runs])
    first = np.concatenate([run.first for run in runs])
    for level, owner in calls:
        row = owner % size
        assert np.all(level <= stop[row])
        assert np.all(level >= first[row])
    assert any(np.unique(level).size > 1 for level, _ in calls)


def test_law_raises_for_first_failing_function_in_draw_order(monkeypatch):
    form = PLIntervalForm(3.0)
    sampler = PLSampler(seed=3)
    sets = dyadic_sets(3)
    # a schedule too shallow for some of the drawn functions
    monkeypatch.setattr(laws, "MEASURE_SCHEDULE",
                        FoldSchedule(n_min=6, n_max=32, rel_tol=1e-8))
    drawn = [fn for k in range(3) for u, v in [sampler.pl_pair(k)]
             for fn in (u, v, u + v, u - v)]
    first = None
    for i, fn in enumerate(drawn):
        try:
            set_masses(form, fn, sets)
        except ConvergenceError as exc:
            first = (i, exc)
            break
    assert first is not None and first[0] > 0  # an earlier function passes
    with pytest.raises(ConvergenceError) as got:
        law_measure_clarkson(form, sampler, trials=3, route="construction",
                             sets=sets)
    assert str(got.value) == str(first[1])
    assert got.value.trace == first[1].trace


def test_law_runs_in_lockstep(monkeypatch):
    # 3 trials x 4 functions share each level's band kernel call; a
    # regression to one level loop per function makes 12 sets of calls
    calls = _spy(monkeypatch)
    rep = law_measure_clarkson(PLIntervalForm(3.0), PLSampler(seed=11),
                               trials=3, route="construction",
                               sets=dyadic_sets(3))
    assert rep.passed
    _assert_lockstep(calls, MEASURE_SCHEDULE.levels)


def _mixed_groups():
    """Identity, g = f, sampler witnesses with flat pieces (thresholds on
    the flats included), a two-sided window, a witness so steep that its
    band falls below GEOM_TOL, a zero-energy f and a nearly flat f that
    exhausts SCHED."""
    sampler = PLSampler(seed=3)
    a = np.linspace(-0.1, 1.1, 23)
    flat2, flat12, flat16 = sampler.pl(2), sampler.pl(12), sampler.pl(16)
    on_flats = np.array([flat16.values[1], flat16.values[3], 0.0, 0.3])
    f0, f1, f4 = sampler.pl(1), sampler.pl(5), sampler.pl(6)
    return [
        (f0, [(None, None, a[::2])]),
        (f1, [(f1, None, np.linspace(*f1.value_range(), 9))]),
        (f4, [(flat2, None, np.sort(np.append(a[1::3], flat2.values[5]))),
              (flat12, None, [float(flat12.values[3]), 0.95])]),
        (f0, [(flat16, None, on_flats), (-flat16, None, -on_flats)]),
        (f1, [(flat2, np.array([-0.2, flat2.values[5]]),
               np.array([0.3, flat2.values[5]]))]),
        (f4, [(flat2 + PLFunction([0.0, 0.5, 0.5 + 1e-10, 1.0],
                                  [0.0, 0.0, 5.0, 5.0]), None, a[4:20:3])]),
        (PLFunction.constant(0.3), [(flat2, None, a[::4])]),
        (PLFunction([0.0, 0.5, 1.0], [0.0, 1e-3, 0.0]),
         [(flat16, None, on_flats)]),
    ]


def test_mixed_witness_batch_matches_lone_runs_field_for_field():
    groups = _mixed_groups()
    tol = SCHED.rel_tol
    batch = _window_runs(FORM, groups, SCHED, tol)
    for group, run in zip(groups, batch):
        lone = _window_runs(FORM, [group], SCHED, tol)[0]
        _assert_same_run(run, lone)
        if not lone.converged:
            with pytest.raises(ConvergenceError) as alone:
                lone.limits()
            with pytest.raises(ConvergenceError) as batched:
                run.limits()
            assert str(batched.value) == str(alone.value)
            assert batched.value.trace == alone.value.trace
    stops = [run.levels[-1] for run in batch]
    assert len(set(stops)) >= 3, stops
    zero, flat = batch[-2], batch[-1]
    assert zero.levels == (SCHED.n_min,) and not np.any(zero.energies)
    assert flat.levels[-1] == SCHED.n_max and not flat.converged


def test_image_density_runs_in_lockstep(monkeypatch):
    # every trial's levels share one band kernel call per level
    calls = _spy(monkeypatch)
    rep = law_image_density(PLIntervalForm(2.0), PLSampler(seed=11),
                            trials=4, probes=20, route="construction")
    assert rep.passed
    _assert_lockstep(calls, ATOM_SCHEDULE.levels)


def _late_form():
    return PLIntervalForm(2.0, weight=[(0.0, 0.3, 1.0), (0.3, 0.45, 0.0),
                                       (0.45, 1.0, 2.5)])


def _late_groups():
    """Random sampler functions at random thresholds, many of which start
    late, with a zero-energy f and a nearly flat f that exhausts SCHED."""
    rng = np.random.default_rng(29)
    sampler = PLSampler(seed=29)
    return [(sampler.pl(k), np.sort(rng.uniform(-0.1, 1.1, int(
        rng.integers(5, 80))))) for k in range(6)] + [
        (PLFunction.constant(0.3), np.linspace(0.0, 1.0, 5)),
        (PLFunction([0.0, 0.5, 1.0], [0.0, 1e-3, 0.0]),
         np.linspace(-0.1, 1.1, 7))]


@pytest.mark.parametrize("make,batch", [
    (lambda: _mixed_groups(),
     lambda groups: _window_runs(FORM, groups, SCHED, SCHED.rel_tol)),
    (lambda: _late_groups(), lambda groups: _identity_runs(
        _late_form(), groups, SCHED)),
], ids=["mixed", "late"])
def test_blocks_give_the_run_of_a_call_per_level(monkeypatch, make, batch):
    # a cap below zero puts every level in a block of its own: the run of
    # one kernel call per level, to the bit, traces of late rows included
    calls = _spy(monkeypatch)
    blocks = batch(make())
    assert any(np.unique(level).size > 1 for level, _ in calls)
    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(construction, "_BOUND_CHUNK", -1)
        per_level = batch(make())
        assert all(np.unique(level).size <= 1 for level, _ in calls)
    for got, want in zip(blocks, per_level):
        _assert_same_run(got, want)
    assert np.any(np.concatenate([run.first for run in blocks])
                  > SCHED.n_min)


def test_energy_measure_of_a_tame_function_takes_few_kernel_calls(
        monkeypatch):
    # a sampler function with 2 interior breakpoints at p = 1.5 and
    # resolution 512 runs 26 levels; one call per block of levels that no
    # threshold can stop in makes at most 4 calls of them
    calls = _spy(monkeypatch)
    f = PLSampler(seed=2032329983).nonzero_pl(755167)
    assert f.breakpoints.size == 4
    measure = energy_measure(PLIntervalForm(1.5), f, 512)
    assert len(measure.levels_used) == 26
    assert len(calls) <= 4, len(calls)
