"""The small-array code of pl, forms and sampler against the code it
replaced.

The functions in the first section are the earlier versions, built on
``np.diff``, ``np.any``/``np.all``, ``np.clip`` and numpy scalars; they are
the reference.  Every result of the current code must match theirs to the
byte (``tobytes``), and every malformed input must raise the same exception
type with the same message.  The intended differences: an empty
breakpoint list, which the earlier ``PLFunction`` met with an
``IndexError`` and which is now the length error, and a cell narrower
than 2 ``refine`` GEOM_TOL, which the earlier ``refined_grid`` split into
parts that ``PLFunction`` could reject and which now takes fewer parts.
"""

import math

import numpy as np
from hypothesis import example, given, reject, settings, strategies as st

from penergy.forms import Cells, PLIntervalForm, spans, step_at
from penergy.pl import (
    GEOM_TOL,
    MAX_FOLD_LEVEL,
    SLOPE_MERGE_TOL,
    IntervalSet,
    PLFunction,
    PLMap,
    ProductApprox,
    _crossings,
    _merge_sorted_grids,
    _prune_collinear,
    _with_level_crossings,
    pl_power_interp,
    pl_product,
    refined_grid,
    sublevel_set,
    triangle_fold,
    triangle_wave,
)
from penergy.sampler import MAX_SLOPE, MIN_GAP, PLSampler


# ---------------------------------------------------------------------------
# the earlier code


def old_merge_sorted_grids(*grids):
    merged = np.sort(np.concatenate(grids))
    if merged.size == 0:
        return merged
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(merged), GEOM_TOL, out=keep[1:])
    return merged[keep]


def old_prune_collinear(x, y):
    if x.size <= 2:
        return x, y
    dx = np.diff(x)
    slopes = np.diff(y) / dx
    interior_redundant = np.abs(np.diff(slopes)) < SLOPE_MERGE_TOL
    keep = np.ones(x.size, dtype=bool)
    keep[1:-1] = ~interior_redundant
    return x[keep], y[keep]


def _old_float_array(a):
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional array")
    return arr


def old_base_arrays(breakpoints, values):
    """The (breakpoints, values) the earlier PLMap stored."""
    x = _old_float_array(breakpoints)
    y = _old_float_array(values)
    if x.size != y.size or x.size < 2:
        raise ValueError("need matching breakpoint/value arrays of length >= 2")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("breakpoints and values must be finite")
    dx = np.diff(x)
    if np.any(dx < 0):
        raise ValueError("breakpoints must be in increasing order")
    if np.any((dx > 0) & (dx <= GEOM_TOL)):
        raise ValueError("breakpoints must be strictly increasing, "
                         f"more than {GEOM_TOL:g} apart")
    if np.any(dx == 0):
        x, idx = np.unique(x, return_index=True)
        y = y[idx]
    return x.copy(), y.copy()


def old_fn_arrays(breakpoints, values):
    """The (breakpoints, values) the earlier PLFunction stored."""
    x = _old_float_array(breakpoints)
    if abs(x[0]) > GEOM_TOL or abs(x[-1] - 1.0) > GEOM_TOL:
        raise ValueError("domain must be exactly [0, 1]")
    x, y = old_base_arrays(x, values)
    if x[0] != 0.0 or x[-1] != 1.0:
        x = x.copy()
        x[0], x[-1] = 0.0, 1.0
    return x, y


def old_fn(breakpoints, values):
    return PLFunction(*old_fn_arrays(breakpoints, values))


def old_slopes(f):
    return np.diff(f.values) / np.diff(f.breakpoints)


def old_with_level_crossings(f, levels):
    x, y = f.breakpoints, f.values
    extra = [_crossings(x, y - lev) for lev in levels if np.isfinite(lev)]
    if not any(e.size for e in extra):
        return x, y
    grid = old_merge_sorted_grids(x, *extra)
    return grid, f.evaluate(grid)


def old_sublevel_set(g, a):
    if np.isnan(a):
        raise ValueError("a sublevel set's level must not be NaN")
    grid, vals = old_with_level_crossings(g, (a,))
    tol = GEOM_TOL * max(1.0, abs(a), float(np.max(np.abs(vals))))
    step = np.diff((vals <= a + tol).astype(np.int8), prepend=0, append=0)
    return IntervalSet(zip(grid[step[:-1] == 1], grid[step[1:] == -1]))


def old_triangle_fold(f, n):
    eps = 2.0 ** (-n)
    x, y = f.breakpoints, f.values
    v0, v1 = y[:-1], y[1:]
    k_lo = np.floor(np.minimum(v0, v1) / eps).astype(np.int64) + 1
    k_hi = np.ceil(np.maximum(v0, v1) / eps).astype(np.int64) - 1
    counts = np.maximum(0, k_hi - k_lo + 1)
    xs_parts = [x[:1]]
    ys_parts = [triangle_wave(y[:1], n)]
    slopes = (v1 - v0) / np.diff(x)
    for i in range(x.size - 1):
        if counts[i] > 0:
            ks = np.arange(k_lo[i], k_hi[i] + 1)
            nodes = x[i] + (ks * eps - v0[i]) / slopes[i]
            tvals = np.where(ks % 2 == 1, eps, 0.0)
            if slopes[i] < 0:
                nodes = nodes[::-1]
                tvals = tvals[::-1]
            ok = (nodes > x[i] + GEOM_TOL) & (nodes < x[i + 1] - GEOM_TOL)
            xs_parts.append(nodes[ok])
            ys_parts.append(tvals[ok])
        xs_parts.append(x[i + 1:i + 2])
        ys_parts.append(triangle_wave(y[i + 1:i + 2], n))
    return old_fn(*old_prune_collinear(np.concatenate(xs_parts),
                                       np.concatenate(ys_parts)))


def old_refined_grid(grids, refine):
    base = old_merge_sorted_grids(*grids)
    t = np.linspace(0.0, 1.0, refine + 1)[:-1]
    cells = base[:-1][:, None] + np.diff(base)[:, None] * t[None, :]
    return base, np.append(cells.ravel(), base[-1])


def old_pl_product(f, g, refine):
    base, grid = old_refined_grid((f.breakpoints, g.breakpoints), refine)
    prod = old_fn(*old_prune_collinear(grid, f.evaluate(grid)
                                       * g.evaluate(grid)))
    h = np.diff(base) / refine
    fs = np.diff(f.evaluate(base)) / np.diff(base)
    gs = np.diff(g.evaluate(base)) / np.diff(base)
    err = float(np.max(np.abs(fs * gs) * h * h / 4.0)) if base.size > 1 else 0.0
    return ProductApprox(prod, err)


def old_pl_power_interp(f, q, refine):
    x = f.breakpoints
    _, grid = old_refined_grid((x, _crossings(x, f.values)), refine)
    approx = old_fn(*old_prune_collinear(grid,
                                         np.abs(f.evaluate(grid)) ** q))
    probe_t = np.linspace(0.0, 1.0, 11)[1:-1]
    probes = (grid[:-1][:, None]
              + np.diff(grid)[:, None] * probe_t[None, :]).ravel()
    err = float(np.max(np.abs(np.abs(f.evaluate(probes)) ** q
                              - approx.evaluate(probes)))) if probes.size else 0.0
    return ProductApprox(approx, err)


def old_step_at(bounds, values, x):
    idx = np.searchsorted(bounds, x, side="right") - 1
    return values[np.minimum(np.maximum(idx, 0), values.size - 1)]


def old_spans(targets):
    raw = np.array([(i, c[0], c[1]) for i, t in enumerate(targets)
                    for c in (t.components if isinstance(t, IntervalSet)
                              else (t,))], dtype=float).reshape(-1, 3)
    if np.isnan(raw).any():
        raise ValueError("a target's ends must not be NaN")
    lo, hi = np.maximum(raw[:, 1], 0.0), np.minimum(raw[:, 2], 1.0)
    keep = hi > lo
    return raw[keep, 0].astype(int), lo[keep], hi[keep]


def old_cells(form, *fns, nodes=()):
    """(nodes, width, mid, weight) of the earlier Cells."""
    grid = old_merge_sorted_grids(*(f.breakpoints for f in fns),
                                  form.weight_bounds)
    if nodes:
        extra = np.concatenate(nodes)
        right = np.minimum(np.maximum(np.searchsorted(grid, extra), 1),
                           grid.size - 1)
        gap = np.minimum(extra - grid[right - 1], grid[right] - extra)
        grid = old_merge_sorted_grids(grid, extra[gap > GEOM_TOL])
    mid = 0.5 * (grid[:-1] + grid[1:])
    weight = old_step_at(form.weight_bounds, form.weight_values, mid)
    return grid, np.diff(grid), mid, weight


def old_integrate(cell_nodes, per_cell, targets):
    cum = np.concatenate(([0.0], np.cumsum(per_cell)))
    owner, lo, hi = old_spans(targets)
    out = np.zeros(len(targets))
    np.add.at(out, owner, np.interp(hi, cell_nodes, cum)
              - np.interp(lo, cell_nodes, cum))
    return out


def old_breakpoints(sampler, rng):
    n_interior = int(rng.integers(1, sampler.max_breaks - 1))
    for _ in range(64):
        pts = np.sort(rng.uniform(0.0, 1.0, size=n_interior))
        grid = np.concatenate(([0.0], pts, [1.0]))
        if np.all(np.diff(grid) >= MIN_GAP):
            return grid
        n_interior = max(1, n_interior - 1)
    return np.linspace(0.0, 1.0, n_interior + 2)


def old_draw(sampler, index, allow_flat=None):
    rng = sampler._rng(index, tag=1)
    x = old_breakpoints(sampler, rng)
    vals = np.empty_like(x)
    vals[0] = rng.uniform(-1.5, 1.5)
    flat_ok = (sampler.min_slope == 0.0) if allow_flat is None else allow_flat
    for i, dx in enumerate(np.diff(x)):
        if flat_ok and rng.uniform() < sampler.flat_prob:
            s = 0.0
        else:
            mag = rng.uniform(max(sampler.min_slope, 1e-3), MAX_SLOPE)
            s = mag if rng.uniform() < 0.5 else -mag
        v = vals[i] + s * dx
        if abs(v) > 2.0:
            v = vals[i] - s * dx
        vals[i + 1] = np.clip(v, -2.0, 2.0)
    return PLFunction(x, vals)


def old_nonzero_draw(sampler, index):
    for k in range(32):
        f = old_draw(sampler, index * 37 + k,
                     allow_flat=(k == 0 and sampler.flat_prob > 0))
        if np.any(np.abs(np.diff(f.values)) > 1e-9):
            return f
    raise RuntimeError("sampler failed to produce a nonflat function")


# ---------------------------------------------------------------------------
# inputs: exact repeats, nodes GEOM_TOL apart, non-finite values, flat and
# collinear runs


_SPECIAL_X = [0.0, -0.0, 1.0, 0.5, 0.5 + GEOM_TOL, 0.5 + GEOM_TOL / 2,
              0.5 + 2 * GEOM_TOL, GEOM_TOL, GEOM_TOL / 2, -GEOM_TOL / 2,
              1.0 - GEOM_TOL / 2, 1.0 + GEOM_TOL / 2, math.nan, math.inf,
              -math.inf]
_SPECIAL_Y = [0.0, -0.0, 1.0, 1e300, math.nan, math.inf, -math.inf]
_X = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
               st.sampled_from(_SPECIAL_X))
_Y = st.one_of(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
               st.sampled_from(_SPECIAL_Y))


def _values(draw, x, y_strategy):
    kind = draw(st.sampled_from(["free", "flat", "line", "bent line"]))
    if kind == "free":
        return draw(st.lists(y_strategy, min_size=len(x), max_size=len(x)))
    if kind == "flat":
        return [draw(y_strategy)] * len(x)
    a, b = draw(st.floats(-4.0, 4.0)), draw(st.floats(-2.0, 2.0))
    y = [a * t + b for t in x]
    if kind == "bent line" and y:  # a collinear run, then one kink
        y[-1] += draw(st.floats(-1.0, 1.0))
    return y


@st.composite
def _raw_pl(draw):
    """Breakpoint and value lists, often but not always admissible."""
    inner = draw(st.lists(_X, max_size=7))
    if draw(st.booleans()):
        inner = sorted(inner)
    if inner and draw(st.booleans()):  # an exact repeat
        i = draw(st.integers(0, len(inner) - 1))
        inner.insert(i, inner[i])
    x = [0.0, *inner, 1.0] if draw(st.integers(0, 5)) else inner
    y = _values(draw, x, _Y)
    if draw(st.integers(0, 9)) == 0:
        y = y[:-1]
    return x, y


@st.composite
def _functions(draw):
    """Admissible functions with repeats, nodes 2 GEOM_TOL apart, and flat
    and collinear runs; values stay moderate, so products stay finite."""
    inner = draw(st.lists(st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([0.5, 0.5 + 2 * GEOM_TOL])),
        max_size=6))
    if inner and draw(st.booleans()):  # an exact repeat
        inner.append(inner[0])
    x = sorted([0.0, *inner, 1.0])
    y = _values(draw, x, st.one_of(st.floats(-2.0, 2.0),
                                   st.sampled_from([0.0, -0.0, 1.0])))
    try:
        return PLFunction(x, y)
    except ValueError:  # two random nodes closer than GEOM_TOL
        reject()


def _outcome(fn, *args):
    """The arrays a call returns, as bytes, or the exception it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return tuple(np.asarray(a).tobytes() for a in out)


_FUNCTIONS = _functions()


def _fn_bytes(f):
    return f.breakpoints.tobytes(), f.values.tobytes()


def _approx_bytes(approx):
    return (*_fn_bytes(approx.fn), approx.sup_error)


def _set_bytes(s):
    return np.array(s.components, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# pl


@settings(max_examples=300, deadline=None)
@given(_raw_pl())
@example(([0.0, GEOM_TOL, 1.0], [0.0, 1.0, 2.0]))  # a gap of exactly GEOM_TOL
@example(([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 3.0, 0.0]))
def test_constructors_keep_checks_messages_and_bits(xy):
    x, y = xy
    got = _outcome(lambda: (lambda m: (m.breakpoints, m.values))(
        PLMap(x, y)))
    assert got == _outcome(old_base_arrays, x, y)
    got = _outcome(lambda: (lambda f: (f.breakpoints, f.values))(
        PLFunction(x, y)))
    if len(x) == 0:
        # the one mend: the earlier code read x[0] before any length check
        assert got == (ValueError, "need matching breakpoint/value arrays "
                                   "of length >= 2")
    else:
        assert got == _outcome(old_fn_arrays, x, y)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_X.filter(math.isfinite), max_size=6)
                .map(lambda v: np.array(v, dtype=float)),
                min_size=1, max_size=3))
def test_merge_sorted_grids_matches(grids):
    assert (_merge_sorted_grids(*grids).tobytes()
            == old_merge_sorted_grids(*grids).tobytes())


def _split_whole(grids, refine):
    """Whether refined_grid splits every cell of the merged grids into
    ``refine`` parts, as the earlier code did."""
    base = old_merge_sorted_grids(*grids)
    return bool(((base[1:] - base[:-1]) >= 2 * refine * GEOM_TOL).all())


@settings(max_examples=150, deadline=None)
@given(_FUNCTIONS, _FUNCTIONS)
def test_prune_slopes_and_grid_ops_match(f, g):
    grid = old_merge_sorted_grids(f.breakpoints, g.breakpoints)
    vals = f.evaluate(grid) - 0.5 * g.evaluate(grid)
    got, want = _prune_collinear(grid, vals), old_prune_collinear(grid, vals)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert f.slopes.tobytes() == old_slopes(f).tobytes()
    bp = (f.breakpoints, g.breakpoints)
    crossings = (f.breakpoints, _crossings(f.breakpoints, f.values))
    for grids, refine, got, want in (
            (bp, 3, lambda: refined_grid(bp, 3),
             lambda: old_refined_grid(bp, 3)),
            (bp, 4, lambda: _approx_bytes(pl_product(f, g, 4)),
             lambda: _approx_bytes(old_pl_product(f, g, 4))),
            (crossings, 3, lambda: _approx_bytes(pl_power_interp(f, 1.5, 3)),
             lambda: _approx_bytes(old_pl_power_interp(f, 1.5, 3)))):
        if _split_whole(grids, refine):
            assert _outcome(got) == _outcome(want)
        else:  # fewer parts on a narrow cell: no part below GEOM_TOL
            got()
    for n in (1, 4, MAX_FOLD_LEVEL // 5):
        assert _outcome(lambda: _fn_bytes(triangle_fold(f, n))) \
            == _outcome(lambda: _fn_bytes(old_triangle_fold(f, n)))


@settings(max_examples=150, deadline=None)
@given(_FUNCTIONS, st.data())
def test_sublevel_sets_match(f, data):
    # levels at the nodes, between them, outside the range and non-finite
    levels = [*f.values.tolist(), -0.0, math.inf, -math.inf, math.nan,
              data.draw(st.floats(-3.0, 3.0))]
    for a in levels:
        got = _outcome(lambda: (_set_bytes(sublevel_set(f, a)),))
        want = _outcome(lambda: (_set_bytes(old_sublevel_set(f, a)),))
        assert got == want, a
    phi_kinks = data.draw(st.lists(st.floats(-3.0, 3.0), max_size=3))
    got = _with_level_crossings(f, np.array(phi_kinks + [math.inf]))
    want = old_with_level_crossings(f, np.array(phi_kinks + [math.inf]))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# ---------------------------------------------------------------------------
# forms


_END = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(
    [0.0, -0.0, 1.0, -1e-300, math.nan, math.inf, -math.inf]))
_TARGET = st.one_of(
    st.tuples(_END, _END),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
             .map(sorted), max_size=3).map(IntervalSet))
_FORMS = st.sampled_from([
    PLIntervalForm(2.0),
    PLIntervalForm(1.5, weight=[(0.0, 0.3, 2.0), (0.3, 1.0, 0.5)]),
    PLIntervalForm(3.0, weight=[(0.0, 0.25, 0.0), (0.25, 0.5, 1.0),
                                (0.5, 1.0 - 1e-13, 3.0),
                                (1.0 - 1e-13, 1.0, 1.0)]),
])


@settings(max_examples=150, deadline=None)
@given(_FORMS, _FUNCTIONS, _FUNCTIONS,
       st.lists(st.floats(0.0, 1.0), max_size=4), st.data())
def test_cells_and_integrals_match(form, f, g, extra, data):
    nodes = (np.array(extra),) if extra else ()
    cells = Cells(form, f, g, nodes=nodes)
    want = old_cells(form, f, g, nodes=nodes)
    assert [a.tobytes() for a in (cells.nodes, cells.width, cells.mid,
                                  cells.weight)] \
        == [a.tobytes() for a in want]
    assert cells.slope(f).tobytes() \
        == (np.diff(f.evaluate(want[0])) / want[1]).tobytes()
    for at in (cells.nodes, cells.mid, np.array([-1.0, 2.0])):
        assert step_at(form.weight_bounds, form.weight_values, at).tobytes() \
            == old_step_at(form.weight_bounds, form.weight_values,
                           at).tobytes()
    # per-cell parts of either sign of zero, so -0.0 sums meet 0.0
    per_cell = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0)),
        min_size=cells.width.size, max_size=cells.width.size)))
    for targets in (data.draw(st.lists(_TARGET, min_size=1, max_size=1)),
                    data.draw(st.lists(_TARGET, max_size=6))):
        got = _outcome(lambda: spans(targets))
        assert got == _outcome(old_spans, targets)
        got = _outcome(lambda: (cells.integrate(per_cell, targets),))
        assert got == _outcome(
            lambda: (old_integrate(cells.nodes, per_cell, targets),))


def test_integrate_turns_a_negative_zero_part_into_zero():
    cells = Cells(PLIntervalForm(2.0), PLFunction.identity())
    for targets in ([(0.2, 0.6)], [(0.2, 0.6), (0.0, 0.1), (0.5, 0.5)]):
        out = cells.integrate(np.array([-0.0]), targets)
        assert out.tobytes() == np.zeros(len(targets)).tobytes()


# ---------------------------------------------------------------------------
# sampler


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 10 ** 6), st.integers(3, 14),
       st.sampled_from([0.0, 0.5, 3.9]),
       st.sampled_from([None, True, False]))
def test_draws_match(seed, index, max_breaks, min_slope, allow_flat):
    sampler = PLSampler(seed, max_breaks, min_slope)
    assert _fn_bytes(sampler.pl(index, allow_flat)) \
        == _fn_bytes(old_draw(sampler, index, allow_flat))
    assert _fn_bytes(sampler.nonzero_pl(index)) \
        == _fn_bytes(old_nonzero_draw(sampler, index))
    rng, old_rng = sampler._rng(index, 1), sampler._rng(index, 1)
    assert np.array(sampler._breakpoints(rng)).tobytes() \
        == old_breakpoints(sampler, old_rng).tobytes()
