import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penergy.pl import (
    GEOM_TOL,
    DomainMismatchError,
    IntervalSet,
    PieceCapError,
    PLFunction,
    PLMap,
    affine_combine,
    compose,
    cut,
    dyadic_mod,
    lattice,
    pl_product,
    pl_power_interp,
    shifted_cut,
    sublevel_set,
    triangle_fold,
    triangle_wave,
    _with_level_crossings,
)
from penergy.sampler import PLSampler
from references import shifted_cut_scalar

SAMPLER = PLSampler(seed=20260819)
GRID = np.random.default_rng(7).uniform(0.0, 1.0, size=1000)


def oracle_gap(fn, oracle_vals):
    return float(np.max(np.abs(fn.evaluate(GRID) - oracle_vals)))


# ---------------------------------------------------------------------------
# exactness against pointwise oracles


@pytest.mark.parametrize("idx", range(8))
def test_affine_combine_pointwise(idx):
    f, g = SAMPLER.pl_pair(idx)
    h = affine_combine(2.0, f, -0.5, g)
    assert oracle_gap(h, 2.0 * f(GRID) - 0.5 * g(GRID)) <= 1e-12


@pytest.mark.parametrize("idx", range(8))
@pytest.mark.parametrize("op", ["min", "max"])
def test_lattice_pointwise(idx, op):
    f, g = SAMPLER.pl_pair(idx)
    h = lattice(f, g, op)
    ref = np.minimum(f(GRID), g(GRID)) if op == "min" else np.maximum(f(GRID), g(GRID))
    assert oracle_gap(h, ref) <= 1e-12


@pytest.mark.parametrize("idx", range(8))
def test_cut_pointwise(idx):
    f = SAMPLER.pl(idx)
    a, b = -0.75, 0.4
    offset = min(max(0.0, a), b)
    h = cut(f, a, b)
    assert oracle_gap(h, np.clip(f(GRID), a, b) - offset) <= 1e-12


def test_cut_infinite_levels():
    f = SAMPLER.pl(3)
    pos = cut(f, 0.0, np.inf)
    assert oracle_gap(pos, np.maximum(f(GRID), 0.0)) <= 1e-12
    neg = cut(f, -np.inf, 0.0)
    assert oracle_gap(neg, np.minimum(f(GRID), 0.0)) <= 1e-12
    with pytest.raises(ValueError):
        cut(f, 0.5, 0.5)


@pytest.mark.parametrize("idx", range(6))
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_triangle_fold_pointwise(idx, n):
    f = SAMPLER.pl(idx)
    h = triangle_fold(f, n)
    assert oracle_gap(h, triangle_wave(f(GRID), n)) <= 1e-12


def _mod_cases(period, rng):
    """Random v of every magnitude up to 1.7e308, and the edge cases: +-0,
    +-period and its neighbours, subnormals, and multiples past 2^1024
    period, where v / period overflows."""
    edges = np.array([5e-324, 1e-310, 2.2e-308, np.nextafter(period, 0.0),
                      period, np.nextafter(period, 1.0), 2.0 * period])
    big = np.array([2.0 ** 1023 * period, 1e300, 1.7e308])
    v = np.concatenate((
        rng.uniform(-1.0, 1.0, 2000),
        rng.uniform(-1.0, 1.0, 2000) * period * 2.0 ** rng.integers(0, 60,
                                                                   2000),
        np.ldexp(rng.uniform(0.5, 1.0, 2000), rng.integers(-1074, 1024,
                                                           2000)),
        edges, big, [0.0]))
    return np.concatenate((v, -v))


@pytest.mark.parametrize("n", range(2, 62))
def test_dyadic_mod_is_np_mod_bit_for_bit(n):
    # periods 2^-1 to 2^-60; T_n's bits as those of min(m, period - m) on
    # np.mod
    period = 2.0 ** (1 - n)
    v = _mod_cases(period, np.random.default_rng(n))
    m = np.mod(v, period)
    assert dyadic_mod(v, period).tobytes() == m.tobytes()
    assert triangle_wave(v, n).tobytes() == \
        np.minimum(m, period - m).tobytes()
    # per-entry periods, as the band kernel passes them
    assert dyadic_mod(v, np.full(v.size, period)).tobytes() == m.tobytes()


def test_dyadic_mod_of_inf_and_nan_is_np_mod_nan():
    # both warn of the invalid value
    v = np.array([np.inf, -np.inf, np.nan, -np.nan])
    with np.errstate(invalid="ignore"):
        m, want = dyadic_mod(v, 0.25), np.mod(v, 0.25)
    assert np.all(np.isnan(m)) and m.tobytes() == want.tobytes()


def test_triangle_fold_identity_level_one():
    # T_1 folds the identity into the distance to the nearest integer:
    # a single tent peaking at 1/2
    h = triangle_fold(PLFunction.identity(), 1)
    assert np.allclose(h.breakpoints, [0.0, 0.5, 1.0])
    assert np.allclose(h.values, [0.0, 0.5, 0.0])


def test_triangle_fold_slopes_preserved():
    f = SAMPLER.pl(11)
    base = set(np.round(np.abs(f.slopes), 9))
    folded = triangle_fold(f, 4)
    for s in np.abs(folded.slopes):
        assert any(abs(s - b) < 1e-6 for b in base)
    assert folded.values.min() >= 0.0
    assert folded.values.max() <= 2.0 ** -4 + 1e-15


@pytest.mark.parametrize("idx", range(6))
@pytest.mark.parametrize("a,n", [(0.3, 3), (-0.2, 5), (0.9, 2)])
def test_shifted_cut_pointwise(idx, a, n):
    g = SAMPLER.pl(idx)
    h = shifted_cut(g, a, n)
    assert oracle_gap(h, shifted_cut_scalar(g(GRID), a, n)) <= 1e-12
    assert h.values.min() >= 0.0
    assert h.values.max() <= 2.0 ** -n + 1e-15


def test_shifted_cut_explicit_ramp():
    # level 2 ramp anchored at 1/4: plateau 1/4, zero from 1/2 on
    h = shifted_cut(PLFunction.identity(), 0.25, 2)
    pts = np.array([0.0, 0.25, 0.375, 0.5, 0.8])
    assert np.allclose(h.evaluate(pts), [0.25, 0.25, 0.125, 0.0, 0.0])


def test_shifted_cut_constant_witness():
    g = PLFunction.constant(-1.0)
    h = shifted_cut(g, -1.0, 4)
    assert np.allclose(h.values, 2.0 ** -4)


@pytest.mark.parametrize("idx", range(6))
def test_compose_pointwise(idx):
    f = SAMPLER.pl(idx)
    lo, hi = f.value_range()
    phi = PLMap([lo - 1.0, -0.1, 0.2, hi + 1.0], [0.5, -0.3, 0.4, 1.0])
    h = compose(phi, f)
    assert oracle_gap(h, np.interp(f(GRID), phi.breakpoints, phi.values)) <= 1e-12


def test_compose_domain_check():
    f = PLFunction.identity()
    phi = PLMap([0.0, 0.5], [0.0, 1.0])
    with pytest.raises(DomainMismatchError):
        compose(phi, f)


def test_compose_matches_direct_fold_and_cut():
    f = SAMPLER.pl(5)
    lo, hi = f.value_range()
    pad = 0.5
    tri = compose(PLMap.triangle(3, lo - pad, hi + pad), f)
    assert oracle_gap(tri, triangle_fold(f, 3).evaluate(GRID)) <= 1e-12
    cm = compose(PLMap.cut_map(-0.5, 0.25, lo - pad, hi + pad), f)
    assert oracle_gap(cm, cut(f, -0.5, 0.25).evaluate(GRID)) <= 1e-12


# ---------------------------------------------------------------------------
# products


def test_product_of_identities():
    f = PLFunction.identity()
    approx = pl_product(f, f, refine=2)
    # interpolating x^2 with knots every half piece leaves a midpoint gap of
    # exactly h^2/4 = 1/16
    assert approx.sup_error == pytest.approx(1.0 / 16.0)
    probe = np.linspace(0, 1, 641)
    true_gap = np.max(np.abs(approx.fn.evaluate(probe) - probe * probe))
    assert true_gap == pytest.approx(1.0 / 16.0, rel=1e-9)
    fine = pl_product(f, f, refine=64)
    assert fine.sup_error <= 1.0 / (16.0 * 32.0 * 32.0) + 1e-15


@pytest.mark.parametrize("idx", range(4))
def test_product_error_bound_holds(idx):
    f, g = SAMPLER.pl_pair(idx + 50)
    approx = pl_product(f, g, refine=8)
    gap = np.max(np.abs(approx.fn.evaluate(GRID) - f(GRID) * g(GRID)))
    assert gap <= approx.sup_error + 1e-12


def test_power_interp_tracks_truth():
    f = SAMPLER.pl(9)
    approx = pl_power_interp(f, 1.5, refine=32)
    gap = np.max(np.abs(approx.fn.evaluate(GRID) - np.abs(f(GRID)) ** 1.5))
    assert gap <= approx.sup_error * 1.5 + 1e-9


def test_refinement_of_a_narrow_cell_keeps_parts_apart():
    # breakpoints 2e-12 apart: split eight or sixteen ways, the parts of
    # that cell would be narrower than GEOM_TOL and rejected; it stays one
    # part, and the error bounds cover the parts as used
    f = PLFunction([0.0, 0.5, 0.5 + 2e-12, 1.0], [0.0, 1.0, 1.5, 0.0])
    g = PLFunction(f.breakpoints, [1.0, 0.0, 0.5, 0.0])
    probe = np.concatenate((GRID, 0.5 + np.linspace(0.0, 2e-12, 9)))
    product, power = pl_product(f, g, 8), pl_power_interp(f, 1.5)
    for approx in (product, power):
        x = approx.fn.breakpoints
        assert np.min(x[1:] - x[:-1]) > GEOM_TOL
    gap = np.max(np.abs(product.fn.evaluate(probe) - f(probe) * g(probe)))
    assert gap <= product.sup_error + 1e-12
    # |f'||g'| h^2 / 4 with h the narrow cell's whole width
    h = f.breakpoints[2] - 0.5
    assert product.sup_error == pytest.approx(0.25 * (0.5 / h) ** 2 * h * h,
                                              rel=1e-9)
    gap = np.max(np.abs(power.fn.evaluate(probe) - np.abs(f(probe)) ** 1.5))
    assert gap <= power.sup_error * 1.5 + 1e-9


# ---------------------------------------------------------------------------
# sublevel sets and the cell identity


def test_sublevel_simple_ramp():
    s = sublevel_set(PLFunction.identity(), 0.25)
    assert len(s) == 1
    assert s.components[0] == (0.0, 0.25)
    assert s.measure() == pytest.approx(0.25)


def _sublevel_reference(g, a):
    """{g <= a} by a node-by-node scan for runs of nodes at or below the
    level: the loop that sublevel_set's run search replaced."""
    grid, vals = _with_level_crossings(g, (a,))
    tol = GEOM_TOL * max(1.0, abs(a), float(np.max(np.abs(vals))))
    below = vals <= a + tol
    comps, i, n = [], 0, grid.size
    while i < n:
        if below[i]:
            j = i
            while j + 1 < n and below[j + 1]:
                j += 1
            comps.append((grid[i], grid[j]))
            i = j + 1
        else:
            i += 1
    return IntervalSet(comps)


@pytest.mark.parametrize("idx", range(40))
def test_sublevel_matches_run_scan_reference(idx):
    g = SAMPLER.pl(idx)
    lo, hi = g.value_range()
    # levels across the range and beyond it, and levels exactly on the
    # values at breakpoints, where runs start and end on a node
    levels = np.concatenate((np.linspace(lo - 0.1, hi + 0.1, 9),
                             g.values[np.linspace(0, g.values.size - 1, 4)
                                      .astype(int)]))
    for a in levels:
        assert sublevel_set(g, a).components \
            == _sublevel_reference(g, a).components


def test_sublevel_touching_point():
    f = PLFunction.tent(0.5)  # min value 0 at the endpoints only
    s = sublevel_set(f, 0.0)
    assert s.contains(0.0) and s.contains(1.0) and not s.contains(0.5)


@pytest.mark.parametrize("idx", range(8))
def test_sublevel_monotone_in_level(idx):
    g = SAMPLER.pl(idx)
    levels = np.linspace(-1.5, 1.5, 9)
    prev = IntervalSet.empty()
    for a in levels:
        cur = sublevel_set(g, a)
        assert prev.issubset(cur)
        prev = cur


@pytest.mark.parametrize("idx", range(6))
def test_cell_identity(idx):
    f, g = SAMPLER.pl_pair(idx + 20)
    a, n = 0.15, 5
    cell = lattice(triangle_fold(f, n), shifted_cut(g, a, n), "min")
    inside = sublevel_set(g, a)
    outside_of = sublevel_set(g, a + 2.0 ** -n)
    folded = triangle_fold(f, n)
    for t in GRID[:300]:
        v = cell.evaluate(t)
        if inside.contains(t):
            assert abs(v - folded.evaluate(t)) <= 1e-12
        if not outside_of.contains(t):
            assert abs(v) <= 1e-12


# ---------------------------------------------------------------------------
# interval sets


def test_intervalset_merge_and_measure():
    s = IntervalSet([(0.0, 0.5), (0.5, 0.8), (0.9, 1.0)])
    assert len(s) == 2
    assert s.measure() == pytest.approx(0.9)


def test_intervalset_ops():
    a = IntervalSet([(0.0, 0.5)])
    b = IntervalSet([(0.25, 0.75)])
    inter = IntervalSet.closed(0.25, 0.5)
    assert inter.measure() == pytest.approx(0.25)
    assert a.union(b).measure() == pytest.approx(0.75)
    assert inter.issubset(a) and inter.issubset(b)
    assert not a.issubset(b)


def test_intervalset_open_components_drop_points():
    p = IntervalSet([(0.3, 0.3)])
    assert p.contains(0.3) and p.measure() == 0.0


# ---------------------------------------------------------------------------
# caps and serialisation


def test_piece_cap_enforced():
    f = SAMPLER.pl(2)
    with pytest.raises(PieceCapError):
        triangle_fold(f, 24)


def test_plfunction_json_roundtrip():
    f = SAMPLER.pl(4)
    g = PLFunction.from_json(json.dumps({"x": f.breakpoints.tolist(),
                                         "y": f.values.tolist()}))
    assert np.array_equal(f.breakpoints, g.breakpoints)
    assert np.array_equal(f.values, g.values)


def test_domain_validation():
    with pytest.raises(ValueError):
        PLFunction([0.0, 0.5], [0.0, 1.0])
    with pytest.raises(ValueError):
        PLFunction([0.1, 1.0], [0.0, 1.0])


def test_out_of_order_breakpoints_rejected():
    with pytest.raises(ValueError, match="increasing order"):
        PLFunction([0.0, 0.7, 0.3, 1.0], [0.0, 2.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="increasing order"):
        PLMap([1.0, 0.0], [0.0, 1.0])
    # an exact duplicate still collapses to its first value
    f = PLFunction([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 3.0, 0.0])
    assert f.breakpoints.tolist() == [0.0, 0.5, 1.0]
    assert f.values.tolist() == [0.0, 1.0, 0.0]


def test_breakpoints_closer_than_geom_tol_rejected():
    # merging grids would drop the 1e-14 node and change f by O(1), so the
    # spacing is checked whether or not some breakpoint repeats
    with pytest.raises(ValueError, match="strictly increasing"):
        PLFunction([0.0, 1e-14, 1.0], [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        PLMap([0.0, 0.5, 0.5 + 1e-13, 1.0], [0.0, 1.0, 2.0, 1.0])


# ---------------------------------------------------------------------------
# property-based checks


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-1.5, 1.4), st.floats(0.01, 1.0))
def test_cut_property(idx, a, width):
    f = PLSampler(seed=99).pl(idx % 64)
    b = a + width
    h = cut(f, a, b)
    offset = min(max(0.0, a), b)
    pts = np.linspace(0, 1, 257)
    assert np.max(np.abs(h.evaluate(pts) - (np.clip(f(pts), a, b) - offset))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8))
def test_fold_range_property(idx, n):
    f = PLSampler(seed=3).pl(idx % 64)
    h = triangle_fold(f, n)
    assert h.values.min() >= -1e-15
    assert h.values.max() <= 2.0 ** -n + 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lattice_commutes_property(idx):
    s = PLSampler(seed=5)
    f, g = s.pl_pair(idx % 64)
    pts = np.linspace(0, 1, 257)
    assert np.max(np.abs(lattice(f, g, "min").evaluate(pts)
                         - lattice(g, f, "min").evaluate(pts))) <= 1e-12


@st.composite
def _pairs(draw):
    """Pairs in [-GEOM_TOL, 1 + GEOM_TOL], in any order: overlapping,
    degenerate, narrower than GEOM_TOL, or starting at most GEOM_TOL past
    the previous pair's end."""
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        if pairs and draw(st.booleans()):
            lo = pairs[-1][1] + draw(st.floats(0.0, GEOM_TOL))
        else:
            lo = draw(st.floats(-GEOM_TOL, 1.0 + GEOM_TOL))
        width = draw(st.one_of(st.just(0.0), st.floats(0.0, 2 * GEOM_TOL),
                               st.floats(0.0, 0.4)))
        lo = min(lo, 1.0 + GEOM_TOL)
        pairs.append((lo, min(lo + width, 1.0 + GEOM_TOL)))
    return draw(st.permutations(pairs))


def _in_pairs(pairs, x):
    """Membership of each x in the union of the closed pairs."""
    inside = np.zeros(x.shape, dtype=bool)
    for lo, hi in pairs:
        inside |= (lo <= x) & (x <= hi)
    return inside


@settings(max_examples=200, deadline=None)
@given(_pairs(), _pairs())
def test_intervalset_canonical_and_exact_property(a_pairs, b_pairs):
    a, b = IntervalSet(a_pairs), IntervalSet(b_pairs)
    for s, pairs in ((a, a_pairs), (b, b_pairs)):
        ends = [e for c in s.components for e in c]
        # sorted, inside [0, 1], and gaps wider than GEOM_TOL
        assert ends == sorted(ends) and all(0.0 <= e <= 1.0 for e in ends)
        assert all(nxt[0] > prev[1] + GEOM_TOL for prev, nxt
                   in zip(s.components, s.components[1:]))
        # merging bridges gaps of at most GEOM_TOL, one per input pair
        assert s.measure() <= sum(hi - lo for lo, hi in pairs) \
            + len(pairs) * GEOM_TOL
    # a fine grid with every end of both sets and the midpoints between
    # consecutive ends, so every gap of one set inside the other shows
    ends = np.unique([e for s in (a, b) for c in s.components for e in c]
                     + [0.0, 1.0])
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 1001), ends,
                                  0.5 * (ends[:-1] + ends[1:]))))
    for s, pairs in ((a, a_pairs), (b, b_pairs)):
        inside = np.array([s.contains(float(t)) for t in x])
        assert np.array_equal(inside, _in_pairs(s.components, x))
        # every input point is in, and every point in lies within GEOM_TOL
        # of an input pair
        clamped = np.clip(np.asarray(pairs, dtype=float).reshape(-1, 2),
                          0.0, 1.0)
        assert np.all(inside[_in_pairs(clamped, x)])
        near = _in_pairs([(lo - GEOM_TOL, hi + GEOM_TOL)
                          for lo, hi in clamped], x)
        assert np.all(near[inside])
    in_a, in_b = _in_pairs(a.components, x), _in_pairs(b.components, x)
    assert a.issubset(b) == bool(np.all(in_b[in_a]))
    assert b.issubset(a) == bool(np.all(in_a[in_b]))
    assert a.issubset(a.union(b)) and b.issubset(a.union(b))
