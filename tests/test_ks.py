"""Kernel energies against calculus oracles and a brute-force double sum.

The linear profile is the workhorse: the PI normalization makes its J
exactly 1/(p+1) in the continuum at every scale, so deviations isolate
the two quadrature effects (shell truncation at the open-ball cutoff,
boundary layer of width r).  Radii that are half-integer multiples of
the spacing sit between lattice shells and leave only the boundary
layer; integer-aligned radii shave half a shell and are tested against
the discrete refinement of the oracle instead.
"""

import math

import numpy as np
import pytest

from penergy.ks import (
    CanonicalComparison,
    KSKernel,
    SampledSpace,
    _membership,
    ball_measure,
    check_weak_monotonicity,
    default_r_sequence,
    ks_energy,
    ks_limit_scan,
    ks_vs_canonical,
    profile_values,
)
from penergy.pl import IntervalSet, PLFunction

GRID = SampledSpace.interval(2000)
LINEAR = GRID.points.copy()


def brute_ks(space, u, kernel):
    """O(N^2) literal double sum, the oracle for ks_energy."""
    acc = 0.0
    for i in range(space.points.shape[0]):
        x = space.points[i]
        if space.kind == "interval" and kernel.restriction is not None \
                and not kernel.restriction.contains(float(x)):
            continue
        dist = space.distances_from(x)
        mask = dist < kernel.r
        mass = space.weights[mask].sum()
        inner = np.sum(np.abs(u[i] - u[mask]) ** kernel.p
                       * space.weights[mask])
        acc += inner / mass * space.weights[i]
    return acc / kernel.r ** kernel.p


def per_radius_ks(space, u, kernel):
    """One radius at a time, every offset's power taken afresh: the loop
    the batched scan kernels must reproduce to the last bit."""
    h = space.spacing
    p = kernel.p
    acc = 0.0
    if space.kind == "interval":
        n = u.size
        k_max = min(max(math.ceil(kernel.r / h) - 1, 0), n - 1)
        if k_max == 0:
            return 0.0
        idx = np.arange(n)
        counts = (np.minimum(idx + k_max, n - 1)
                  - np.maximum(idx - k_max, 0) + 1)
        side = _membership(space, kernel.restriction) / (counts * h)
        for k in range(1, k_max + 1):
            dp = np.abs(u[k:] - u[:-k]) ** p
            acc += float(np.sum(dp * (side[k:] + side[:-k])))
        return acc * h * h / kernel.r ** p
    n_side = space.side
    k_max = min(max(math.ceil(kernel.r / h) - 1, 0), n_side // 2)
    rng = np.arange(-k_max, k_max + 1)
    grid = u.reshape(n_side, n_side)
    count = 0
    for a in rng:
        for b in rng:
            wa = min(abs(a), n_side - abs(a)) * h
            wb = min(abs(b), n_side - abs(b)) * h
            if (a, b) == (0, 0) \
                    or not np.sqrt(wa * wa + wb * wb) < kernel.r:
                continue
            shifted = np.roll(np.roll(grid, a, axis=0), b, axis=1)
            acc += float(np.sum(np.abs(grid - shifted) ** p))
            count += 1
    if count == 0:
        return 0.0
    w = h * h
    return acc * w * w / ((count + 1) * w * kernel.r ** p)


# -- spaces -----------------------------------------------------------------


def test_interval_space_shape():
    assert GRID.points.shape == (2000,)
    assert GRID.spacing == pytest.approx(5e-4)
    assert GRID.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(GRID.points) > 0)


def test_torus_space_shape():
    tor = SampledSpace.torus(16)
    assert tor.points.shape == (256, 2)
    assert tor.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert tor.side == 16


def test_space_bounds():
    with pytest.raises(ValueError):
        SampledSpace.interval(0)
    with pytest.raises(ValueError):
        SampledSpace.interval(100_001)
    with pytest.raises(ValueError):
        SampledSpace.torus(1)
    with pytest.raises(ValueError):
        SampledSpace.torus(513)


def test_space_validation():
    with pytest.raises(ValueError):
        SampledSpace("interval", [0.0, 1.0], [0.5], 1.0)
    with pytest.raises(ValueError):
        SampledSpace("interval", [0.0, 1.0], [0.5, -0.5], 1.0)
    with pytest.raises(ValueError):
        SampledSpace("interval", [0.0, 1.0], [0.0, 0.0], 1.0)


# -- ball measure -----------------------------------------------------------


def test_ball_measure_interior():
    r = 0.05
    got = ball_measure(GRID, 0.5, r)
    assert abs(got - 2 * r) <= 2 * GRID.spacing


def test_ball_measure_endpoint():
    r = 0.05
    got = ball_measure(GRID, 0.0, r)
    assert abs(got - r) <= 2 * GRID.spacing


def test_ball_measure_whole_space():
    assert ball_measure(GRID, 0.3, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_ball_measure_open():
    # point at distance exactly r stays outside the open ball
    space = SampledSpace("interval", [0.0, 0.5, 1.0],
                         [1.0, 1.0, 1.0], 0.5)
    assert ball_measure(space, 0.0, 0.5) == 1.0
    assert ball_measure(space, 0.0, 0.5000001) == 2.0


def test_ball_measure_torus_wraps():
    tor = SampledSpace.torus(32)
    # ball around a corner point picks up mass from all four quadrants
    got = ball_measure(tor, (0.0, 0.0), 0.2)
    assert got == pytest.approx(math.pi * 0.04, rel=0.05)


# -- kernel -----------------------------------------------------------------


def test_kernel_validation():
    with pytest.raises(ValueError):
        KSKernel(0.0, 2.0)
    with pytest.raises(ValueError):
        KSKernel(0.1, 1.0)
    with pytest.raises(ValueError):
        KSKernel(0.1, 2.0, kind="heat")


# -- ks_energy --------------------------------------------------------------


def test_constant_profile_zero():
    assert ks_energy(GRID, np.full(2000, 3.7), KSKernel(0.05, 2.0)) == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        ks_energy(GRID, np.zeros(7), KSKernel(0.05, 2.0))
    bad = LINEAR.copy()
    bad[11] = np.nan
    with pytest.raises(ValueError):
        ks_energy(GRID, bad, KSKernel(0.05, 2.0))


def test_matches_brute_sum():
    rng = np.random.default_rng(7)
    space = SampledSpace.interval(180)
    u = rng.normal(size=180)
    for restriction in (None, IntervalSet.closed(0.2, 0.7)):
        kernel = KSKernel(0.07, 2.5, restriction)
        fast = ks_energy(space, u, kernel)
        assert fast == pytest.approx(brute_ks(space, u, kernel), rel=1e-12)


def test_matches_brute_sum_torus():
    rng = np.random.default_rng(3)
    tor = SampledSpace.torus(12)
    u = rng.normal(size=144)
    kernel = KSKernel(0.2, 2.0)
    assert ks_energy(tor, u, kernel) == pytest.approx(
        brute_ks(tor, u, kernel), rel=1e-12)


def test_linear_profile_between_shells():
    # radii halfway between lattice shells leave only the O(r) boundary
    # layer, the regime the 1/(p+1) oracle is quoted for
    h = GRID.spacing
    for p, m in [(2.0, 100), (3.0, 40)]:
        J = ks_energy(GRID, LINEAR, KSKernel((m + 0.5) * h, p))
        assert abs(J - 1 / (p + 1)) <= 0.02 / (p + 1)


def test_linear_profile_aligned_shell():
    # r an exact multiple of the spacing is the worst case: the open
    # ball stops half a shell short, scaling J by ((r - h/2) / r)^p on
    # top of the boundary layer.  The continuum oracle is recovered
    # once that discrete factor is divided out.
    h = GRID.spacing
    for p, r in [(2.0, 0.05), (3.0, 0.02)]:
        J = ks_energy(GRID, LINEAR, KSKernel(r, p))
        shells = int(np.ceil(r / h)) - 1
        shaved = ((shells + 0.5) * h / r) ** p
        assert J < 1 / (p + 1)
        assert abs(J / shaved - 1 / (p + 1)) <= 0.02 / (p + 1)


def test_homogeneity():
    rng = np.random.default_rng(11)
    u = rng.normal(size=2000)
    for p in (1.5, 2.0, 3.0):
        J1 = ks_energy(GRID, u, KSKernel(0.04, p))
        Ja = ks_energy(GRID, 2.3 * u, KSKernel(0.04, p))
        assert Ja == pytest.approx(2.3 ** p * J1, rel=1e-12)


def test_restriction_monotone():
    rng = np.random.default_rng(13)
    u = rng.normal(size=2000)
    sets = [IntervalSet.closed(0.1, 0.3), IntervalSet.closed(0.1, 0.7),
            IntervalSet.full()]
    vals = [ks_energy(GRID, u, KSKernel(0.05, 2.0, s)) for s in sets]
    assert vals[0] <= vals[1] <= vals[2]
    assert ks_energy(GRID, u, KSKernel(0.05, 2.0, None)) \
        == pytest.approx(vals[2], rel=1e-12)


def test_normal_contraction():
    rng = np.random.default_rng(17)
    u = rng.normal(size=2000)
    clipped = np.clip(u, 0.0, 0.4)
    for p in (1.5, 2.0, 3.0):
        kernel = KSKernel(0.03, p)
        assert ks_energy(GRID, clipped, kernel) \
            <= ks_energy(GRID, u, kernel) * (1 + 1e-12)


def test_linear_deviation_is_order_r():
    # |J(r) - 1/(p+1)| <= c r with a stable fitted c; the ratio staying
    # bounded across a 5x range of scales is what separates an O(r)
    # boundary layer from O(1) bias
    rs = default_r_sequence(GRID, count=6, r_max=0.05)
    devs = np.array([abs(ks_energy(GRID, LINEAR, KSKernel(float(r), 2.0))
                         - 1 / 3) for r in rs])
    coeffs = devs / rs
    assert coeffs.max() <= 1.0
    assert coeffs.max() <= 3.0 * coeffs.min()


# -- scans ------------------------------------------------------------------


def test_scan_validation():
    with pytest.raises(ValueError):
        ks_limit_scan(GRID, LINEAR, 2.0, [0.01, 0.02])
    with pytest.raises(ValueError):
        ks_limit_scan(GRID, LINEAR, 2.0, [0.05])
    with pytest.raises(ValueError):
        ks_limit_scan(GRID, LINEAR, 2.0, [0.05, 1e-4])


MIXED = IntervalSet([(0.05, 0.2, True, True), (0.3, 0.45, False, False),
                     (0.5, 0.62, True, False), (0.7, 0.81, False, True),
                     (0.9, 0.9, True, True)])

BATCHED_SCANS = {
    "interval": (SampledSpace.interval(700), 2.5, [0.08, 0.05, 0.031, 0.02,
                                                   0.0105], None),
    "interval restricted": (SampledSpace.interval(700), 3.0,
                            [0.08, 0.05, 0.031, 0.02, 0.0105], MIXED),
    # the first two caps reach n - 1
    "small interval": (SampledSpace.interval(12), 2.0,
                       [1.5, 0.95, 0.5, 0.3], IntervalSet.closed(0.2, 0.7)),
    # the first two caps reach side // 2
    "torus": (SampledSpace.torus(12), 3.0, [0.6, 0.55, 0.3, 0.26], None),
    # r / h rounds up to 6 and 3, so the cap, not the ball, drops the
    # offsets (6, 0) and (3, 0) at distance 0.24 and 0.12 < r
    "torus cap inside ball": (SampledSpace.torus(25), 2.0,
                              [0.5, np.nextafter(0.24, 1.0),
                               np.nextafter(0.12, 1.0)], None),
}


@pytest.mark.parametrize("name", sorted(BATCHED_SCANS))
def test_scan_matches_per_radius_bits(name):
    space, p, radii, restriction = BATCHED_SCANS[name]
    u = np.random.default_rng(29).normal(size=space.points.shape[0])
    scan = ks_limit_scan(space, u, p, radii, restriction)
    kernels = [KSKernel(r, p, restriction) for r in radii]
    lone = np.array([ks_energy(space, u, k) for k in kernels])
    literal = np.array([per_radius_ks(space, u, k) for k in kernels])
    assert scan.j_values.tobytes() == lone.tobytes()
    assert scan.j_values.tobytes() == literal.tobytes()
    assert np.all(scan.j_values > 0.0)


def test_scan_input_errors_match_ks_energy():
    tor = SampledSpace.torus(16)
    bad = LINEAR.copy()
    bad[5] = np.inf
    cases = [
        (GRID, LINEAR, 1.0, None, "exponent p must exceed 1"),
        (GRID, np.zeros(7), 2.0, None, "one value of u per grid point"),
        (GRID, bad, 2.0, None, "u must be finite"),
        (tor, np.zeros(256), 2.0, IntervalSet.closed(0.0, 0.5),
         "restriction sets apply to the interval grid only"),
    ]
    for space, u, p, restriction, message in cases:
        radii = [0.3, 0.2] if space is tor else [0.05, 0.03]
        with pytest.raises(ValueError, match=message):
            ks_energy(space, u, KSKernel(radii[0], p, restriction))
        with pytest.raises(ValueError, match=message):
            ks_limit_scan(space, u, p, radii, restriction)


def test_membership_matches_pointwise_contains():
    space = SampledSpace.interval(40)
    x = space.points
    # ends on grid points, with every bracket kind and a closed point
    on_grid = IntervalSet([(x[2], x[6], True, True),
                           (x[9], x[13], False, False),
                           (x[16], x[20], True, False),
                           (x[23], x[27], False, True),
                           (x[31], x[31], True, True)])
    for restriction in (on_grid, MIXED, IntervalSet.empty(),
                        IntervalSet.full()):
        want = [1.0 if restriction.contains(float(t)) else 0.0 for t in x]
        got = _membership(space, restriction)
        assert got.tobytes() == np.array(want).tobytes()
    assert _membership(space, on_grid)[[2, 6, 9, 13, 16, 20, 23, 27, 31]] \
        .tolist() == [1, 1, 0, 0, 1, 0, 0, 1, 1]
    assert np.all(_membership(space, None) == 1.0)
    with pytest.raises(ValueError):
        _membership(SampledSpace.torus(4), on_grid)


def test_scan_constant_all_zero():
    scan = ks_limit_scan(GRID, np.zeros(2000), 2.0, [0.05, 0.03, 0.02])
    assert np.all(scan.j_values == 0.0)
    assert scan.extrapolated == 0.0
    assert not scan.divergent
    assert scan.loglog_slope == 0.0


def test_scan_running_sup():
    scan = ks_limit_scan(GRID, profile_values(GRID, "sine"), 2.0,
                         default_r_sequence(GRID))
    assert np.all(scan.running_sup == np.maximum.accumulate(scan.j_values))
    assert len(scan.to_rows()) == scan.r_values.size
    assert scan.liminf_estimate == scan.j_values[-scan.window:].min()


def test_scan_linear_limit():
    scan = ks_limit_scan(GRID, LINEAR, 2.0, default_r_sequence(GRID))
    assert scan.extrapolated == pytest.approx(1 / 3, rel=0.005)
    assert not scan.divergent
    assert scan.subsequence_gap <= 0.005 / 3


def test_scan_sine_limit():
    # limit (1/3) int |u'|^2 = pi^2 / 6 for u = sin(pi x)
    scan = ks_limit_scan(GRID, profile_values(GRID, "sine"), 2.0,
                         default_r_sequence(GRID))
    assert scan.extrapolated == pytest.approx(np.pi ** 2 / 6, rel=0.03)
    assert not scan.divergent


def test_scan_step_diverges():
    # a jump makes J scale like r^{1-p}; the scan must flag it
    scan = ks_limit_scan(GRID, profile_values(GRID, "step"), 2.0,
                         default_r_sequence(GRID))
    assert scan.divergent
    assert scan.loglog_slope < -0.5
    growth = scan.j_values[-1] / scan.j_values[0]
    expected = (scan.r_values[0] / scan.r_values[-1]) ** 1.0
    assert growth == pytest.approx(expected, rel=0.25)


def test_weak_monotonicity_linear():
    report = check_weak_monotonicity(GRID, LINEAR, 2.0,
                                     default_r_sequence(GRID))
    assert report.finite
    assert report.c_star == pytest.approx(1.0, abs=0.05)


def test_weak_monotonicity_smooth():
    report = check_weak_monotonicity(GRID, profile_values(GRID, "sine"),
                                     2.0, default_r_sequence(GRID))
    assert report.finite
    assert report.c_star <= 1.2


def test_weak_monotonicity_degenerate():
    with pytest.raises(ValueError):
        check_weak_monotonicity(GRID, np.full(2000, 2.0), 2.0,
                                default_r_sequence(GRID))


def test_weak_monotonicity_step_recorded():
    report = check_weak_monotonicity(GRID, profile_values(GRID, "step"),
                                     2.0, default_r_sequence(GRID))
    assert report.finite
    assert report.c_star > 1.5


# -- canonical comparison ---------------------------------------------------


def test_canonical_identity():
    for p in (2.0, 3.0):
        cmpr = ks_vs_canonical(GRID, PLFunction.identity(), p)
        assert isinstance(cmpr, CanonicalComparison)
        assert cmpr.form_energy == pytest.approx(1.0, abs=1e-12)
        assert cmpr.energy_deviation <= 0.03
        assert cmpr.measure_deviation <= 0.03


def test_canonical_tent():
    cmpr = ks_vs_canonical(GRID, PLFunction.tent(), 2.0)
    assert cmpr.form_energy == pytest.approx(1.0, abs=1e-12)
    assert cmpr.scaled_limit == pytest.approx(1.0, rel=0.03)
    assert cmpr.measure_deviation <= 0.03


def test_canonical_constant():
    cmpr = ks_vs_canonical(GRID, PLFunction.constant(0.4), 2.0)
    assert cmpr.scaled_limit == 0.0
    assert cmpr.form_energy == 0.0
    assert cmpr.measure_mass == pytest.approx(0.0, abs=1e-12)
    assert cmpr.energy_deviation == 0.0


def test_canonical_needs_interval():
    with pytest.raises(ValueError):
        ks_vs_canonical(SampledSpace.torus(8), PLFunction.identity(), 2.0)


# -- torus ------------------------------------------------------------------


def test_torus_constant_zero():
    tor = SampledSpace.torus(32)
    assert ks_energy(tor, np.ones(1024), KSKernel(0.1, 2.0)) == 0.0


def test_torus_smooth_profile():
    # u = sin(2 pi x): continuum limit (1/4) int |grad u|^2 = pi^2 / 2
    tor = SampledSpace.torus(128)
    J = ks_energy(tor, profile_values(tor, "sine"), KSKernel(0.1, 2.0))
    assert J == pytest.approx(np.pi ** 2 / 2, rel=0.06)


def test_torus_rejects_restriction():
    tor = SampledSpace.torus(16)
    kernel = KSKernel(0.2, 2.0, IntervalSet.closed(0.0, 0.5))
    with pytest.raises(ValueError):
        ks_energy(tor, np.zeros(256), kernel)


# -- helpers ----------------------------------------------------------------


def test_default_r_sequence_snapped():
    rs = default_r_sequence(GRID)
    h = GRID.spacing
    assert np.all(np.diff(rs) < 0)
    assert rs[-1] >= 3 * h - 1e-12
    shells = rs / h - 0.5
    assert np.allclose(shells, np.round(shells), atol=1e-9)


def test_default_r_sequence_validation():
    with pytest.raises(ValueError):
        default_r_sequence(GRID, r_max=2 * GRID.spacing)
    with pytest.raises(ValueError):
        default_r_sequence(GRID, r_min=GRID.spacing)


def test_profiles():
    assert set(np.unique(profile_values(GRID, "step"))) == {0.0, 1.0}
    tent = profile_values(GRID, "tent")
    assert tent.max() == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(ValueError):
        profile_values(GRID, "sawtooth")
