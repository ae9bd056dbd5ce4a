"""The one cell partition behind every closed-form integral.

Batched integrals over a set family are checked against the layout they
replace: one grid per component, [lo, nodes strictly inside, hi], summed
component by component.  The set family includes ends a hair off
breakpoints and weight bounds, empty sets, and bare pairs reaching outside
[0, 1].
"""

import numpy as np
import pytest

from penergy import forms, laws
from penergy.construction import reference_measure
from penergy.forms import Cells, PLIntervalForm, _signed_power, spans
from penergy.laws import (
    DEFAULT_POLY,
    _chain_weighted_masses,
    _density_pairing,
    _masses,
    _pairing,
    _pairings,
    _poly_chain_rhs,
    _signed_masses,
    default_set_family,
    law_measure_clarkson,
    set_mass_oracle,
    signed_mass_oracle,
)
from penergy.pl import (GEOM_TOL, IntervalSet, PLFunction, PLMap,
                        _with_level_crossings)
from penergy.sampler import PLSampler

SAMPLER = PLSampler(seed=99)
WEIGHT3 = [(0.0, 0.3, 1.0), (0.3, 0.7, 2.5), (0.7, 1.0, 0.5)]
FORMS = [PLIntervalForm(1.5), PLIntervalForm(3.0, weight=WEIGHT3)]


def _clipped(target):
    comps = target.components if isinstance(target, IntervalSet) \
        else (target,)
    out = []
    for c in comps:
        lo, hi = max(float(c[0]), 0.0), min(float(c[1]), 1.0)
        if hi > lo:
            out.append((lo, hi))
    return out


def _near_breakpoint_sets(nodes):
    """Intervals whose ends sit 3e-11 and 1e-13 off the given nodes."""
    out = []
    inner = nodes[(nodes > 0.05) & (nodes < 0.95)]
    for b in inner:
        for d in (3e-11, 1e-13):
            out.append(IntervalSet.closed(b + d, min(b + 0.2, 1.0)))
            out.append(IntervalSet.closed(max(b - 0.2, 0.0), b - d))
            out.append(IntervalSet([(max(b - 0.1, 0.0), b - d),
                                    (b + d, min(b + 0.1, 1.0))]))
    return out


def _family(form, *fns):
    nodes = np.unique(np.concatenate([f.breakpoints for f in fns]
                                     + [form.weight_bounds]))
    return (default_set_family(SAMPLER, levels=3, unions=4)
            + tuple(_near_breakpoint_sets(nodes))
            + (IntervalSet.empty(), (0.4, 0.4), (0.6, 0.2),
               (-0.3, 0.45), (0.55, 1.7), (-1.0, 2.0), (1.2, 1.5)))


def _reference(form, target, node_sets, integrand):
    """Per-component Simpson sums, each component on its own grid.

    ``integrand(x, grid)`` gives the integrand at points x, one per cell
    of ``grid``.  Returns the integral, the integral of the magnitude
    (midpoint estimate) and the largest magnitude seen.
    """
    base = np.unique(np.concatenate(list(node_sets) + [form.weight_bounds]))
    total = variation = sup = 0.0
    for lo, hi in _clipped(target):
        inside = base[(base > lo + GEOM_TOL) & (base < hi - GEOM_TOL)]
        grid = np.concatenate(([lo], inside, [hi]))
        ln = np.diff(grid)
        mid = 0.5 * (grid[:-1] + grid[1:])
        parts = [integrand(x, grid) for x in (grid[:-1], mid, grid[1:])]
        simpson = (parts[0] + 4.0 * parts[1] + parts[2]) / 6.0
        total += float(np.sum(simpson * ln))
        variation += float(np.sum(np.abs(parts[1]) * ln))
        sup = max(sup, float(np.max(np.abs(parts))))
    return total, variation, sup


def _cell_slope(fn, grid):
    return np.diff(fn.evaluate(grid)) / np.diff(grid)


def _check(form, sets, got, node_sets, integrand):
    """Each batched value within 1e-13 of the integrand's scale.

    A running integral carries its roundoff at the scale of the whole
    domain, the total variation over [0, 1], which every law normalises
    by.  An end closer than GEOM_TOL to a breakpoint is not made a node;
    reading the running integral there by interpolation is off by the
    distance (here 1e-13) times the density's spread in the cell, at most
    twice its sup.
    """
    _, variation, sup = _reference(form, (0.0, 1.0), node_sets, integrand)
    for i, A in enumerate(sets):
        want = _reference(form, A, node_sets, integrand)[0]
        assert abs(got[i] - want) <= 1e-13 * (variation + 2.0 * sup), (i, A)


def _pairs():
    for form in FORMS:
        for k in range(3):
            f, g = SAMPLER.pl_pair(k)
            yield form, f, g, SAMPLER.pl(500 + k)


@pytest.mark.parametrize("form", FORMS)
def test_batched_oracle_masses_keep_the_bits(form):
    for k in range(4):
        f = SAMPLER.pl(k)
        sets = _family(form, f)
        nodes, cum = form.cumulative_energy(f)
        want = [float(sum(np.interp(hi, nodes, cum) - np.interp(lo, nodes, cum)
                          for lo, hi in _clipped(A))) for A in sets]
        got, = _masses(form, [(f, spans(sets))], "oracle")
        assert got.tolist() == want
        assert [set_mass_oracle(form, f, A) for A in sets] == want


def test_signed_mass_over_domain_is_the_energy_derivative():
    for form, u, v, _ in _pairs():
        assert signed_mass_oracle(form, u, v, (0.0, 1.0)) \
            == form.energy_derivative(u, v)


def test_signed_masses_match_per_component_sums():
    for form, u, v, _ in _pairs():
        sets = _family(form, u, v)

        def dens(x, grid):
            w = form.weight_at(0.5 * (grid[:-1] + grid[1:]))
            return w * _signed_power(_cell_slope(u, grid), form.p - 1.0) \
                * _cell_slope(v, grid)

        _check(form, sets, _signed_masses(form, u, v, spans(sets)),
               (u.breakpoints, v.breakpoints), dens)


def test_pairings_match_per_component_sums():
    for form, f, g, h in _pairs():
        sets = _family(form, f, g, h)
        terms = [(g, h), (h, g)]

        def dens(x, grid):
            w = form.weight_at(0.5 * (grid[:-1] + grid[1:]))
            acc = sum(a.evaluate(x) * _cell_slope(b, grid) for a, b in terms)
            return w * _signed_power(_cell_slope(f, grid), form.p - 1.0) * acc

        nodes = (f.breakpoints, g.breakpoints, h.breakpoints)
        _check(form, sets, _pairings(form, f, terms, spans(sets)), nodes,
               dens)
        _check(form, sets, [_pairing(form, f, terms, A) for A in sets],
               nodes, dens)


def test_density_pairing_matches_per_component_sums():
    for form, f, g, _ in _pairs():
        sets = _family(form, f, g)

        def dens(x, grid):
            w = form.weight_at(0.5 * (grid[:-1] + grid[1:]))
            return w * np.abs(_cell_slope(f, grid)) ** form.p * g.evaluate(x)

        got = [_density_pairing(form, f, g, A) for A in sets]
        _check(form, sets, got, (f.breakpoints, g.breakpoints), dens)


def test_chain_weighted_masses_match_per_component_sums():
    for form, f, _, v in _pairs():
        lo, hi = f.value_range()
        phi = PLMap.triangle(2, lo, hi + 1e-9)
        kinks, _ = _with_level_crossings(f, phi.breakpoints[1:-1])
        sets = _family(form, f, v)

        def dens(x, grid):
            mid = 0.5 * (grid[:-1] + grid[1:])
            fs = _cell_slope(f, grid)
            seg = np.clip(np.searchsorted(phi.breakpoints, f.evaluate(mid),
                                          side="right") - 1, 0,
                          phi.piece_count - 1)
            e = form.p - 1.0
            return (form.weight_at(mid) * _signed_power(phi.slopes[seg], e)
                    * _signed_power(fs, e) * _cell_slope(v, grid))

        _check(form, sets,
               _chain_weighted_masses(form, f, phi, v, spans(sets)),
               (kinks, v.breakpoints), dens)


def test_poly_chain_rhs_matches_per_component_sums():
    partials = [DEFAULT_POLY.partial(i) for i in range(3)]
    for form, f, g, h in _pairs():
        gs = [g, h, SAMPLER.pl(900)]
        sets = _family(form, f, *gs)

        def dens(x, grid):
            w = form.weight_at(0.5 * (grid[:-1] + grid[1:]))
            cols = [gi.evaluate(x) for gi in gs]
            acc = sum(d.value(cols) * _cell_slope(gi, grid)
                      for d, gi in zip(partials, gs))
            return w * _signed_power(_cell_slope(f, grid), form.p - 1.0) * acc

        _check(form, sets,
               _poly_chain_rhs(form, f, partials, gs, spans(sets)),
               [f.breakpoints] + [gi.breakpoints for gi in gs], dens)


def test_spans_clip_drop_and_keep_order():
    _, owner, lo, hi = spans([IntervalSet([(0.1, 0.2), (0.5, 0.7)]),
                              IntervalSet.empty(), (-0.5, 0.3), (1.2, 1.5),
                              (0.9, 0.4), (0.6, 1.8)])
    assert owner.tolist() == [0, 0, 2, 5]
    assert lo.tolist() == [0.1, 0.5, 0.0, 0.6]
    assert hi.tolist() == [0.2, 0.7, 0.3, 1.0]
    assert [a.size for a in spans([])[1:]] == [0, 0, 0]


def test_cells_merge_extra_nodes_and_integrate_linear_density():
    form = FORMS[1]
    f = PLFunction([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    cells = Cells(form, f, nodes=spans([(0.1, 0.45)])[2:])
    assert {0.1, 0.3, 0.45, 0.5, 0.7} <= set(cells.nodes.tolist())
    # int_0.1^0.45 w(x) x dx with w = 1 below 0.3 and 2.5 above
    got = cells.integrate(cells.weight * cells.mid * cells.width,
                          spans([(0.1, 0.45)]))[0]
    want = 0.5 * (0.3 ** 2 - 0.1 ** 2) + 2.5 * 0.5 * (0.45 ** 2 - 0.3 ** 2)
    assert got == pytest.approx(want, rel=1e-14)
    # an end a hair below a weight bound does not displace the bound
    near = Cells(form, f, nodes=(np.array([0.3 - 1e-13, 0.5 + 1e-13]),))
    assert near.nodes.tolist() == [0.0, 0.3, 0.5, 0.7, 1.0]


@pytest.mark.parametrize("route", ["oracle", "construction"])
def test_a_law_reads_its_set_family_once(monkeypatch, route):
    calls = []

    def counted(targets):
        calls.append(len(targets))
        return spans(targets)

    monkeypatch.setattr(forms, "spans", counted)
    monkeypatch.setattr(laws, "spans", counted)
    rep = law_measure_clarkson(PLIntervalForm(2.0), PLSampler(1), trials=3,
                               route=route)
    assert rep.passed
    # one call, over the 71 sets of the default family
    assert calls == [71]


def test_measure_queries_are_the_oracle_integral():
    form = FORMS[1]
    sets = default_set_family(SAMPLER) + ((-0.25, 0.4), (0.6, 1.3))
    for k in range(8):
        f = SAMPLER.pl(k)
        exact = reference_measure(form, f)
        assert [exact.measure(A) for A in sets] \
            == [set_mass_oracle(form, f, A) for A in sets]
