"""Release gate: one test per shipped guarantee, one verdict line each.

Every test prints a single ``[criterion NN] PASS/FAIL`` line (run with
``pytest -s`` to see them live; they also appear in failure output) and
asserts the same condition, so the -v test listing doubles as the
pass/fail summary.  Tolerances and trial counts here are the release
numbers; the per-module suites probe edge cases at their own settings.
"""

import math
import time

import numpy as np
import pytest

from penergy.construction import energy_measure, reference_measure
from penergy.forms import PLIntervalForm
from penergy.gasket import renormalization_constant, renormalization_p2_oracle
from penergy.ks import (SampledSpace, default_r_sequence, ks_limit_scan,
                        ks_vs_canonical, profile_values)
from penergy.laws import (ATOM_SCHEDULE, dyadic_sets, heavier_form,
                          law_chain_rule, law_domination,
                          law_functional_identity, law_image_density,
                          law_locality, law_measure_clarkson,
                          law_measure_triangle, law_two_variable,
                          _density_pairing)
from penergy.pl import PLFunction
from penergy.sampler import PLSampler
from penergy import cli

SEED = 2026
P_GRID = (1.5, 2.0, 3.0)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line, flush=True)
    assert ok, line


def _sup_density_gap(built, exact) -> float:
    """Sup gap of the two step densities, relative to the exact sup."""
    grid = np.union1d(built.nodes, exact.nodes)
    mids = 0.5 * (grid[:-1] + grid[1:])
    da = built.density[np.clip(np.searchsorted(built.nodes, mids) - 1, 0,
                               built.density.size - 1)]
    db = exact.density[np.clip(np.searchsorted(exact.nodes, mids) - 1, 0,
                               exact.density.size - 1)]
    scale = max(float(db.max(initial=0.0)), 1e-12)
    return float(np.max(np.abs(da - db))) / scale


def test_criterion_01_construction_matches_reference_density():
    sampler = PLSampler(seed=SEED, max_breaks=10)
    t0 = time.monotonic()
    worst_gap = 0.0
    worst_mass = 0.0
    for p in P_GRID:
        form = PLIntervalForm(p)
        for k in range(20):
            f = sampler.pl(k)
            energy = form.energy(f)
            assert energy > 0.0
            built = energy_measure(form, f)
            worst_gap = max(worst_gap,
                            _sup_density_gap(built, reference_measure(form,
                                                                      f)))
            worst_mass = max(worst_mass,
                             abs(built.total_mass() - energy) / energy)
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-4 and worst_mass <= 1e-6 and elapsed <= 60.0
    _verdict(1, "construction density", ok,
             f"sup density gap {worst_gap:.2e} (tol 1e-4), mass gap "
             f"{worst_mass:.2e} (tol 1e-6), {elapsed:.1f}s of 60s, "
             f"60 functions over p={P_GRID}")


def test_criterion_02_chain_rule_density_identity():
    worst = math.inf
    for p in P_GRID:
        rep = law_chain_rule(PLIntervalForm(p), PLSampler(seed=SEED),
                             trials=10, route="construction",
                             derivative_trials=0)
        assert rep.tolerance == 1e-4
        worst = min(worst, rep.worst_slack)
    ok = worst >= -1e-4
    _verdict(2, "chain rule", ok,
             f"worst cell slack {worst:.2e} (tol 1e-4), 10-map family, "
             f"10 functions per p, p={P_GRID}")


def test_criterion_03_measure_clarkson_and_triangle():
    sets = dyadic_sets()
    worst = {"oracle": math.inf, "construction": math.inf}
    for p in (1.5, 3.0):
        form = PLIntervalForm(p)
        for route in ("oracle", "construction"):
            for law in (law_measure_clarkson, law_measure_triangle):
                rep = law(form, PLSampler(seed=SEED), trials=200,
                          route=route, sets=sets)
                worst[route] = min(worst[route], rep.worst_slack)
    ok = worst["oracle"] >= -1e-9 and worst["construction"] >= -1e-4
    _verdict(3, "measure clarkson + triangle", ok,
             f"worst slack oracle {worst['oracle']:.2e} (tol 1e-9), "
             f"construction {worst['construction']:.2e} (tol 1e-4), "
             f"200 pairs x 63 dyadic sets, p in (1.5, 3)")


def test_criterion_04_locality():
    rep = law_locality(PLIntervalForm(2.0), PLSampler(seed=SEED), trials=100,
                       route="construction")
    assert rep.tolerance == 1e-6
    ok = rep.worst_slack >= -1e-6
    _verdict(4, "locality", ok,
             f"worst |mu_f(A) - mu_g(A)| / (E(f)+E(g)) = "
             f"{-rep.worst_slack:.2e} (tol 1e-6), 100 triples")


def test_criterion_05_functional_identity():
    # the slack is the closed-form residual of the identity, roundoff
    # (below 1e-15 of the scale) against the internal line 1e-9, well
    # inside the required 1e-3; the PL power interpolant's gap is recorded
    # in the witness, not in the tolerance
    worst = math.inf
    for p in (2.0, 3.0):
        rep = law_functional_identity(PLIntervalForm(p), PLSampler(seed=SEED),
                                      trials=20)
        worst = min(worst, rep.worst_slack)
        assert rep.passed, rep
    ident = PLFunction.identity()
    lhs = _density_pairing(PLIntervalForm(2.0), ident, ident)
    exact_gap = abs(lhs - 0.5)
    ok = worst >= -1e-9 and exact_gap <= 1e-6
    _verdict(5, "functional identity", ok,
             f"worst closed-form residual slack {worst:.2e} "
             f"(internal tol 1e-9, required 1e-3), identity instance gap "
             f"{exact_gap:.2e} (tol 1e-6), 20 pairs per p, p in (2, 3)")


def test_criterion_06_domination():
    pairs = (
        (PLIntervalForm(2.0),
         heavier_form(PLIntervalForm(2.0), bump=1.0, upto=0.5)),
        (PLIntervalForm(2.0, weight=[(0.0, 0.5, 0.5), (0.5, 1.0, 1.0)]),
         PLIntervalForm(2.0, weight=[(0.0, 0.5, 1.5), (0.5, 1.0, 1.25)])),
        (PLIntervalForm(3.0, weight=[(0.0, 0.25, 1.0), (0.25, 0.75, 2.0),
                                     (0.75, 1.0, 0.5)]),
         PLIntervalForm(3.0, weight=[(0.0, 0.25, 1.0), (0.25, 0.75, 2.5),
                                     (0.75, 1.0, 2.0)])),
    )
    worst = math.inf
    for lo, hi in pairs:
        rep = law_domination(lo, hi, PLSampler(seed=SEED), trials=50,
                             route="oracle")
        worst = min(worst, rep.worst_slack)
    ok = worst >= -1e-9
    _verdict(6, "domination", ok,
             f"worst setwise slack {worst:.2e} (tol 1e-9), 3 weight pairs "
             f"x 50 functions")


def test_criterion_07_two_variable_measure():
    detail = []
    ok = True
    for p in P_GRID:
        rep = law_two_variable(PLIntervalForm(p), PLSampler(seed=SEED),
                               trials=8)
        expected_tol = 1e-3 if p >= 2.0 else 1e-2
        assert rep.tolerance == expected_tol
        ok = ok and rep.worst_slack >= -expected_tol
        detail.append(f"p={p:g} slack {rep.worst_slack:.2e} "
                      f"(tol {expected_tol:g})")
    _verdict(7, "two-variable measure", ok,
             "; ".join(detail) + "; closed form and diagonal, 8 pairs each")


def test_criterion_08_image_density_has_no_atoms():
    rep = law_image_density(PLIntervalForm(2.0), PLSampler(seed=SEED),
                            trials=20, probes=50, route="construction",
                            sched=ATOM_SCHEDULE)
    assert rep.tolerance == 1e-8
    ok = rep.worst_slack >= -1e-8
    _verdict(8, "image density", ok,
             f"largest probed atom {-rep.worst_slack:.2e} (tol 1e-8), "
             f"20 functions x 50 probes")


def test_criterion_09_ks_energy_limits():
    t0 = time.monotonic()
    space = SampledSpace.interval(20000)
    linear = space.points.copy()
    radii = default_r_sequence(space)
    detail = []
    ok = True
    for p in (2.0, 3.0):
        target = 1.0 / (p + 1.0)
        scan = ks_limit_scan(space, linear, p, radii)
        dev = abs(scan.extrapolated - target) / target
        ok = ok and dev <= 0.02 and not scan.divergent
        detail.append(f"p={p:g} limit dev {dev:.2e} (tol 2e-2)")
    worst_canonical = 0.0
    for profile in (PLFunction.identity(), PLFunction.tent()):
        for p in (2.0, 3.0):
            cmp = ks_vs_canonical(space, profile, p)
            worst_canonical = max(worst_canonical, cmp.energy_deviation,
                                  cmp.measure_deviation)
    ok = ok and worst_canonical <= 0.03
    step_scan = ks_limit_scan(space, profile_values(space, "step"), 2.0,
                              radii)
    ok = ok and step_scan.divergent
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 120.0
    _verdict(9, "ks energy", ok,
             "; ".join(detail) + f"; canonical dev {worst_canonical:.2e} "
             f"(tol 3e-2, linear and tent); step divergent="
             f"{step_scan.divergent}; {elapsed:.1f}s of 120s, N=20000")


def test_criterion_10_gasket_renormalization():
    res2 = renormalization_constant(2.0)
    gap = abs(res2.rho - float(renormalization_p2_oracle()))
    res3 = renormalization_constant(3.0)
    ok = (gap <= 1e-8 and res2.converged and res3.converged
          and res3.residual <= 1e-6)
    _verdict(10, "gasket renormalization", ok,
             f"|rho_2 - 5/3| = {gap:.2e} (tol 1e-8); p=3 residual "
             f"{res3.residual:.2e} (tol 1e-6), circle-table deviation "
             f"{res3.table_deviation:.2e}, rho_3 = {res3.rho:.6f}")


def _run_cli_csvs(tmp_path, name, argv):
    out = tmp_path / name
    out.mkdir(exist_ok=True)
    code = cli.main(argv + ["--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    return {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}


def test_criterion_11_determinism(tmp_path):
    import json

    def config(name, **entries):
        path = tmp_path / name
        path.write_text(json.dumps(entries))
        return str(path)

    runs = {
        "validate-form": ["--config", config("vf.json", seed=7),
                          "validate-form"],
        "build-measure": ["--config",
                          config("bm.json", seed=7, resolution=128,
                                 function={"kind": "tent", "peak": 0.4}),
                          "build-measure"],
        "check-laws": ["--config",
                       config("cl.json", seed=7, trials=4,
                              laws=["locality", "measure_triangle",
                                    "total_mass"]),
                       "check-laws"],
        "ks-energy": ["ks-energy", "--seed", "7", "--n", "500",
                      "--profile", "sine"],
        "sg-renorm": ["--config", config("sg.json", seed=7, p_list=[2.0, 3.0]),
                      "sg-renorm"],
    }
    mismatched = []
    total = 0
    for name, argv in runs.items():
        first = _run_cli_csvs(tmp_path, name, argv)
        second = _run_cli_csvs(tmp_path, name, argv)
        assert first.keys() == second.keys() and first
        total += len(first)
        mismatched += [f"{name}/{f}" for f in first
                       if first[f] != second[f]]
    ok = not mismatched
    _verdict(11, "determinism", ok,
             f"{total} CSVs across 5 commands byte-identical on repeat"
             + (f"; MISMATCH {mismatched}" if mismatched else ""))
