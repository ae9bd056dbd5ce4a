"""Serial baseline cases, one wall time each, run after the traced pass.

These are the reference cases of the open-items table in ROADMAP.md, split
by the workload whose layers they exercise.  They run untraced, so they
time the program itself; each case reports the fastest of ``REPEATS``
runs.
"""

from __future__ import annotations

import json
import time

REPEATS = 3
CASES = ("energy_measure_tame_512", "energy_measure_tame_4096",
         "energy_measure_tame_32768", "energy_measure_slope16_512",
         "ks_interval_20000", "ks_interval_100000", "ks_torus_256",
         "sg_renorm_p3", "harmonic_p3_level5", "check_laws_jobs1",
         "check_laws_jobs2")


def _slope16():
    """Five-piece zigzag with |f'| = 16 on its steepest piece."""
    from penergy.pl import PLFunction
    x = [0.0, 0.2, 0.45, 0.6, 0.8, 1.0]
    s = [16.0, -12.0, 9.0, -16.0, 10.0]
    y = [0.0]
    for i, slope in enumerate(s):
        y.append(y[-1] + slope * (x[i + 1] - x[i]))
    return PLFunction(x, y)


def _cases(workload: str, work, tiny: bool):
    """(name, thunk) pairs of the workload's baseline cases."""
    from penergy import construction, gasket
    from penergy.forms import PLIntervalForm
    from penergy.sampler import PLSampler
    from workloads import ANCHOR_SEED, run_cli

    out = str(work / "baseline")
    if workload == "fold_measure":
        form = PLIntervalForm(2.0)
        tame = PLSampler(ANCHOR_SEED).nonzero_pl(0)
        sizes = (64, 128, 256, 32) if tiny else (512, 4096, 32768, 512)
        names = CASES[:4]
        fns = (tame, tame, tame, _slope16())
        return [(name, lambda f=f, r=r: construction.energy_measure(form, f, r))
                for name, f, r in zip(names, fns, sizes)]
    if workload == "law_audit":
        path = work / "baseline-laws.json"
        path.write_text(json.dumps({"seed": 7, "trials": 1 if tiny else 6}))
        return [(f"check_laws_jobs{j}",
                 lambda j=j: run_cli(["--config", str(path), "--jobs", str(j),
                                      "--out", out, "check-laws"]))
                for j in (1, 2)]
    n_small, n_big, side, level = (2000, 4000, 32, 3) if tiny \
        else (20000, 100000, 256, 5)
    return [
        ("ks_interval_20000", lambda: run_cli(
            ["ks-energy", "--n", str(n_small), "--out", out])),
        ("ks_interval_100000", lambda: run_cli(
            ["ks-energy", "--n", str(n_big), "--out", out])),
        ("ks_torus_256", lambda: run_cli(
            ["ks-energy", "--space", "torus", "--n", str(side), "--out",
             out])),
        ("sg_renorm_p3", lambda: gasket.renormalization_constant(3.0)),
        ("harmonic_p3_level5", lambda: gasket.harmonic_extension(
            gasket.build_gasket(level), 3.0, [0.0, 1.0, 0.3])),
    ]


def run(workload: str, work, tiny: bool) -> dict[str, float]:
    """Fastest wall seconds of each of the workload's cases, in order."""
    times = {}
    for name, thunk in _cases(workload, work, tiny):
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            thunk()
            elapsed = time.perf_counter() - t0
            times[name] = min(times.get(name, elapsed), elapsed)
    return times
