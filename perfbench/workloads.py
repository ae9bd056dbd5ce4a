"""Seeded job lists for the three workloads, and the oracle for each job.

A job is one call of a public entry point: ``penergy.cli.main(argv)``
in-process, or a library call the acceptance gate makes.  Each entry of
``WORKLOADS`` turns a seed into the list of jobs (fixtures such as gasket
graphs are built there and shared by the jobs' closures); the program only
ever sees the generated configs.  Each job's ``check`` judges the outcome
against a closed form computed here, at the acceptance gate's tolerance.

Strata are fixed per workload (how many jobs of each size, slope, law or
exponent); the seed draws the functions, sampler seeds, exponents and
boundary data inside them.  That keeps the work of one run comparable
across seeds while the inputs change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FOLD_P = (1.5, 2.0, 3.0, 6.0)
ANCHOR_SEED = 2026   # the acceptance gate's sampler seed

# criterion tolerances of tests/test_acceptance.py
DENSITY_TOL = 1e-4    # criterion 01, sup density gap
MASS_TOL = 1e-6       # criterion 01, total mass gap
KS_LIMIT_TOL = 2e-2   # criterion 09, linear profile limit 1/(p+1)
KS_CANON_TOL = 3e-2   # criterion 09, (p+1) lim J against the form energy
RHO2_TOL = 1e-8       # criterion 10, |rho_2 - 5/3|
RESIDUAL_TOL = 1e-6   # criterion 10, renormalization residual


@dataclass
class Verdict:
    ok: bool
    err_ratio: float | None = None   # worst error / tolerance, when measured
    honest: bool = False             # the program itself reported the failure
    note: str = ""


@dataclass(frozen=True)
class CliRun:
    """Exit code and error output of one in-process CLI call."""

    code: int
    stderr: str


@dataclass
class Job:
    jid: str
    kind: str                        # warm-up and repeat-check group
    label: str
    call: Callable[[Path], object]   # runs the program, output into a dir
    check: Callable[[object, Path], Verdict]

    def fingerprint(self, result, out: Path):
        """What must repeat exactly when the job runs twice."""
        if isinstance(result, CliRun):  # compare the CSVs it wrote
            return {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
        return _exact(result)


# ---------------------------------------------------------------------------
# helpers


def _exact(value):
    """A comparable form of a library result holding every bit of it
    (``repr`` shortens numpy arrays longer than 1000 entries)."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if is_dataclass(value):
        return (type(value).__name__,
                tuple((f.name, _exact(getattr(value, f.name)))
                      for f in fields(value)))
    if isinstance(value, dict):
        return tuple((repr(k), _exact(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_exact(v) for v in value)
    return repr(value)


def run_cli(argv) -> CliRun:
    """penergy.cli.main in-process with its console output captured."""
    from penergy import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return CliRun(code, err.getvalue())


def read_csv(path: Path):
    """(header dict, rows of strings) of a penergy report CSV."""
    header, rows = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                header[key] = value
            else:
                rows.append(line.split(","))
    return header, rows[1:]


def _exit_verdict(run: CliRun) -> Verdict | None:
    if run.code == 0:
        return None
    if run.code == 3:
        return Verdict(False, honest=True, note="exit 3 (non-convergence)")
    return Verdict(False, note=f"exit {run.code}: {run.stderr.strip()}")


def _u64(rng) -> int:
    return int(rng.integers(0, 2 ** 32))


def _write_config(work: Path, jid: str, cfg: dict) -> str:
    path = work / "configs" / f"{jid}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# fold_measure


def _steep_function(rng, slope: float, n_int: int = 4):
    """Zigzag PL function whose steepest piece has |f'| = slope."""
    while True:
        inner = np.sort(rng.uniform(0.05, 0.95, n_int))
        x = np.concatenate(([0.0], inner, [1.0]))
        if np.all(np.diff(x) >= 0.05):
            break
    # above |f'| = 6 every threshold takes the general band path
    mags = slope * rng.uniform(0.8, 1.0, x.size - 1)
    mags[int(rng.integers(0, mags.size))] = slope
    signs = np.where(np.arange(mags.size) % 2 == 0, 1.0, -1.0)
    y = np.concatenate(([rng.uniform(-1.0, 1.0)],
                        np.cumsum(signs * mags * np.diff(x))))
    y[1:] += y[0]
    return x.tolist(), y.tolist()


def _weight_cells(rng, count: int):
    if count == 1:
        return None
    bounds = np.linspace(0.0, 1.0, count + 1)
    bounds[1:-1] += rng.uniform(-0.3, 0.3, count - 1) / count
    values = rng.uniform(0.5, 2.0, count)
    return [[float(bounds[i]), float(bounds[i + 1]), float(values[i])]
            for i in range(count)]


def _fold_oracle(cfg: dict):
    """Breakpoints, values, weight bounds and weights the config describes."""
    from penergy.sampler import PLSampler
    spec = cfg["function"]
    if spec["kind"] == "sample":
        f = PLSampler(cfg["seed"]).nonzero_pl(spec["index"])
        x, y = np.asarray(f.breakpoints), np.asarray(f.values)
    else:
        x, y = np.asarray(spec["breakpoints"]), np.asarray(spec["values"])
    cells = cfg["form"].get("weight") or [[0.0, 1.0, 1.0]]
    wb = np.array([c[0] for c in cells] + [cells[-1][1]])
    wv = np.array([c[2] for c in cells])
    return x, y, wb, wv


def _check_build_measure(cfg: dict):
    p = cfg["form"]["p"]

    def check(run: CliRun, out: Path) -> Verdict:
        bad = _exit_verdict(run)
        if bad:
            return bad
        _, rows = read_csv(out / "build_measure.csv")
        cells = np.array(rows, dtype=float)
        lo, hi, fold = cells[:, 0], cells[:, 1], cells[:, 2]
        x, y, wb, wv = _fold_oracle(cfg)
        mid = 0.5 * (lo + hi)
        piece = np.clip(np.searchsorted(x, mid, side="right") - 1, 0,
                        x.size - 2)
        slope = (y[piece + 1] - y[piece]) / (x[piece + 1] - x[piece])
        w = wv[np.clip(np.searchsorted(wb, mid, side="right") - 1, 0,
                       wv.size - 1)]
        exact = w * np.abs(slope) ** p
        gap = float(np.max(np.abs(fold - exact))) / max(float(exact.max()),
                                                        1e-12)
        energy = float(np.sum(exact * (hi - lo)))
        mass_gap = abs(float(np.sum(fold * (hi - lo))) - energy) / energy
        ratio = max(gap / DENSITY_TOL, mass_gap / MASS_TOL)
        return Verdict(ratio <= 1.0, ratio,
                       note=f"density gap {gap:.2e}, mass gap {mass_gap:.2e}")
    return check


def _build_measure_job(work, jid, kind, label, cfg, plot):
    path = _write_config(work, jid, cfg)
    argv = ["--config", path, "build-measure"] + (["--plot"] if plot else [])
    return Job(jid, kind, label,
               lambda out: run_cli(argv + ["--out", str(out)]),
               _check_build_measure(cfg))


def _sample_index(rng, seed: int, interior: int) -> int:
    """A sampler index whose function has the given interior breakpoints."""
    from penergy.sampler import PLSampler
    sampler = PLSampler(seed)
    while True:
        index = int(rng.integers(0, 10 ** 6))
        if sampler.nonzero_pl(index).breakpoints.size == interior + 2:
            return index


def fold_measure(rng, work: Path, tiny: bool):
    """build-measure CLI jobs: tame sampler functions and steep zigzags.

    Every slot fixes the work-defining shape (resolution, p, breakpoint
    count, slope, weight cells); the seed draws the function inside it.
    """
    res_lo, res_mid, res_hi, res_steep = (64, 128, 256, 32) if tiny \
        else (512, 4096, 32768, 32)
    n_lo, n_mid = (2, 1) if tiny else (8, 8)
    slopes = (8.0,) if tiny else (8.0, 16.0, 32.0, 64.0)
    specs = []  # (kind, label, cfg)
    for i in range(n_lo + n_mid):
        res = res_lo if i < n_lo else res_mid
        p = FOLD_P[i % len(FOLD_P)]
        breaks = (2, 3, 4, 5)[(i // len(FOLD_P)) % 4]
        seed = _u64(rng)
        specs.append(("tame", f"tame r{res} p{p:g} breaks{breaks}", {
            "seed": seed, "resolution": res,
            "form": {"kind": "pl", "p": p},
            "function": {"kind": "sample",
                         "index": _sample_index(rng, seed, breaks)}}))
    # one fixed function at the top resolution: the gate's sampler seed
    specs.append(("tame", f"tame r{res_hi} anchor", {
        "seed": ANCHOR_SEED, "resolution": res_hi,
        "form": {"kind": "pl", "p": 2.0},
        "function": {"kind": "sample", "index": 0}}))
    for kind in ("steep", "cells"):
        for j, slope in enumerate(slopes):
            x, y = _steep_function(rng, slope)
            count = 1 if kind == "steep" else (50, 40, 30, 20)[j]
            p = FOLD_P[j] if kind == "steep" else FOLD_P[-1 - j]
            form = {"kind": "pl", "p": p}
            weight = _weight_cells(rng, count)
            if weight:
                form["weight"] = weight
            specs.append((kind, f"{kind} slope{slope:g} cells{count} "
                          f"p{p:g}", {
                              "seed": _u64(rng), "resolution": res_steep,
                              "form": form,
                              "function": {"kind": "points",
                                           "breakpoints": x, "values": y}}))
    return [_build_measure_job(work, f"j{i:03d}", kind, label, cfg,
                               plot=(i % 3 == 2))
            for i, (kind, label, cfg) in enumerate(specs)]


# ---------------------------------------------------------------------------
# law_audit


def _law_verdict(rep, tol: float | None = None) -> Verdict:
    if tol is not None and rep.tolerance != tol:
        return Verdict(False, note=f"tolerance {rep.tolerance} != gate {tol}")
    ratio = max(-rep.worst_slack, 0.0) / rep.tolerance
    return Verdict(bool(rep.passed), ratio,
                   note=f"{rep.law} slack {rep.worst_slack:.2e}")


def _check_laws_check(run: CliRun, out: Path) -> Verdict:
    bad = _exit_verdict(run)
    if bad:
        return bad
    _, rows = read_csv(out / "check_laws.csv")
    ratio, ok = 0.0, True
    for law, _, slack, tol, status in rows:
        ratio = max(ratio, max(-float(slack), 0.0) / float(tol))
        ok = ok and status == "pass" and float(slack) >= -float(tol)
    return Verdict(ok, ratio, note=f"{len(rows)} law rows")


def _gate_call(jid, label, fn_name, form_p, sampler_seed, kwargs, tol):
    """A library call of penergy.laws as the acceptance gate makes it."""
    def call(out):
        from penergy import laws
        from penergy.forms import PLIntervalForm
        from penergy.sampler import PLSampler
        fn = getattr(laws, fn_name)  # looked up per call, so tracing sees it
        return fn(PLIntervalForm(form_p), PLSampler(sampler_seed), **kwargs)
    return Job(jid, "gate", label, call,
               lambda rep, out: _law_verdict(rep, tol))


# check-laws trials per law: about 0.1 s of work each on a 2-core Xeon, so
# the per-law jobs are comparable units (chain_rule costs 0.5 s per trial)
LAW_TRIALS = {"chain_rule": 1, "continuity": 2, "domination": 8,
              "functional_identity": 60, "homogeneity_shift": 4,
              "image_density": 4, "leibniz": 6, "locality": 100,
              "measure_clarkson": 4, "measure_triangle": 6,
              "minimal_dominant": 1, "minmax_bound": 4,
              "multivariable_chain": 2, "total_mass": 100,
              "two_variable": 10}


def _check_laws_job(jid, label, path, n_jobs):
    argv = ["--config", path, "--jobs", str(n_jobs), "check-laws"]
    return Job(jid, "check-laws", label,
               lambda out: run_cli(argv + ["--out", str(out)]),
               _check_laws_check)


def law_audit(rng, work: Path, tiny: bool):
    """check-laws per law and over the registry, plus gate calls.

    The per-law jobs run at --jobs 1: a single law is a single task, which
    a pool cannot split.  The full-registry job runs one config at
    --jobs 1 and at --jobs 2, so the pool runs two laws at once.
    """
    from penergy import laws
    # total_mass first: the kind's first job is its (cheap) warm-up
    names = ["total_mass"] if tiny else sorted(
        laws.ALL_LAWS, key=lambda n: (n != "total_mass", n))
    jobs = []
    for name in names:
        trials = 1 if tiny else LAW_TRIALS[name]
        path = _write_config(work, f"laws-{name}",
                             {"seed": _u64(rng), "trials": trials,
                              "laws": [name]})
        jobs.append(_check_laws_job(f"j{len(jobs):03d}",
                                    f"check-laws {name} --jobs 1", path, 1))
    # all 15 laws at one trial each: about 0.7 s on a 2-core Xeon, the
    # costliest jobs of the workload
    path = _write_config(work, "laws-all", {"seed": _u64(rng), "trials": 1})
    for n_jobs in (1, 2):
        jobs.append(_check_laws_job(
            f"j{len(jobs):03d}", f"check-laws all laws --jobs {n_jobs}",
            path, n_jobs))
    # gate calls are sized to about 0.3 s each, so the median job run falls
    # inside this group, and so does the tail percentile (p90 of three
    # passes): only the six full-registry runs and the four costliest gate
    # runs lie beyond it
    sets = laws.dyadic_sets()
    gate = []  # (label, fn, p, kwargs, gate tolerance)
    for p in (1.5, 3.0):
        for law in ("measure_clarkson", "measure_triangle"):
            gate.append((f"{law} oracle p{p:g}", f"law_{law}", p,
                         {"trials": 2 if tiny else 20,
                          "route": "oracle", "sets": sets}, 1e-9))
    if not tiny:
        for p in (1.5, 3.0):
            for law in ("measure_clarkson", "measure_triangle"):
                gate.append((f"{law} construction p{p:g}", f"law_{law}", p,
                             {"trials": 3, "route": "construction",
                              "sets": sets}, 1e-4))
        for _ in range(3):
            gate.append(("locality construction p2", "law_locality", 2.0,
                         {"trials": 8, "route": "construction"}, 1e-6))
        for p in (1.5, 2.0, 3.0):
            gate.append((f"chain_rule construction p{p:g}", "law_chain_rule",
                         p, {"trials": 1, "route": "construction",
                             "derivative_trials": 0}, 1e-4))
        for _ in range(2):
            gate.append(("image_density construction p2",
                         "law_image_density", 2.0,
                         {"trials": 2, "probes": 50, "route": "construction",
                          "sched": laws.ATOM_SCHEDULE}, 1e-8))
    for label, fn, p, kwargs, tol in gate:
        jobs.append(_gate_call(f"j{len(jobs):03d}", label, fn, p, _u64(rng),
                               kwargs, tol))
    return jobs


# ---------------------------------------------------------------------------
# kernels


def _ks_exact(profile: str, p: float) -> float | None:
    """int_0^1 |u'|^p for the interval profiles with a finite energy."""
    if profile == "linear":
        return 1.0
    if profile == "tent":
        return 2.0 ** p
    if profile == "sine":  # pi^p int |cos(pi x)|^p dx
        return math.pi ** p * math.gamma((p + 1) / 2) / (
            math.sqrt(math.pi) * math.gamma(p / 2 + 1))
    return None


def _check_ks(space: str, profile: str, p: float):
    def check(run: CliRun, out: Path) -> Verdict:
        bad = _exit_verdict(run)
        if bad:
            return bad
        header, rows = read_csv(out / "ks_energy.csv")
        divergent = header["divergent"] == "true"
        j = np.array([float(r[1]) for r in rows])
        if not np.all(np.isfinite(j) & (j > 0.0)):
            return Verdict(False, note="non-finite or non-positive J(r)")
        # a jump (step, or linear wrapping round the torus) must diverge
        jump = profile == "step" or (space == "torus" and profile == "linear")
        if divergent != jump:
            return Verdict(False, note=f"divergent={divergent} for {profile}")
        exact = _ks_exact(profile, p)
        if space != "interval" or exact is None:
            return Verdict(True, note="divergence flag only")
        limit = float(header["extrapolated"])
        if profile == "linear":  # criterion 09: lim J = 1/(p+1)
            dev, tol = abs(limit - 1 / (p + 1)) * (p + 1), KS_LIMIT_TOL
        else:                    # criterion 09: (p+1) lim J = E(u)
            dev, tol = abs((p + 1) * limit - exact) / exact, KS_CANON_TOL
        return Verdict(dev <= tol, dev / tol, note=f"limit dev {dev:.2e}")
    return check


def _check_renorm(run: CliRun, out: Path) -> Verdict:
    bad = _exit_verdict(run)
    if bad:
        return bad
    _, rows = read_csv(out / "sg_renorm.csv")
    ratio = 0.0
    for p, rho, residual, _, converged in rows:
        if converged != "true":
            return Verdict(False, honest=True, note=f"p={p} not converged")
        ratio = max(ratio, float(residual) / RESIDUAL_TOL)
        if float(p) == 2.0:
            ratio = max(ratio, abs(float(rho) - 5.0 / 3.0) / RHO2_TOL)
    return Verdict(ratio <= 1.0, ratio, note=f"{len(rows)} exponents")


def _harmonic_job(jid, graph, level, p, bv):
    def call(out):
        from penergy import gasket
        return gasket.harmonic_extension(graph, p, bv)

    def check(res, out) -> Verdict:
        if not res.converged:
            return Verdict(False, honest=True,
                           note=f"converged=False after {res.iterations} it")
        # the minimiser cannot cost more than the p=2 start it improved on
        from penergy import gasket
        start = gasket.exact_p2_extension(graph, bv)
        e = lambda v: float(np.sum(np.abs(v[graph.edge_j] - v[graph.edge_i])
                                   ** p))
        ok = e(res.values) <= e(start) * (1 + 1e-12)
        return Verdict(ok, note=f"{res.iterations} iterations")
    return Job(jid, "harmonic", f"harmonic level{level} p{p:g}", call, check)


def kernels(rng, work: Path, tiny: bool):
    """ks-energy and sg-renorm CLI jobs plus gasket harmonic extensions."""
    from penergy import gasket, ks
    n_small, n_big, sides, levels = (2000, 4000, (32, 48), (2, 3)) if tiny \
        else (20000, 100000, (128, 256), (6, 7))
    big = ks.SampledSpace.interval(n_big)
    # r_max makes an N=1e5 p=2 scan cost about what an N=2e4 one does
    r_big = ks.default_r_sequence(big, r_max=0.01 if tiny else 0.0016)
    tori = {s: ks.SampledSpace.torus(s) for s in sides}
    torus_r_max = (0.3, 0.3) if tiny else (0.08, 0.05)
    r_torus = {s: ks.default_r_sequence(tori[s], r_max=r)
               for s, r in zip(sides, torus_r_max)}
    graphs = {lev: gasket.build_gasket(lev) for lev in levels}
    specs = []  # (kind, label, argv, check)

    def ks_spec(kind, space, n, p, profile, r_list=None):
        argv = ["ks-energy", "--seed", str(_u64(rng)), "--space", space,
                "--n", str(n), "--p", str(p), "--profile", profile]
        if r_list is not None:
            argv += ["--r-list", ",".join(repr(float(r)) for r in r_list)]
        specs.append((kind, f"ks {space} n{n} p{p:g} {profile}", argv,
                      _check_ks(space, profile, p)))

    # Job times group into a cheap band (< 0.25 s, 8 jobs), a middle band
    # (about 0.35 s, 7 interval scans at p=2), two 0.45 s torus scans and a
    # heavy band (> 0.5 s, 5 jobs), so the median job run falls inside the
    # middle band and the tail percentile (p83 of three passes) among the
    # heavy jobs; the seed moves the sg-renorm exponents and the gasket
    # boundary data.
    ks_spec("ks-torus", "torus", sides[0], 2.0, "tent", r_torus[sides[0]])
    ks_spec("ks-torus", "torus", sides[0], 2.0, "linear", r_torus[sides[0]])
    ks_spec("ks-torus", "torus", sides[0], 3.0, "sine", r_torus[sides[0]])
    ks_spec("ks-torus", "torus", sides[0], 3.0, "step", r_torus[sides[0]])
    ks_spec("ks-torus", "torus", sides[1], 2.0, "tent", r_torus[sides[1]])
    for prof in ("linear", "sine", "tent", "step"):
        ks_spec("ks-interval", "interval", n_small, 2.0, prof)
    ks_spec("ks-interval", "interval", n_small, 3.0, "sine")
    for p, prof in ((2.0, "linear"), (2.0, "sine"), (2.0, "step"),
                    (3.0, "tent")):
        ks_spec("ks-interval", "interval", n_big, p, prof, r_big)
    for i in range(1 if tiny else 5):
        p_list = [round(float(rng.uniform(1.1, 6.0)), 3)]
        if i == 0:
            p_list = [2.0] + p_list  # criterion 10's exact rho_2 = 5/3
        path = _write_config(work, f"renorm{i}",
                             {"seed": _u64(rng), "p_list": p_list})
        specs.append(("sg-renorm", f"sg-renorm p={p_list}",
                      ["--config", path, "sg-renorm"], _check_renorm))
    jobs = [Job(f"j{i:03d}", kind, label,
                lambda out, a=argv: run_cli(a + ["--out", str(out)]), check)
            for i, (kind, label, argv, check) in enumerate(specs)]
    # p=1.5 does not converge at levels 5-7; it stays in the mix as a
    # counted failure
    for level, p in ((levels[1], 3.0), (levels[1], 4.0), (levels[0], 1.5)):
        jobs.append(_harmonic_job(f"j{len(jobs):03d}", graphs[level], level,
                                  p, rng.uniform(-1.0, 1.0, 3)))
    return jobs


WORKLOADS = {"fold_measure": fold_measure, "law_audit": law_audit,
             "kernels": kernels}
