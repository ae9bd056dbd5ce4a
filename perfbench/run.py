"""penergy benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload fold_measure --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there.  The seed generates the job list (see ``workloads.py``);
jobs then run one after another in this process.  ``--trace 0`` makes
round(seconds / PASS_SECONDS) passes over the list and reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` makes one untraced and
one traced pass plus the workload's serial baseline cases and reports the
per-layer metrics.  The last line of standard output is one JSON object.
Spans, per-job records and baseline timings go to ``perfbench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# seconds one pass of each workload's job list takes on a 2-core Xeon
PASS_SECONDS = 10
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def _percentile_tail(times):
    """Value at the highest percentile with >= TAIL_BEYOND samples beyond."""
    ordered = sorted(times)
    idx = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def _machine() -> dict:
    import numpy
    import scipy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Runs:
    """Every timed run of every job, over one or more passes."""

    def __init__(self):
        self.samples: list[float] = []
        self.pass_walls: list[float] = []
        self.records: list[dict] = []
        self.failed = 0
        self.dishonest = 0
        self.err_ratios: list[float] = []

    @property
    def wall(self) -> float:
        """Median wall time of one pass over the job list.  On a shared
        machine the CPU can switch between a fast and a slow state every
        few seconds, so medians are steadier than minima."""
        return statistics.median(self.pass_walls)

    def add(self, job, seconds: float, verdict) -> None:
        self.samples.append(seconds)
        if verdict.ok:
            if verdict.err_ratio is not None:
                self.err_ratios.append(verdict.err_ratio)
        else:
            self.failed += 1
            self.dishonest += not verdict.honest
        self.records.append({"job": job.jid, "kind": job.kind,
                             "label": job.label, "s": seconds,
                             "ok": verdict.ok, "honest": verdict.honest,
                             "err_ratio": verdict.err_ratio,
                             "note": verdict.note})


def _run_job(job, out: Path):
    """(result, exception text, ConvergenceError raised) of one call."""
    from penergy.construction import ConvergenceError
    out.mkdir(parents=True, exist_ok=True)
    try:
        return job.call(out), None, False
    except ConvergenceError as exc:
        return None, f"ConvergenceError: {exc}", True
    except Exception:  # a job must not stop the run; record the failure
        return None, traceback.format_exc(limit=3), False


def _out_dir(work: Path, job) -> Path:
    # one directory per kind: the out dir is echoed into every CSV header,
    # so repeats of a job must write to the same place
    return work / "jobs" / job.kind


def run_pass(jobs, work: Path, expect: dict, runs: Runs,
             tracer=None) -> None:
    """Time each job once, in order; verify it outside the timed region.

    ``expect`` holds each job's output from its first run (the warm-up for
    the first job of a kind); every later run must match it byte for byte
    (criterion 11).
    """
    from workloads import Verdict
    pass_wall = 0.0
    for job in jobs:
        out = _out_dir(work, job)
        if tracer is not None:
            tracer.begin_job(job.jid)
        t0 = time.perf_counter()
        value, error, honest = _run_job(job, out)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_job(t0, t1)
            tracer.active = False
        if error is not None:
            verdict = Verdict(False, honest=honest, note=error)
        else:
            try:
                verdict = job.check(value, out)
            except Exception:
                verdict = Verdict(False, note=traceback.format_exc(limit=3))
            if verdict.ok:
                seen = expect.setdefault(job.jid, job.fingerprint(value, out))
                if seen != job.fingerprint(value, out):
                    verdict = Verdict(False, note="output differs from the "
                                      "job's first run")
        if tracer is not None:
            tracer.active = True
        runs.add(job, t1 - t0, verdict)
        pass_wall += t1 - t0
    runs.pass_walls.append(pass_wall)


def warm_up(jobs, work: Path) -> dict:
    """Run the first job of each kind untimed; keep what it wrote."""
    expect, kinds = {}, set()
    for job in jobs:
        if job.kind in kinds:
            continue
        kinds.add(job.kind)
        out = _out_dir(work, job)
        value, error, _ = _run_job(job, out)
        if error is None:
            expect[job.jid] = job.fingerprint(value, out)
    return expect


def end_to_end(setup_s: float, runs: Runs) -> dict:
    tail, pct = _percentile_tail(runs.samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(runs.samples)
    over = f"over {len(runs.pass_walls)} passes"
    return {
        "setup_s": (setup_s, "s", SETUP_REPEATS, "median"),
        "wall_s": (runs.wall, "s", len(runs.pass_walls), f"median {over}"),
        "job_p50_s": (statistics.median(runs.samples), "s", n,
                      f"job runs {over}"),
        "job_tail_s": (tail, "s", n, f"p{pct:.1f} of job runs {over}"),
        "peak_rss_mb": (rss_mb, "MB", 1, ""),
        "pass_frac": ((n - runs.failed) / n, "frac", n,
                      f"failed_frac {runs.failed / n:.4f}"),
        "max_err_ratio": (max(runs.err_ratios, default=0.0), "ratio",
                          len(runs.err_ratios), ""),
    }


def traced_metrics(workload, seed, jobs, work, expect,
                   tiny) -> tuple[dict, list]:
    """Per-layer metrics from a traced pass, beside an untraced one."""
    import baseline
    from tracer import Tracer, layer_metrics
    plain, traced = Runs(), Runs()
    run_pass(jobs, work, expect, plain)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    run_pass(jobs, work, expect, traced, tracer)
    tracer.active = False
    tracer.uninstall()
    cases = baseline.run(workload, work, tiny)

    kinds = {job.jid: job.kind for job in jobs}
    metrics = layer_metrics(tracer.spans, kinds)
    metrics["trace_overhead_frac"] = traced.wall / plain.wall - 1.0
    for name in baseline.CASES:
        metrics[f"baseline.{name}.s"] = cases.get(name, 0.0)
    metrics["cli.check_laws.jobs2_speedup"] = (
        cases["check_laws_jobs1"] / cases["check_laws_jobs2"]
        if "check_laws_jobs2" in cases else 0.0)

    machine = {**_machine(), "seed": seed}
    (work / "baseline.json").write_text(json.dumps(
        {"workload": workload, "machine": machine, "cases_s": cases},
        indent=1))
    tracer.dump(work / "spans.jsonl.gz")
    print(f"machine: {json.dumps(machine)}")
    print(f"traced pass: {traced.wall:.3f} s, untraced pass: "
          f"{plain.wall:.3f} s")
    for case, secs in cases.items():
        print(f"baseline {case}: {secs:.3f} s (best of {baseline.REPEATS})")
    print(f"spans: {work / 'spans.jsonl.gz'}")
    return {k: (v, None, None, "") for k, v in metrics.items()}, \
        [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=3 * PASS_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every job, for the smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "penergy" / "__init__.py").is_file():
        print(f"error: no penergy sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy.interpolate  # noqa: F401  (gasket's solvers)
    import scipy.optimize  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import penergy.cli  # noqa: F401
    from workloads import WORKLOADS
    import_s = time.perf_counter() - T_START

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tiny = args.size == "tiny"
    work = HERE / "out" / (f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{os.getpid()}")
    work.mkdir(parents=True, exist_ok=True)

    # set-up after the imports (job generation, fixtures, one warm-up job
    # per kind) is repeated and its median reported
    setup_reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = WORKLOADS[args.workload](np.random.default_rng(args.seed),
                                        work, tiny)
        expect = warm_up(jobs, work)
        setup_reps.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_reps)
    print(f"setup: imports {import_s:.3f} s, generation and warm-ups "
          f"{', '.join(f'{t:.3f}' for t in setup_reps)} s; "
          f"{len(jobs)} jobs per pass")

    if args.trace == 0:
        passes = max(1, round(args.seconds / PASS_SECONDS))
        run = Runs()
        for _ in range(passes):
            run_pass(jobs, work, expect, run)
        metrics = end_to_end(setup_s, run)
        runs = [run]
    else:
        metrics, runs = traced_metrics(args.workload, args.seed, jobs, work,
                                       expect, tiny)
    (work / "jobs.json").write_text(json.dumps(
        [r for run in runs for r in run.records], indent=1))
    shutil.rmtree(work / "jobs", ignore_errors=True)

    for rec in (r for run in runs for r in run.records if not r["ok"]):
        print(f"job {rec['job']} {rec['label']}: FAILED "
              f"({'reported by penergy' if rec['honest'] else 'wrong'}): "
              f"{rec['note'].strip().splitlines()[-1]}")
    for name, (value, unit, count, extra) in metrics.items():
        tail = f" n={count}" if count is not None else ""
        print(f"{name} = {value:.6g}{' ' + unit if unit else ''}{tail}"
              f"{' ' + extra if extra else ''}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": all(run.dishonest == 0 for run in runs),
        "attempted": sum(len(run.samples) for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]][0]),
                                "unit": m["unit"]} for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
