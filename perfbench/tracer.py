"""Span recorder that wraps penergy's public functions from outside.

The program is not edited: ``Tracer.install`` replaces module attributes,
class attributes and registry entries (``cli.COMMANDS``, ``laws.ALL_LAWS``)
with wrappers, in every ``penergy`` module that holds the same function
object, so names a module imported from another (``cli`` importing
``energy_measure``, ``laws`` importing ``F_value``) are traced too.
``uninstall`` puts the originals back.

Each span records name, start, end, parent, job id and thread id, plus a
small ``info`` dict of exact work counts taken from arguments and results.
Spans stay in memory; ``dump`` writes them once the run ends.  A span that
opens on a thread with no open span of its own (a pool thread started by
``check-laws --jobs 2``) takes as parent the innermost open span of the
thread that runs the job, which is the span waiting on the pool.  Self
time is a span's duration minus its same-thread children's durations and
minus the union of its other-thread children's intervals, so time spent
waiting on a pool is not counted as the waiter's own.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

MODULES = ("cli", "reporting", "sampler", "pl", "forms", "construction",
           "laws", "ks", "gasket")

LAW_NAMES = ("chain_rule", "continuity", "domination", "functional_identity",
             "homogeneity_shift", "image_density", "leibniz", "locality",
             "measure_clarkson", "measure_triangle", "minimal_dominant",
             "minmax_bound", "multivariable_chain", "total_mass",
             "two_variable")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    tid: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# exact work counts attached to spans


def _ks_interval_pairs(space, u, kernel):
    n = len(u)
    k_max = min(max(math.ceil(kernel.r / space.spacing) - 1, 0), n - 1)
    return k_max * n - k_max * (k_max + 1) // 2


def _ks_torus_pairs(space, u, kernel):
    import numpy as np
    side, h, r = space.side, space.spacing, kernel.r
    k_max = min(max(math.ceil(r / h) - 1, 0), side // 2)
    if k_max == 0:
        return 0
    off = np.arange(-k_max, k_max + 1)
    wrap = np.minimum(np.abs(off), side - np.abs(off)) * h
    dist2 = wrap[:, None] ** 2 + wrap[None, :] ** 2
    offsets = int(np.count_nonzero(dist2 < r * r)) - 1  # drop (0, 0)
    return offsets * side * side


def _info_energy_measure(args, kwargs, result):
    return {"thresholds": int(result.nodes.size),
            "levels": len(result.levels_used)}


def _info_ks(count):
    def info(args, kwargs, result):
        pairs = count(*args[:3])
        # one float64 difference per evaluated pair
        return {"pairs": pairs, "bytes": 8 * pairs}
    return info


def _info_iterations(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged)}


def _info_write_csv(args, kwargs, result):
    return {"bytes": result.stat().st_size}


def _route_of(fn):
    sig = inspect.signature(fn)
    if "route" not in sig.parameters:
        return None

    def info(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"route": bound.arguments["route"]}
    return info


# ---------------------------------------------------------------------------
# what gets wrapped


def targets():
    """(span name, owner, attribute, info hook) for every traced callable."""
    from penergy import (cli, construction, forms, gasket, ks, laws, pl,
                         reporting, sampler)
    out = [("cli.main", cli, "main", None)]
    for cmd in ("validate_form", "build_measure", "check_laws", "ks_energy",
                "sg_renorm"):
        out.append((f"cli.{cmd}", cli, f"cmd_{cmd}", None))
    out += [("reporting.write_csv", reporting, "write_csv", _info_write_csv),
            ("reporting.svg_chart", reporting, "svg_chart", None),
            ("reporting.write_svg", reporting, "write_svg", None)]
    for meth in ("pl", "pl_pair", "nonzero_pl", "disjoint_support_pair",
                 "vertex_values", "vertex_pair", "interval_union",
                 "with_slope_floor"):
        out.append((f"sampler.{meth}", sampler.PLSampler, meth, None))
    # affine_combine stays unwrapped: it is the body of PLFunction +/-
    for fn in ("lattice", "shifted_cut", "compose", "cut", "triangle_fold",
               "pl_product", "pl_power_interp", "sublevel_set"):
        out.append((f"pl.{fn}", pl, fn, None))
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        out.append(("pl.arith", pl.PLFunction, op, None))
    for meth in ("energy", "energy_between", "cumulative_energy",
                 "density_cells", "energy_derivative", "seminorm"):
        out.append((f"forms.{meth}", forms.PLIntervalForm, meth, None))
    for fn in ("check_clarkson", "check_assumptions", "form_from_descriptor"):
        out.append((f"forms.{fn}", forms, fn, None))
    out += [("construction.energy_measure", construction, "energy_measure",
             _info_energy_measure),
            ("construction.reference_measure", construction,
             "reference_measure", None),
            ("construction.F_value", construction, "F_value", None),
            ("construction.distribution", construction, "distribution", None),
            ("construction.covering_check", construction, "covering_check",
             None),
            # set_masses lives in laws but is the construction route's batch
            # entry point; it is reported under the construction layer
            ("construction.set_masses", laws, "set_masses", None)]
    for law in LAW_NAMES:
        fn = getattr(laws, f"law_{law}")
        out.append((f"laws.{law}", laws, f"law_{law}", _route_of(fn)))
    for fn in ("set_mass_oracle", "signed_mass_oracle", "two_variable_measure",
               "pushforward_density", "dominant_measure", "run_all_laws",
               "dyadic_sets", "default_set_family", "heavier_form"):
        out.append((f"laws.{fn}", laws, fn, None))
    out += [("ks.ks_energy", ks, "ks_energy", None),
            ("ks.interval", ks, "_ks_interval", _info_ks(_ks_interval_pairs)),
            ("ks.torus", ks, "_ks_torus", _info_ks(_ks_torus_pairs)),
            ("ks.ks_limit_scan", ks, "ks_limit_scan", None),
            ("ks.ks_vs_canonical", ks, "ks_vs_canonical", None),
            ("ks.default_r_sequence", ks, "default_r_sequence", None),
            ("ks.profile_values", ks, "profile_values", None)]
    out += [("gasket.harmonic_extension", gasket, "harmonic_extension",
             _info_iterations),
            ("gasket.renormalization_constant", gasket,
             "renormalization_constant", _info_iterations),
            ("gasket.exact_p2_extension", gasket, "exact_p2_extension", None),
            ("gasket.build_gasket", gasket, "build_gasket", None),
            ("gasket.graph_energy", gasket, "graph_energy", None),
            ("gasket.renormalization_p2_oracle", gasket,
             "renormalization_p2_oracle", None)]
    return out


class Tracer:
    """Wraps penergy callables and records one Span per call while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.job: str | None = None
        self.job_root: int | None = None
        self.job_stack: list[int] = []  # open spans of the job's thread
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []  # (module, class or registry dict, key, original)

    # -- job scoping -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_job(self, job_id: str) -> None:
        self.job = job_id
        self.job_root = next(self._ids)
        self.job_stack = self._stack()

    def end_job(self, start: float, end: float) -> None:
        self.spans.append(Span(self.job_root, "job", start, end, None,
                               self.job, threading.get_ident()))
        self.job = None
        self.job_root = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, info_hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            # a slice is taken atomically, even while the job thread pops
            top = (stack or tracer.job_stack)[-1:]
            parent = top[0] if top else tracer.job_root
            stack.append(sid)
            result = done = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, start, end, parent, tracer.job,
                            threading.get_ident())
                if done and info_hook is not None:
                    span.info = info_hook(args, kwargs, result)
                tracer.spans.append(span)
        return traced

    def install(self) -> None:
        from penergy import cli, laws
        modules = [m for k, m in sys.modules.items()
                   if k == "penergy" or k.startswith("penergy.")]
        for name, owner, attr, hook in targets():
            if inspect.isclass(owner):
                orig = owner.__dict__[attr]
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)
            for registry in (cli.COMMANDS, laws.ALL_LAWS):
                for key, value in list(registry.items()):
                    if value is orig:
                        self._patches.append((registry, key, orig))
                        registry[key] = wrapped

    def uninstall(self) -> None:
        for container, key, orig in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "job": s.job,
                                     "thread": s.tid, "info": s.info})
                         + "\n")


# ---------------------------------------------------------------------------
# aggregation into per-layer metrics


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover.

    Same-thread children run one after another and are subtracted one by
    one.  Other-thread children (pool work the span waits on) may overlap
    each other, so the union of their intervals, clipped to the span, is
    subtracted.
    """
    by_id = {s.sid: s for s in spans}
    out = {s.sid: s.duration for s in spans}
    remote: dict[int, list] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None:
            continue
        if parent.tid == s.tid:
            out[parent.sid] -= s.duration
        else:
            remote.setdefault(parent.sid, []).append(
                (max(s.start, parent.start), min(s.end, parent.end)))
    for sid, intervals in remote.items():
        out[sid] -= _union_length(intervals)
    return out


def layer_metrics(spans, kinds: dict[str, str]) -> dict[str, float]:
    """The per-layer metrics of the benchmark from one traced pass.

    ``kinds`` maps job id -> job kind, used to split energy_measure time by
    the kind of function it was handed.
    """
    spans = [s for s in spans if s.name != "job"]
    selft = self_times(spans)
    m: dict[str, float] = {}

    def pick(prefix):
        return [s for s in spans if s.name == prefix]

    def calls(name):
        return float(len(pick(name)))

    def self_s(names):
        return sum(selft[s.sid] for s in spans if s.name in names)

    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(selft[s.sid] for s in spans
                                 if s.name.split(".")[0] == mod)
    m["cli.main.self_s"] = self_s({"cli.main"})
    csv = pick("reporting.write_csv")
    m["reporting.write_csv.calls"] = float(len(csv))
    m["reporting.write_csv.s"] = sum(s.duration for s in csv)
    m["reporting.write_csv.bytes"] = float(sum(s.info.get("bytes", 0)
                                               for s in csv))
    m["reporting.svg.s"] = sum(s.duration for s in spans
                               if s.name in ("reporting.svg_chart",
                                             "reporting.write_svg"))
    sampler = [s for s in spans if s.name.startswith("sampler.")]
    m["sampler.calls"] = float(len(sampler))
    for fn in ("lattice", "shifted_cut", "compose", "arith"):
        m[f"pl.{fn}.calls"] = calls(f"pl.{fn}")
        m[f"pl.{fn}.self_s"] = self_s({f"pl.{fn}"})
    for fn in ("energy", "cumulative_energy", "energy_between"):
        m[f"forms.{fn}.calls"] = calls(f"forms.{fn}")
    em = pick("construction.energy_measure")
    m["construction.energy_measure.self_s"] = sum(selft[s.sid] for s in em)
    for kind in ("tame", "steep", "cells"):
        m[f"construction.energy_measure.{kind}_s"] = sum(
            selft[s.sid] for s in em if kinds.get(s.job) == kind)
    em_done = [s for s in em if s.info]  # calls that returned
    m["construction.threshold_levels"] = float(sum(
        s.info["thresholds"] * s.info["levels"] for s in em_done))
    m["construction.levels_run.p50"] = float(statistics.median(
        [s.info["levels"] for s in em_done])) if em_done else 0.0
    m["construction.F_value.calls"] = calls("construction.F_value")
    m["construction.F_value.self_s"] = self_s({"construction.F_value"})
    m["laws.set_masses.calls"] = calls("construction.set_masses")
    m["laws.set_masses.self_s"] = self_s({"construction.set_masses"})
    for law in LAW_NAMES:
        m[f"laws.{law}.s"] = sum(s.duration for s in pick(f"laws.{law}"))
    m["laws.set_mass_oracle.calls"] = calls("laws.set_mass_oracle")
    m["laws.set_mass_oracle.self_s"] = self_s({"laws.set_mass_oracle"})
    for route in ("oracle", "construction"):
        m[f"laws.route_{route}_s"] = sum(
            s.duration for s in spans if s.info.get("route") == route)
    m["ks.ks_energy.calls"] = calls("ks.ks_energy")
    m["ks.interval.self_s"] = self_s({"ks.interval"})
    m["ks.torus.self_s"] = self_s({"ks.torus"})
    kern = pick("ks.interval") + pick("ks.torus")
    pairs = sum(s.info.get("pairs", 0) for s in kern)
    m["ks.pair_evals"] = float(pairs)
    m["ks.bytes_computed"] = float(sum(s.info.get("bytes", 0) for s in kern))
    kern_s = m["ks.interval.self_s"] + m["ks.torus.self_s"]
    m["ks.pair_evals_per_s"] = pairs / kern_s if kern_s > 0 else 0.0
    for fn in ("harmonic_extension", "renormalization_constant"):
        sp = pick(f"gasket.{fn}")
        m[f"gasket.{fn}.self_s"] = sum(selft[s.sid] for s in sp)
        m[f"gasket.{fn}.iterations"] = float(sum(s.info.get("iterations", 0)
                                                 for s in sp))
    m["gasket.exact_p2_extension.calls"] = calls("gasket.exact_p2_extension")
    m["gasket.exact_p2_extension.self_s"] = self_s(
        {"gasket.exact_p2_extension"})
    return m


# metrics that are exact work counts and must repeat bit for bit
EXACT_COUNTS = ("construction.threshold_levels", "forms.cumulative_energy.calls",
                "ks.pair_evals", "gasket.harmonic_extension.iterations",
                "gasket.renormalization_constant.iterations",
                "reporting.write_csv.bytes")
