"""Command-line harness for reproducible form experiments.

Subcommands: validate-form, build-measure, check-laws, ks-energy,
sg-renorm.  Experiment parameters come from a JSON config, with the global
flags --seed / --out overriding the corresponding entries; ks-energy can
be driven entirely by its own flags.  One reader checks every object of a
config (top level, form, function, schedule) against its schema at load:
an unknown key, or a number that is not a finite JSON number, exits 2
before any output is written.  Every config value is echoed into the CSV
headers, and identical config + seed reproduce the output files byte for
byte.

Exit codes: 0 pass, 1 law failure, 2 config error, 3 non-convergence or
float overflow.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import reporting
from .construction import (
    ConvergenceError,
    FoldSchedule,
    MEASURE_SCHEDULE,
    energy_measure,
    reference_measure,
)
from .forms import (
    PLIntervalForm,
    check_assumptions,
    form_from_descriptor,
    step_at,
)
from .ks import (
    GRID_SIZES,
    SampledSpace,
    default_r_sequence,
    ks_limit_scan,
    profile_values,
)
from .laws import ALL_LAWS, law_domination
from .pl import PieceCapError, PLFunction
from .sampler import PLSampler

EXIT_PASS = 0
EXIT_LAW_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_REQUIRED = object()


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


# ---------------------------------------------------------------------------
# config schema: each maps the keys of one JSON object to (default, check)


def _read(schema: dict, raw, where: str) -> dict:
    """The checked entries of the JSON object raw; null means absent."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    out = {}
    for key, (default, check) in schema.items():
        if raw.get(key) is not None:
            out[key] = check(raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required {where} key: {key}")
        else:
            # defaults take the same path as given values, so a default
            # form descriptor comes out as a built form
            out[key] = default if default is None else check(default)
    return out


def _number(name, low=None, high=None, integer=False):
    """Check for a finite JSON number, never a bool or a string.  An
    integer must lie in [low, high] and is kept; any other number must
    exceed low and comes out as a float."""
    want = "an integer" if integer else "a finite number"
    if low is not None:
        want += f" {'>=' if integer else '>'} {low}"
    if high is not None:
        want += f" and <= {high}"

    def check(v):
        if not integer and type(v) in (int, float):
            # NaN, the infinities and integers past the float range: inf
            v = float(v) if abs(v) <= sys.float_info.max else math.inf
        if type(v) is not (int if integer else float) or v == math.inf \
                or low is not None and (v < low if integer else v <= low) \
                or high is not None and v > high:
            raise ConfigError(f"{name} must be {want}")
        return v
    return check


def _list(name, item, least=1):
    """Check for a JSON list of at least `least` entries, each read by
    item; a tuple of checks reads a row of exactly that many entries."""
    row = isinstance(item, tuple)
    want = f"{len(item)} entries" if row else f"at least {least} entries"

    def check(v):
        if not isinstance(v, list) or (len(v) != len(item) if row
                                       else len(v) < least):
            raise ConfigError(f"{name} must be a list of {want}")
        return [c(x) for c, x in zip(item if row else [item] * len(v), v)]
    return check


def _text(name, options=None):
    """Check for a nonempty JSON string, one of options if they are given."""
    want = "a nonempty string" if options is None \
        else f"one of {sorted(options)}"

    def check(v):
        if not isinstance(v, str) or not v \
                or options is not None and v not in options:
            raise ConfigError(f"{name} must be {want}")
        return v
    return check


def _kind(name, schemas):
    """Check for an object that the schema its `kind` picks reads.  The
    object comes out as given, so a report header echoes it unchanged."""
    pick = _text(f"{name}.kind", schemas)

    def check(v):
        if not isinstance(v, dict):
            raise ConfigError(f"{name} must be a JSON object")
        _read({"kind": (_REQUIRED, pick), **schemas[pick(v.get("kind"))]},
              v, name)
        return v
    return check


_P = _number("p", low=1.0)
_WEIGHT = _list("weight", _list("weight cell", (_number("weight entry"),) * 3))
_VERTEX = _number("edge end", low=0, integer=True)

_FORMS = {
    "pl": {"p": (_REQUIRED, _P), "weight": (None, _WEIGHT)},
    "graph": {
        "p": (_REQUIRED, _P),
        "vertices": (_REQUIRED, _number("form.vertices", low=1,
                                        integer=True)),
        "edges": (_REQUIRED, _list("form.edges", _list(
            "edge", (_VERTEX, _VERTEX, _number("conductance"))), least=0)),
        "vertex_weights": (None, _list("form.vertex_weights",
                                       _number("vertex weight"))),
    },
    "sg": {"p": (_REQUIRED, _P),
           "level": (_REQUIRED, _number("form.level", low=0, integer=True)),
           "rho": (None, _number("form.rho"))},
}


def _as_form(*kinds):
    read = _kind("form", {kind: _FORMS[kind] for kind in kinds})

    def check(v):
        try:
            return form_from_descriptor(read(v))
        except ValueError as exc:
            raise ConfigError(f"bad form descriptor: {exc}") from exc
    return check


_POINTS = _list("function points", _number("function point"))

_FUNCTION = _kind("function", {
    "identity": {},
    "tent": {"peak": (None, _number("function.peak")),
             "height": (None, _number("function.height"))},
    "constant": {"value": (None, _number("function.value"))},
    "sample": {"index": (None, _number("function.index", low=0,
                                       integer=True))},
    "points": {"breakpoints": (_REQUIRED, _POINTS),
               "values": (_REQUIRED, _POINTS)},
})


_SCHEDULE = {key: (None, _number(f"schedule.{key}", low=1, integer=True))
             for key in ("n_min", "n_max", "stall_count")}
_SCHEDULE["rel_tol"] = (None, _number("schedule.rel_tol", low=0.0))


def _as_schedule(v):
    """The schedule with the numbers as given, so "rel_tol": 1 stays 1 in
    the header; FoldSchedule checks n_min <= n_max <= MAX_CUT_LEVEL."""
    _read(_SCHEDULE, v, "schedule")
    try:
        return dataclasses.replace(MEASURE_SCHEDULE, **{
            key: x for key, x in v.items() if x is not None})
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc


def _as_law_list(v):
    return sorted(set(_list("laws", _text("law", ALL_LAWS))(v)))


def _as_r_list(v):
    if isinstance(v, str):  # the --r-list flag
        try:
            v = [float(tok) for tok in v.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad r value: {exc}") from exc
    return _list("r_list", _number("r", low=0.0), least=2)(v)


_PROFILES = ("linear", "sine", "tent", "step", "file")
_SEED = _number("seed", low=0, high=2 ** 64 - 1, integer=True)
_COMMON = {"seed": (_REQUIRED, _SEED), "out_dir": (".", _text("out_dir"))}

SCHEMAS = {
    "validate-form": {
        **_COMMON,
        "form": ({"kind": "pl", "p": 2.0}, _as_form(*_FORMS)),
        "trials": (64, _number("trials", low=1, integer=True)),
    },
    "build-measure": {
        **_COMMON,
        "form": ({"kind": "pl", "p": 2.0}, _as_form("pl")),
        "function": ({"kind": "identity"}, _FUNCTION),
        "resolution": (512, _number("resolution", low=1, high=100_000,
                                    integer=True)),
        "schedule": ({}, _as_schedule),
    },
    "check-laws": {
        **_COMMON,
        "form": ({"kind": "pl", "p": 2.0}, _as_form("pl")),
        "trials": (12, _number("trials", low=1, integer=True)),
        "laws": (sorted(ALL_LAWS), _as_law_list),
        "domination_weight": (None, _WEIGHT),
    },
    "sg-renorm": {
        **_COMMON,
        "p_list": (_REQUIRED, _list("p_list", _P)),
        "grid_size": (256, _number("grid_size", low=1, high=4096,
                                   integer=True)),
        "tol": (1e-9, _number("tol", low=0.0)),
        "max_iterations": (400, _number("max_iterations", low=1,
                                        integer=True)),
    },
    "ks-energy": {
        **_COMMON,
        "seed": (0, _SEED),
        "space": ("interval", _text("space", GRID_SIZES)),
        "n": (2000, _number("n", low=1, integer=True)),
        "p": (2.0, _P),
        "r_list": (None, _as_r_list),
        "profile": ("linear", _text("profile", _PROFILES)),
        "profile_file": (None, _text("profile_file")),
    },
}


def _load_config(command: str, args) -> dict:
    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    flags = {"seed": args.seed, "out_dir": args.out}
    if command == "ks-energy":
        flags.update((key, getattr(args, key)) for key in (
            "space", "n", "p", "r_list", "profile", "profile_file"))
    raw.update((key, v) for key, v in flags.items() if v is not None)
    cfg = _read(SCHEMAS[command], raw, "config")
    if command == "ks-energy":
        _number(f"n on the {cfg['space']}", *GRID_SIZES[cfg["space"]],
                integer=True)(cfg["n"])
        if cfg["profile"] == "file" and cfg["profile_file"] is None:
            raise ConfigError("profile=file needs profile_file")
        if cfg["profile"] == "file" and cfg["space"] != "interval":
            raise ConfigError("file profiles sample onto the interval grid")
    return cfg


def _describe(value):
    """Config value as it should appear in a report header."""
    if hasattr(value, "to_descriptor"):
        return value.to_descriptor()
    if isinstance(value, FoldSchedule):
        return dataclasses.asdict(value)
    return value


def _header(command: str, cfg: dict) -> dict:
    # jobs stays out on purpose: it is accepted but changes nothing, and
    # the byte-identity guarantee quantifies over config + seed only
    header = {f"config.{k}": _describe(v) for k, v in cfg.items()}
    header["command"] = command
    return header


# ---------------------------------------------------------------------------
# commands


def _by_column(rows: list, width: int) -> list:
    """The columns of a list of row tuples, each cell as it was."""
    return [list(c) for c in zip(*rows)] if rows else [[]] * width


def _build_function(spec: dict, seed: int) -> PLFunction:
    spec = {key: v for key, v in spec.items() if v is not None}
    kind = spec["kind"]
    try:
        if kind == "identity":
            return PLFunction.identity()
        if kind == "tent":
            return PLFunction.tent(spec.get("peak", 0.5),
                                   spec.get("height"))
        if kind == "constant":
            return PLFunction.constant(spec.get("value", 0.0))
        if kind == "sample":
            return PLSampler(seed).nonzero_pl(spec.get("index", 0))
        return PLFunction(spec["breakpoints"], spec["values"])
    except ValueError as exc:
        raise ConfigError(f"bad function spec: {exc}") from exc


def cmd_validate_form(cfg: dict, args, out_dir: Path) -> int:
    form = cfg["form"]
    sampler = PLSampler(cfg["seed"])
    # energies past the float range exit 3, not as a failed audit
    with np.errstate(over="raise"):
        report = check_assumptions(form, sampler, cfg["trials"])
    clarkson = report.clarkson
    rows = []
    for name in sorted(report.checks):
        slack, tol, ok = report.checks[name]
        rows.append((name, slack, tol, "pass" if ok else "fail"))
    for name in sorted(clarkson.slacks):
        slack = clarkson.slacks[name]
        if slack is None:
            rows.append((f"clarkson.{name}", None, clarkson.tolerance,
                         "not applicable at this p"))
        else:
            status = "pass" if slack >= -clarkson.tolerance else "fail"
            rows.append((f"clarkson.{name}", slack, clarkson.tolerance,
                         status))
    for name in sorted(report.notes):
        rows.append((f"note.{name}", None, None, report.notes[name]))
    passed = report.passed
    header = _header("validate-form", cfg)
    header["passed"] = passed
    path = reporting.write_csv(out_dir / "validate_form.csv",
                               ("check", "worst_slack", "tolerance",
                                "status"), _by_column(rows, 4), header)
    print(f"validate-form: {len(rows)} checks, "
          f"{'PASS' if passed else 'FAIL'} -> {path}")
    return EXIT_PASS if passed else EXIT_LAW_FAILURE


def cmd_build_measure(cfg: dict, args, out_dir: Path) -> int:
    form = cfg["form"]
    fn = _build_function(cfg["function"], cfg["seed"])
    try:
        built = energy_measure(form, fn, cfg["resolution"], cfg["schedule"])
    except ConvergenceError as exc:
        trace = getattr(exc, "trace", None)
        rows = trace.to_rows() if trace is not None else []
        path = reporting.write_csv(
            out_dir / "build_measure_trace.csv",
            ("level", "energy", "inf_so_far"), _by_column(rows, 3),
            _header("build-measure", cfg))
        print(f"error: {exc}", file=sys.stderr)
        print(f"build-measure: non-convergence, trace -> {path}")
        return EXIT_NUMERIC
    exact = reference_measure(form, fn)
    # compare densities on the common grid refinement; its cell midpoints
    # are never nodes of either measure
    grid = np.union1d(built.nodes, exact.nodes)
    mids = 0.5 * (grid[:-1] + grid[1:])
    dens_built = step_at(built.nodes, built.density, mids)
    dens_exact = step_at(exact.nodes, exact.density, mids)
    scale = max(float(dens_exact.max(initial=0.0)), 1e-12)
    sup_gap = float(np.max(np.abs(dens_built - dens_exact))) / scale
    header = _header("build-measure", cfg)
    header["sup_rel_gap"] = sup_gap
    header["total_mass"] = built.total_mass()
    header["energy"] = form.energy(fn)
    header["levels_used"] = list(built.levels_used)
    path = reporting.write_csv(out_dir / "build_measure.csv",
                               ("cell_lo", "cell_hi", "density_fold",
                                "density_exact"),
                               (grid[:-1], grid[1:], dens_built, dens_exact),
                               header)
    print(f"build-measure: sup relative density gap {sup_gap:.3e} "
          f"-> {path}")
    if args.plot:
        chart = reporting.svg_chart(
            [("fold limit", *reporting.step_series(built.nodes,
                                                   built.density)),
             ("exact density", *reporting.step_series(exact.nodes,
                                                      exact.density))],
            title="energy measure density", x_label="x",
            y_label="density")
        reporting.write_svg(out_dir / "build_measure.svg", chart)
    return EXIT_PASS


def cmd_check_laws(cfg: dict, args, out_dir: Path) -> int:
    form = cfg["form"]
    sampler = PLSampler(cfg["seed"])
    trials = cfg["trials"]

    def run(name: str):
        if name == "domination" and cfg["domination_weight"] is not None:
            heavier = PLIntervalForm(form.p, weight=cfg["domination_weight"])
            return law_domination(form, heavier, sampler, trials=trials)
        return ALL_LAWS[name](form, sampler, trials)

    reports = [run(name) for name in cfg["laws"]]
    rows = [(r.law, r.trials, r.worst_slack, r.tolerance,
             "pass" if r.passed else "fail")
            for r in sorted(reports, key=lambda r: r.law)]
    failed = [r.law for r in reports if not r.passed]
    header = _header("check-laws", cfg)
    header["failed"] = len(failed)
    path = reporting.write_csv(out_dir / "check_laws.csv",
                               ("law", "trials", "worst_slack", "tolerance",
                                "status"), _by_column(rows, 5), header)
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"check-laws: {len(rows)} laws, {status} -> {path}")
    return EXIT_PASS if not failed else EXIT_LAW_FAILURE


def cmd_ks_energy(cfg: dict, args, out_dir: Path) -> int:
    space = (SampledSpace.interval if cfg["space"] == "interval"
             else SampledSpace.torus)(cfg["n"])
    if cfg["profile"] == "file":
        try:
            fn = PLFunction.from_json(Path(cfg["profile_file"]).read_text())
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"cannot load profile: {exc}") from exc
        u = fn.evaluate(space.points)
    else:
        u = profile_values(space, cfg["profile"])
    if cfg["r_list"] is not None:
        r_seq = np.asarray(cfg["r_list"], dtype=float)
    else:
        r_max = 0.05 if space.kind == "interval" else 0.15
        r_seq = default_r_sequence(space, r_max=r_max)
    try:
        scan = ks_limit_scan(space, u, cfg["p"], r_seq)
    except ValueError as exc:
        raise ConfigError(f"bad r sequence: {exc}") from exc
    header = _header("ks-energy", cfg)
    header["extrapolated"] = scan.extrapolated
    header["liminf_estimate"] = scan.liminf_estimate
    header["sup"] = scan.sup_value
    header["loglog_slope"] = scan.loglog_slope
    header["divergent"] = scan.divergent
    header["subsequence_gap"] = scan.subsequence_gap
    path = reporting.write_csv(out_dir / "ks_energy.csv",
                               ("r", "J", "sup_so_far"),
                               (scan.r_values, scan.j_values,
                                scan.running_sup), header)
    verdict = "divergent" if scan.divergent \
        else f"extrapolated {scan.extrapolated:.6g}"
    print(f"ks-energy: {scan.r_values.size} scales, {verdict} -> {path}")
    if args.plot:
        chart = reporting.svg_chart(
            [("J(r)", scan.r_values, scan.j_values),
             ("running sup", scan.r_values, scan.running_sup)],
            title="Korevaar-Schoen scan", x_label="r", y_label="J",
            log_x=True, log_y=True)
        reporting.write_svg(out_dir / "ks_energy.svg", chart)
    if not 0.0 <= scan.extrapolated < math.inf:
        # an energy limit is finite and nonnegative; at a large p the J
        # values leave the float's range and the extrapolation with them
        print(f"error: extrapolated limit {scan.extrapolated!r} is negative "
              "or not finite", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_PASS


def cmd_sg_renorm(cfg: dict, args, out_dir: Path) -> int:
    # only this command needs the gasket
    from .gasket import renormalization_constant
    results = [renormalization_constant(p, cfg["grid_size"], cfg["tol"],
                                        cfg["max_iterations"])
               for p in cfg["p_list"]]
    rows = [(res.p, res.rho, res.residual, res.iterations, res.converged)
            for res in results]
    header = _header("sg-renorm", cfg)
    path = reporting.write_csv(out_dir / "sg_renorm.csv",
                               ("p", "rho", "residual", "iterations",
                                "converged"), _by_column(rows, 5), header)
    stalled = [res.p for res in results if not res.converged]
    print(f"sg-renorm: {len(rows)} exponents"
          + (f", stalled at p={stalled}" if stalled else "")
          + f" -> {path}")
    if args.plot:
        series = [(f"p={res.p:g}", np.arange(1, len(res.rho_trace) + 1),
                   np.asarray(res.rho_trace)) for res in results]
        chart = reporting.svg_chart(series, title="renormalization trace",
                                    x_label="iteration", y_label="rho")
        reporting.write_svg(out_dir / "sg_renorm.svg", chart)
    return EXIT_NUMERIC if stalled else EXIT_PASS


COMMANDS = {
    "validate-form": cmd_validate_form,
    "build-measure": cmd_build_measure,
    "check-laws": cmd_check_laws,
    "ks-energy": cmd_ks_energy,
    "sg-renorm": cmd_sg_renorm,
}


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=argparse.SUPPRESS,
                        help="JSON experiment config")
    common.add_argument("--out", metavar="DIR", default=argparse.SUPPRESS,
                        help="output directory (default .)")
    common.add_argument("--seed", type=int, metavar="U64",
                        default=argparse.SUPPRESS,
                        help="sampler seed, overrides the config entry")
    common.add_argument("--jobs", type=int, metavar="N",
                        default=argparse.SUPPRESS,
                        help="accepted for compatibility and ignored: laws "
                        "run one after another (must be at least 1)")
    common.add_argument("--plot", action="store_true",
                        default=argparse.SUPPRESS,
                        help="also write SVG charts")
    parser = argparse.ArgumentParser(
        prog="penergy", parents=[common],
        description="reproducible experiments on p-energy forms")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    sub.add_parser("validate-form", parents=[common],
                   help="audit the form inequalities and Clarkson bounds")
    sub.add_parser("build-measure", parents=[common],
                   help="fold-limit energy measure vs the exact density")
    sub.add_parser("check-laws", parents=[common],
                   help="run the energy-measure law suite")
    ks = sub.add_parser("ks-energy", parents=[common],
                        help="Korevaar-Schoen kernel energy scan")
    ks.add_argument("--space", choices=tuple(GRID_SIZES), default=None)
    ks.add_argument("--n", type=int, default=None,
                    help="grid points (interval) or side length (torus)")
    ks.add_argument("--p", type=float, default=None)
    ks.add_argument("--r-list", dest="r_list", metavar="R1,R2,...",
                    default=None, help="strictly decreasing scales")
    ks.add_argument("--profile", choices=_PROFILES, default=None)
    ks.add_argument("--profile-file", dest="profile_file", metavar="PATH",
                    default=None, help="PL function JSON for profile=file")
    sub.add_parser("sg-renorm", parents=[common],
                   help="gasket renormalization constants")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing leaves
    it as it was, and building it costs some twenty times a parse."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PASS if not exc.code else EXIT_CONFIG
    for name, default in (("config", None), ("out", None), ("seed", None),
                          ("jobs", 1), ("plot", False)):
        if not hasattr(args, name):
            setattr(args, name, default)
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = _load_config(args.command, args)
        # the writers make the directory, so a run that fails writes none
        return COMMANDS[args.command](cfg, args, Path(cfg["out_dir"]))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, TypeError) as exc:
        # precondition violations surfaced by the law layer
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, PieceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:
        # a float power past the float range, as at a very large p
        print(f"error: the arithmetic overflowed the float range "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
