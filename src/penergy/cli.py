"""Command-line harness for reproducible form experiments.

Subcommands: validate-form, build-measure, check-laws, ks-energy,
sg-renorm.  Experiment parameters come from a JSON config (strict schema,
unknown keys rejected) with the global flags --seed / --out overriding the
corresponding entries; ks-energy can be driven entirely by its own flags.
Every materialized config value is echoed into the CSV header comments so
each report is self-describing, and identical config + seed reproduce the
output files byte for byte.

Exit codes: 0 pass, 1 law failure, 2 config error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .gasket import renormalization_constant
from .ks import SampledSpace, default_r_sequence, ks_limit_scan, profile_values
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
# config schema


def _as_seed(v):
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < 2 ** 64:
        raise ConfigError("seed must be an integer in [0, 2^64)")
    return v


def _as_positive_int(name, upper=None):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ConfigError(f"{name} must be a positive integer")
        if upper is not None and v > upper:
            raise ConfigError(f"{name} must be at most {upper}")
        return v
    return check


def _as_out_dir(v):
    if not isinstance(v, str) or not v:
        raise ConfigError("out_dir must be a nonempty path string")
    return v


def _as_form(v):
    if not isinstance(v, dict):
        raise ConfigError("form must be a descriptor object")
    try:
        return form_from_descriptor(v)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad form descriptor: {exc}") from exc


_FUNCTION_KINDS = {"identity", "tent", "constant", "sample", "points"}


def _as_function(v):
    """The spec as given, once its kind, keys and number types check out."""
    if not isinstance(v, dict) or v.get("kind") not in _FUNCTION_KINDS:
        raise ConfigError(
            f"function.kind must be one of {sorted(_FUNCTION_KINDS)}")
    numeric = ("peak", "height", "value", "breakpoints", "values")
    extra = set(v) - {"kind", "index", *numeric}
    if extra:
        raise ConfigError(f"unknown function keys: {sorted(extra)}")
    for key in numeric:
        given = v.get(key)
        if given is not None and any(_finite(x) is None for x in (
                given if isinstance(given, list) else [given])):
            raise ConfigError(f"function.{key} must hold finite numbers")
    index = v.get("index", 0)
    if isinstance(index, bool) or not isinstance(index, int) or index < 0:
        raise ConfigError("function.index must be an integer >= 0")
    return v


def _as_schedule(v):
    if not isinstance(v, dict):
        raise ConfigError("schedule must be an object")
    unknown = set(v) - {f.name for f in dataclasses.fields(FoldSchedule)}
    if unknown:
        raise ConfigError(f"unknown schedule keys: {sorted(unknown)}")
    try:
        return dataclasses.replace(MEASURE_SCHEDULE, **v)
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc


def _as_law_list(v):
    if not isinstance(v, list) or not v:
        raise ConfigError("laws must be a nonempty list of law names")
    unknown = [name for name in v if name not in ALL_LAWS]
    if unknown:
        raise ConfigError(f"unknown laws: {unknown}")
    return sorted(set(v))


def _as_weight(v):
    if not isinstance(v, list) or not all(
            isinstance(c, list) and len(c) == 3 for c in v):
        raise ConfigError("weight must be a list of [lo, hi, value] cells")
    check = _as_float("weight entry")
    return [(check(lo), check(hi), check(w)) for lo, hi, w in v]


def _finite(v) -> float | None:
    """v as a float if it is a finite JSON number, else None."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        return None
    return v if math.isfinite(v) else None


def _as_p_list(v):
    if not isinstance(v, list) or not v:
        raise ConfigError("p_list must be a nonempty list")
    out = []
    for p in v:
        p = _finite(p)
        if p is None or p <= 1:
            raise ConfigError("every p must be a finite number > 1")
        out.append(p)
    return out


def _as_p(v):
    return _as_p_list([v])[0]


def _as_float(name, low=None):
    def check(v):
        v = _finite(v)
        if v is None:
            raise ConfigError(f"{name} must be a finite number")
        if low is not None and v <= low:
            raise ConfigError(f"{name} must exceed {low}")
        return v
    return check


def _as_choice(name, options):
    def check(v):
        if v not in options:
            raise ConfigError(f"{name} must be one of {sorted(options)}")
        return v
    return check


def _as_r_list(v):
    if isinstance(v, str):
        try:
            v = [float(tok) for tok in v.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad r value: {exc}") from exc
    if not isinstance(v, list) or len(v) < 2:
        raise ConfigError("r_list needs at least two scales")
    return [_as_float("r", 0.0)(r) for r in v]


def _as_path(v):
    if not isinstance(v, str) or not v:
        raise ConfigError("expected a nonempty path string")
    return v


_COMMON = {
    "seed": (_REQUIRED, _as_seed),
    "out_dir": (".", _as_out_dir),
}

SCHEMAS = {
    "validate-form": {
        **_COMMON,
        "form": ({"kind": "pl", "p": 2.0}, _as_form),
        "trials": (64, _as_positive_int("trials")),
    },
    "build-measure": {
        **_COMMON,
        "form": ({"kind": "pl", "p": 2.0}, _as_form),
        "function": ({"kind": "identity"}, _as_function),
        "resolution": (512, _as_positive_int("resolution", upper=100_000)),
        "schedule": ({}, _as_schedule),
    },
    "check-laws": {
        **_COMMON,
        "form": ({"kind": "pl", "p": 2.0}, _as_form),
        "trials": (12, _as_positive_int("trials")),
        "laws": (sorted(ALL_LAWS), _as_law_list),
        "domination_weight": (None, _as_weight),
    },
    "sg-renorm": {
        **_COMMON,
        "p_list": (_REQUIRED, _as_p_list),
        "grid_size": (256, _as_positive_int("grid_size", upper=4096)),
        "tol": (1e-9, _as_float("tol", low=0.0)),
        "max_iterations": (400, _as_positive_int("max_iterations")),
    },
    "ks-energy": {
        "seed": (0, _as_seed),
        "out_dir": (".", _as_out_dir),
        "space": ("interval", _as_choice("space", {"interval", "torus"})),
        "n": (2000, _as_positive_int("n")),
        "p": (2.0, _as_p),
        "r_list": (None, _as_r_list),
        "profile": ("linear", _as_choice(
            "profile", {"linear", "sine", "tent", "step", "file"})),
        "profile_file": (None, _as_path),
    },
}


def _load_config(command: str, args) -> dict:
    raw = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    for key in ("seed", "out_dir"):
        flag = getattr(args, "out" if key == "out_dir" else key, None)
        if flag is not None:
            raw[key] = flag
    if command == "ks-energy":
        for key in ("space", "n", "p", "r_list", "profile", "profile_file"):
            flag = getattr(args, key, None)
            if flag is not None:
                raw[key] = flag
    schema = SCHEMAS[command]
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for key, (default, check) in schema.items():
        if key in raw and raw[key] is not None:
            cfg[key] = check(raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key: {key}")
        else:
            # defaults take the same path as user values, so a default
            # form descriptor comes out as a built form
            cfg[key] = default if default is None else check(default)
    return cfg


def _describe(value):
    """Config value as it should appear in a report header."""
    if hasattr(value, "to_descriptor"):
        return value.to_descriptor()
    if isinstance(value, FoldSchedule):
        return dataclasses.asdict(value)
    if isinstance(value, list):
        return [_describe(v) for v in value]
    return value


def _header(command: str, cfg: dict) -> dict:
    # jobs stays out on purpose: it is accepted but changes nothing, and
    # the byte-identity guarantee quantifies over config + seed only
    header = {f"config.{k}": _describe(v) for k, v in cfg.items()}
    header["command"] = command
    return header


# ---------------------------------------------------------------------------
# commands


def _build_function(spec: dict, seed: int) -> PLFunction:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad function spec: {exc}") from exc


def cmd_validate_form(cfg: dict, args, out_dir: Path) -> int:
    form = cfg["form"]
    sampler = PLSampler(cfg["seed"])
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
                                "status"), rows, header)
    print(f"validate-form: {len(rows)} checks, "
          f"{'PASS' if passed else 'FAIL'} -> {path}")
    return EXIT_PASS if passed else EXIT_LAW_FAILURE


def cmd_build_measure(cfg: dict, args, out_dir: Path) -> int:
    form = cfg["form"]
    if not isinstance(form, PLIntervalForm):
        raise ConfigError("build-measure requires a pl form")
    fn = _build_function(cfg["function"], cfg["seed"])
    try:
        built = energy_measure(form, fn, cfg["resolution"], cfg["schedule"])
    except ConvergenceError as exc:
        trace = getattr(exc, "trace", None)
        rows = trace.to_rows() if trace is not None else []
        path = reporting.write_csv(
            out_dir / "build_measure_trace.csv",
            ("level", "energy", "inf_so_far"), rows,
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
    rows = list(zip(grid[:-1], grid[1:], dens_built, dens_exact))
    path = reporting.write_csv(out_dir / "build_measure.csv",
                               ("cell_lo", "cell_hi", "density_fold",
                                "density_exact"), rows, header)
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
    if not isinstance(form, PLIntervalForm):
        raise ConfigError("check-laws runs on the pl interval model; the "
                          "measure laws need the fold construction")
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
                                "status"), rows, header)
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"check-laws: {len(rows)} laws, {status} -> {path}")
    return EXIT_PASS if not failed else EXIT_LAW_FAILURE


def cmd_ks_energy(cfg: dict, args, out_dir: Path) -> int:
    if cfg["space"] == "interval":
        space = _space_or_config_error(SampledSpace.interval, cfg["n"])
    else:
        space = _space_or_config_error(SampledSpace.torus, cfg["n"])
    if cfg["profile"] == "file":
        if cfg["profile_file"] is None:
            raise ConfigError("profile=file needs profile_file")
        if space.kind != "interval":
            raise ConfigError("file profiles sample onto the interval grid")
        try:
            fn = PLFunction.from_json(Path(cfg["profile_file"]).read_text())
        except (OSError, ValueError, KeyError) as exc:
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
                               ("r", "J", "sup_so_far"), scan.to_rows(),
                               header)
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
    return EXIT_PASS


def _space_or_config_error(builder, n):
    try:
        return builder(n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_sg_renorm(cfg: dict, args, out_dir: Path) -> int:
    results = [renormalization_constant(p, cfg["grid_size"], cfg["tol"],
                                        cfg["max_iterations"])
               for p in cfg["p_list"]]
    rows = [(res.p, res.rho, res.residual, res.iterations, res.converged)
            for res in results]
    header = _header("sg-renorm", cfg)
    path = reporting.write_csv(out_dir / "sg_renorm.csv",
                               ("p", "rho", "residual", "iterations",
                                "converged"), rows, header)
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
    ks.add_argument("--space", choices=("interval", "torus"),
                    default=None)
    ks.add_argument("--n", type=int, default=None,
                    help="grid points (interval) or side length (torus)")
    ks.add_argument("--p", type=float, default=None)
    ks.add_argument("--r-list", dest="r_list", metavar="R1,R2,...",
                    default=None, help="strictly decreasing scales")
    ks.add_argument("--profile",
                    choices=("linear", "sine", "tent", "step", "file"),
                    default=None)
    ks.add_argument("--profile-file", dest="profile_file", metavar="PATH",
                    default=None, help="PL function JSON for profile=file")
    sub.add_parser("sg-renorm", parents=[common],
                   help="gasket renormalization constants")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PASS if not exc.code else EXIT_CONFIG
    for name, default in (("config", None), ("out", None), ("seed", None),
                          ("jobs", 1), ("plot", False)):
        if not hasattr(args, name):
            setattr(args, name, default)
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        print("error: --seed must be in [0, 2^64)", file=sys.stderr)
        return EXIT_CONFIG
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = _load_config(args.command, args)
        out_dir = Path(cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args, out_dir)
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


if __name__ == "__main__":
    sys.exit(main())
