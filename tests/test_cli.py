"""End-to-end command runs against the documented exit-code contract.

Commands are driven through cli.main with temp directories; the replay
tests compare raw bytes, which is the reproducibility guarantee the CSV
headers advertise.
"""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import penergy
from penergy import construction
from penergy.cli import (
    EXIT_CONFIG,
    EXIT_LAW_FAILURE,
    EXIT_NUMERIC,
    EXIT_PASS,
    SCHEMAS,
    main,
)
from penergy.forms import GraphForm, PLIntervalForm, SGForm
from penergy.pl import PLFunction


def write_config(tmp_path, name="config.json", **entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


def read_header(path):
    out = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition("=")
        out[key] = value
    return out


# -- validate-form ------------------------------------------------------------


def test_validate_form_pl_passes(tmp_path):
    cfg = write_config(tmp_path, seed=5)
    assert main(["--config", cfg, "--out", str(tmp_path), "validate-form"]) \
        == EXIT_PASS
    report = tmp_path / "validate_form.csv"
    header = read_header(report)
    assert header["passed"] == "true"
    assert header["config.trials"] == "64"
    body = report.read_text()
    assert "clarkson_CI3" in body
    assert "strong_locality" in body


def test_validate_form_graph_notes_deviation(tmp_path):
    cfg = write_config(
        tmp_path, seed=5,
        form={"kind": "graph", "p": 2.0, "vertices": 4,
              "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 0, 1.0]]})
    assert main(["--config", cfg, "--out", str(tmp_path), "validate-form"]) \
        == EXIT_PASS
    body = (tmp_path / "validate_form.csv").read_text()
    assert "skipped: model deviation" in body


def test_validate_form_rejects_small_p(tmp_path):
    cfg = write_config(tmp_path, seed=5, form={"kind": "pl", "p": 0.5})
    assert main(["--config", cfg, "validate-form"]) == EXIT_CONFIG


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, seed=5, frobnicate=1)
    assert main(["--config", cfg, "validate-form"]) == EXIT_CONFIG


def test_seed_is_mandatory(tmp_path):
    cfg = write_config(tmp_path, trials=4)
    assert main(["--config", cfg, "validate-form"]) == EXIT_CONFIG


def test_config_must_be_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    assert main(["--config", str(path), "validate-form"]) == EXIT_CONFIG
    path.write_text("{not json")
    assert main(["--config", str(path), "validate-form"]) == EXIT_CONFIG


# -- build-measure ------------------------------------------------------------


def test_build_measure_identity(tmp_path):
    cfg = write_config(tmp_path, seed=5, resolution=128)
    assert main(["--config", cfg, "--out", str(tmp_path), "--plot",
                 "build-measure"]) == EXIT_PASS
    report = tmp_path / "build_measure.csv"
    header = read_header(report)
    assert float(header["sup_rel_gap"]) <= 1e-4
    assert float(header["total_mass"]) == pytest.approx(1.0, rel=1e-7)
    assert (tmp_path / "build_measure.svg").exists()


def test_build_measure_constant_is_zero(tmp_path):
    cfg = write_config(tmp_path, seed=5, resolution=64,
                       function={"kind": "constant", "value": 0.7})
    assert main(["--config", cfg, "--out", str(tmp_path),
                 "build-measure"]) == EXIT_PASS
    report = tmp_path / "build_measure.csv"
    assert float(read_header(report)["total_mass"]) == 0.0
    for line in report.read_text().splitlines():
        if line.startswith("#") or line.startswith("cell_lo"):
            continue
        cells = line.split(",")
        assert float(cells[2]) == 0.0


def test_build_measure_tent_p3(tmp_path):
    cfg = write_config(tmp_path, seed=5, resolution=128,
                       form={"kind": "pl", "p": 3.0},
                       function={"kind": "tent", "height": 1.0})
    assert main(["--config", cfg, "--out", str(tmp_path),
                 "build-measure"]) == EXIT_PASS
    header = read_header(tmp_path / "build_measure.csv")
    assert float(header["sup_rel_gap"]) <= 1e-4
    assert float(header["energy"]) == pytest.approx(8.0, rel=1e-12)


def test_build_measure_needs_pl_form(tmp_path):
    cfg = write_config(
        tmp_path, seed=5,
        form={"kind": "graph", "p": 2.0, "vertices": 3,
              "edges": [[0, 1, 1.0], [1, 2, 1.0]]})
    assert main(["--config", cfg, "build-measure"]) == EXIT_CONFIG


def test_build_measure_stall_writes_trace(tmp_path, capsys):
    cfg = write_config(
        tmp_path, seed=7, resolution=64, form={"kind": "pl", "p": 2.0},
        function={"kind": "points", "breakpoints": [0, 0.3, 1],
                  "values": [0, 2, 1]},
        schedule={"n_min": 4, "n_max": 6})
    assert main(["--config", cfg, "--out", str(tmp_path),
                 "build-measure"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "furthest from quiet: threshold a=" in err
    assert "threshold a=0 " not in err
    rows = [line for line in
            (tmp_path / "build_measure_trace.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "level,energy,inf_so_far"
    assert [row.split(",")[0] for row in rows[1:]] == ["4", "5", "6"]


def test_build_measure_piece_cap_exits_numeric(tmp_path, capsys):
    # slope 1e7, past the piece cap of a literal fold: a band piece costs
    # the same at any slope, so the run goes to n_max, where the band, about
    # 2^-n |f'|^p / 2, is still above rel_tol E(f), and exits with its trace
    cfg = write_config(
        tmp_path, seed=7, resolution=16,
        function={"kind": "points", "breakpoints": [0, 1e-7, 1],
                  "values": [0, 1, 1]})
    assert main(["--config", cfg, "--out", str(tmp_path),
                 "build-measure"]) == EXIT_NUMERIC
    assert "fold limits did not stall by n=48" in capsys.readouterr().err
    rows = [line for line in
            (tmp_path / "build_measure_trace.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "level,energy,inf_so_far"
    assert rows[-1].split(",")[0] == "48"


def test_build_measure_failed_mass_check_exits_numeric(tmp_path, capsys,
                                                       monkeypatch):
    # a run whose limits come out in reverse order fails the cell-mass check
    real = construction._identity_run

    def reversed_run(*args):
        run = real(*args)
        return dataclasses.replace(run, energies=run.energies[:, ::-1])

    monkeypatch.setattr(construction, "_identity_run", reversed_run)
    cfg = write_config(tmp_path, seed=5, resolution=16)
    assert main(["--config", cfg, "--out", str(tmp_path),
                 "build-measure"]) == EXIT_NUMERIC
    assert "negative cell mass" in capsys.readouterr().err
    assert (tmp_path / "build_measure_trace.csv").exists()


def test_build_measure_rejects_swapped_points(tmp_path):
    cfg = write_config(tmp_path, seed=5, resolution=16,
                       function={"kind": "points",
                                 "breakpoints": [0, 0.7, 0.3, 1],
                                 "values": [0, 2, 1, 1]})
    assert main(["--config", cfg, "build-measure"]) == EXIT_CONFIG


def test_build_measure_rejects_points_closer_than_geom_tol(tmp_path, capsys):
    cfg = write_config(tmp_path, seed=5, resolution=16,
                       function={"kind": "points",
                                 "breakpoints": [0, 1e-14, 1],
                                 "values": [0, 1, 1]})
    assert main(["--config", cfg, "--out", str(tmp_path),
                 "build-measure"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad function spec" in err and "strictly increasing" in err
    assert "Traceback" not in err


# -- check-laws ---------------------------------------------------------------

FAST_LAWS = ["locality", "measure_clarkson", "measure_triangle",
             "total_mass"]


def test_check_laws_passes_and_replays(tmp_path):
    cfg = write_config(tmp_path, seed=11, trials=2, laws=FAST_LAWS)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "check-laws"]) \
        == EXIT_PASS
    first = (out / "check_laws.csv").read_bytes()
    assert main(["--config", cfg, "--out", str(out), "--jobs", "2",
                 "check-laws"]) == EXIT_PASS
    assert (out / "check_laws.csv").read_bytes() == first
    rows = [l for l in first.decode().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "law,trials,worst_slack,tolerance,status"
    assert len(rows) == 1 + len(FAST_LAWS)


def test_check_laws_seed_changes_bytes(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, seed=11, trials=2, laws=["measure_triangle"])
    main(["--config", cfg, "--out", str(out), "check-laws"])
    first = (out / "check_laws.csv").read_bytes()
    main(["--config", cfg, "--out", str(out), "--seed", "12", "check-laws"])
    assert (out / "check_laws.csv").read_bytes() != first


def test_check_laws_crossed_weights(tmp_path):
    cfg = write_config(tmp_path, seed=3, trials=2, laws=["domination"],
                       domination_weight=[[0.0, 0.5, 2.0], [0.5, 1.0, 0.5]])
    assert main(["--config", cfg, "--out", str(tmp_path), "check-laws"]) \
        == EXIT_CONFIG


def test_check_laws_rejects_zero_trials(tmp_path):
    cfg = write_config(tmp_path, seed=3, trials=0)
    assert main(["--config", cfg, "check-laws"]) == EXIT_CONFIG


def test_check_laws_rejects_graph_form(tmp_path):
    cfg = write_config(
        tmp_path, seed=3,
        form={"kind": "graph", "p": 2.0, "vertices": 3,
              "edges": [[0, 1, 1.0], [1, 2, 1.0]]})
    assert main(["--config", cfg, "check-laws"]) == EXIT_CONFIG


def test_check_laws_unknown_law(tmp_path):
    cfg = write_config(tmp_path, seed=3, laws=["no_such_law"])
    assert main(["--config", cfg, "check-laws"]) == EXIT_CONFIG


# -- ks-energy ----------------------------------------------------------------


def test_ks_energy_flags_only(tmp_path):
    assert main(["--out", str(tmp_path), "--plot", "ks-energy",
                 "--space", "interval", "--n", "500", "--p", "2",
                 "--profile", "sine"]) == EXIT_PASS
    report = tmp_path / "ks_energy.csv"
    lines = report.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "r,J,sup_so_far"
    assert len(data) >= 4
    assert read_header(report)["divergent"] == "false"
    assert (tmp_path / "ks_energy.svg").exists()


def test_ks_energy_step_flagged(tmp_path):
    assert main(["--out", str(tmp_path), "ks-energy", "--n", "2000",
                 "--profile", "step"]) == EXIT_PASS
    assert read_header(tmp_path / "ks_energy.csv")["divergent"] == "true"


def test_ks_energy_profile_file(tmp_path):
    prof = tmp_path / "profile.json"
    tent = PLFunction.tent(height=1.0)
    prof.write_text(json.dumps({"x": tent.breakpoints.tolist(),
                                "y": tent.values.tolist()}))
    assert main(["--out", str(tmp_path), "ks-energy", "--n", "1000",
                 "--profile", "file", "--profile-file", str(prof)]) \
        == EXIT_PASS
    extrapolated = float(read_header(tmp_path / "ks_energy.csv")
                         ["extrapolated"])
    assert extrapolated == pytest.approx(4.0 / 3.0, rel=0.02)


@pytest.mark.parametrize("text", [
    '{"x": [], "y": []}',             # no breakpoints: no endpoints to read
    '[[0.0, 1.0], [0.0, 1.0]]',       # a list, not an object
    '"x"',                            # a string
    '{"x": [0.0, 1.0]}',              # no values
    '{"x": {"a": 0.0}, "y": [0.0, 1.0]}',
])
def test_ks_energy_malformed_profile_file(tmp_path, capsys, text):
    prof = tmp_path / "profile.json"
    prof.write_text(text)
    assert main(["--out", str(tmp_path), "ks-energy", "--n", "100",
                 "--profile", "file", "--profile-file", str(prof)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load profile: "), err
    assert "Traceback" not in err


def test_ks_energy_profile_file_needs_path(tmp_path):
    assert main(["--out", str(tmp_path), "ks-energy",
                 "--profile", "file"]) == EXIT_CONFIG


def test_ks_energy_bad_r_sequence(tmp_path):
    assert main(["--out", str(tmp_path), "ks-energy",
                 "--r-list", "0.01,0.05"]) == EXIT_CONFIG


def test_ks_energy_torus(tmp_path):
    assert main(["--out", str(tmp_path), "ks-energy", "--space", "torus",
                 "--n", "32", "--profile", "sine"]) == EXIT_PASS


# -- sg-renorm ----------------------------------------------------------------


def test_sg_renorm_p2(tmp_path):
    cfg = write_config(tmp_path, seed=1, p_list=[2.0])
    assert main(["--config", cfg, "--out", str(tmp_path), "sg-renorm"]) \
        == EXIT_PASS
    rows = [l for l in (tmp_path / "sg_renorm.csv").read_text().splitlines()
            if not l.startswith("#")]
    p, rho, residual, iterations, converged = rows[1].split(",")
    assert abs(float(rho) - 5.0 / 3.0) <= 1e-8
    assert float(residual) <= 1e-8
    assert converged == "true"


def test_sg_renorm_empty_p_list(tmp_path):
    cfg = write_config(tmp_path, seed=1, p_list=[])
    assert main(["--config", cfg, "sg-renorm"]) == EXIT_CONFIG


# -- config errors: every one exits 2 at load, before --out is made -----------

NAN, INF = float("nan"), float("inf")
GRAPH = {"kind": "graph", "p": 2.0, "vertices": 3,
         "edges": [[0, 1, 1.0], [1, 2, 1.0]]}

NON_FINITE = {
    "ks-energy p": ("ks-energy", {"p": INF}),
    "ks-energy r_list": ("ks-energy", {"r_list": [INF, 0.05]}),
    "ks-energy p beyond the float range": ("ks-energy", {"p": 10 ** 400}),
    "check-laws domination_weight": (
        "check-laws", {"seed": 1, "laws": ["domination"],
                       "domination_weight": [[0, 1, NAN]]}),
    "build-measure NaN weight": (
        "build-measure", {"seed": 1, "form": {"kind": "pl", "p": 2.0,
                                              "weight": [[0, 1, NAN]]}}),
    "build-measure infinite weight": (
        "build-measure", {"seed": 1, "form": {"kind": "pl", "p": 2.0,
                                              "weight": [[0, 1, INF]]}}),
    "build-measure rel_tol": (
        "build-measure", {"seed": 1, "schedule": {"rel_tol": INF}}),
    "build-measure stall_count": (
        "build-measure", {"seed": 1, "schedule": {"stall_count": 2.5}}),
    "sg-renorm tol": ("sg-renorm", {"seed": 1, "p_list": [2.0], "tol": INF}),
    "build-measure fractional sample index": (
        "build-measure", {"seed": 1, "function": {"kind": "sample",
                                                  "index": 1.5}}),
    "build-measure bool sample index": (
        "build-measure", {"seed": 1, "function": {"kind": "sample",
                                                  "index": True}}),
    "build-measure string sample index": (
        "build-measure", {"seed": 1, "function": {"kind": "sample",
                                                  "index": "3"}}),
    "build-measure negative sample index": (
        "build-measure", {"seed": 1, "function": {"kind": "sample",
                                                  "index": -1}}),
    "build-measure string constant value": (
        "build-measure", {"seed": 1, "function": {"kind": "constant",
                                                  "value": "0.3"}}),
    "build-measure NaN constant value": (
        "build-measure", {"seed": 1, "function": {"kind": "constant",
                                                  "value": NAN}}),
    "build-measure bool tent height": (
        "build-measure", {"seed": 1, "function": {"kind": "tent",
                                                  "height": True}}),
    "build-measure string breakpoint": (
        "build-measure", {"seed": 1, "function": {
            "kind": "points", "breakpoints": [0, "0.5", 1],
            "values": [0, 1, 0]}}),
    "build-measure bool point value": (
        "build-measure", {"seed": 1, "function": {
            "kind": "points", "breakpoints": [0, 0.5, 1],
            "values": [0, True, 0]}}),
    "validate-form graph conductance": (
        "validate-form", {"seed": 1, "form": {
            "kind": "graph", "p": 2.0, "vertices": 3,
            "edges": [[0, 1, 1.0], [1, 2, NAN]]}}),
    "build-measure string weights": (
        "build-measure", {"seed": 1, "form": {
            "kind": "pl", "p": 2.0,
            "weight": [["0", "0.5", "1"], ["0.5", "1", "2"]]}}),
    "build-measure bool weight": (
        "build-measure", {"seed": 1, "form": {"kind": "pl", "p": 2.0,
                                              "weight": [[0, 1, True]]}}),
    "build-measure misspelled weight key": (
        "build-measure", {"seed": 1, "form": {"kind": "pl", "p": 2.0,
                                              "wieght": [[0, 1, 2.0]]}}),
    "build-measure empty weight": (
        "build-measure", {"seed": 1, "form": {"kind": "pl", "p": 2.0,
                                              "weight": []}}),
    "build-measure weight cells with a gap": (
        "build-measure", {"seed": 1, "form": {
            "kind": "pl", "p": 2.0,
            "weight": [[0, 0.3, 1], [0.5, 1, 2]]}}),
    "check-laws empty domination_weight": (
        "check-laws", {"seed": 1, "laws": ["domination"],
                       "domination_weight": []}),
    "validate-form bool vertex count": (
        "validate-form", {"seed": 1, "form": {**GRAPH, "vertices": True,
                                              "edges": []}}),
    "validate-form fractional edge end": (
        "validate-form", {"seed": 1, "form": {
            **GRAPH, "edges": [[0, 1.7, 1], [1, 2, 1]]}}),
    "build-measure bool rel_tol": (
        "build-measure", {"seed": 1, "schedule": {"rel_tol": True}}),
    "build-measure tent with values": (
        "build-measure", {"seed": 1, "function": {"kind": "tent",
                                                  "values": [1, 2]}}),
    "ks-energy n beyond the interval grid": ("ks-energy", {"n": 200_000}),
    "ks-energy file profile without a path": (
        "ks-energy", {"profile": "file"}),
    "ks-energy file profile on the torus": (
        "ks-energy", {"space": "torus", "n": 16, "profile": "file",
                      "profile_file": "profile.json"}),
    "build-measure graph form": ("build-measure", {"seed": 1, "form": GRAPH}),
    "check-laws graph form": ("check-laws", {"seed": 1, "form": GRAPH}),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_or_non_integral_config_is_rejected(tmp_path, capsys,
                                                      name):
    command, entries = NON_FINITE[name]
    cfg = write_config(tmp_path, **entries)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                 command]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_overlapping_domination_weight_is_rejected(tmp_path, capsys):
    # the heavier form is built when the law runs, yet a run that fails
    # there leaves no --out behind, as a config rejected at load does; a
    # weight lighter than the form's is rejected by the law itself
    for name, weight, message in (
            ("overlap", [[0, 0.7, 1], [0.5, 1, 2]],
             "weight cells must be consecutive"),
            ("lighter", [[0, 1, 0.5]], "weights are not ordered")):
        cfg = write_config(tmp_path, f"{name}.json", seed=1,
                           laws=["domination"], domination_weight=weight)
        out = tmp_path / name
        assert main(["--config", cfg, "--out", str(out),
                     "check-laws"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()


def test_null_means_absent_in_nested_objects(tmp_path):
    outputs = []
    for name, schedule in (("absent", {}), ("null", {"rel_tol": None})):
        cfg = write_config(tmp_path, f"{name}.json", seed=5, resolution=16,
                           function={"kind": "tent", "peak": None},
                           schedule=schedule)
        out = tmp_path / name
        assert main(["--config", cfg, "--out", str(out), "build-measure"]) \
            == EXIT_PASS
        outputs.append([line for line in (out / "build_measure.csv")
                        .read_text().splitlines()
                        if not line.startswith("# config.out_dir=")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("form", [
    PLIntervalForm(3.0,weight=[(0.0, 0.3, 1.0), (0.3, 1.0, 2.5)]),
    GraphForm(3, [(0, 1, 1.0), (1, 2, 0.5)], 2.5, vertex_weights=[1, 2, 3]),
    SGForm(2, 3.0, rho=1.9),
], ids=["pl", "graph", "sg"])
def test_form_descriptor_reads_back_through_the_cli(form):
    # the format LawReport.form and the CSV headers carry
    desc = json.loads(json.dumps(form.to_descriptor()))
    read = SCHEMAS["validate-form"]["form"][1]
    assert read(desc).to_descriptor() == desc


# -- float overflow -----------------------------------------------------------

OVERFLOW = {
    "validate-form p=350": (
        "validate-form", {"seed": 7, "form": {"kind": "pl", "p": 350}}),
    "ks-energy p=200": ("ks-energy", {"n": 2000, "p": 200,
                                      "profile": "tent"}),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW))
def test_float_overflow_exits_numeric_without_traceback(tmp_path, capsys,
                                                       name):
    command, entries = OVERFLOW[name]
    cfg = write_config(tmp_path, **entries)
    assert main(["--config", cfg, "--out", str(tmp_path), command]) \
        == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: the arithmetic overflowed")
    assert "Traceback" not in err


def test_ks_energy_negative_extrapolation_exits_numeric(tmp_path, capsys):
    # at p = 100 the J values are far outside the float's comfortable
    # range and the O(r) extrapolation turns them into a large negative
    # number: the scan is still written, but the run is a numeric failure
    assert main(["--out", str(tmp_path), "ks-energy", "--n", "2000", "--p",
                 "100", "--profile", "tent"]) == EXIT_NUMERIC
    extrapolated = float(read_header(tmp_path / "ks_energy.csv")
                         ["extrapolated"])
    assert extrapolated < 0.0
    err = capsys.readouterr().err
    assert err.startswith("error: extrapolated limit ")
    assert repr(extrapolated) in err and "Traceback" not in err


def test_validate_form_passes_at_large_p_until_energies_overflow(tmp_path,
                                                                 capsys):
    # p = 40: E(c u) and c^p E(u) agree to rounding, measured against
    # c^p E(u); p = 300: the energies leave the float range, which is a
    # numeric error, not a failed audit
    for p, code in ((40, EXIT_PASS), (300, EXIT_NUMERIC)):
        cfg = write_config(tmp_path, seed=7, form={"kind": "pl", "p": p})
        out = tmp_path / f"p{p}"
        assert main(["--config", cfg, "--out", str(out),
                     "validate-form"]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (out / "validate_form.csv").exists() == (code == EXIT_PASS)
    assert err.startswith("error: the arithmetic overflowed")


# -- entry point --------------------------------------------------------------


def test_help_exits_clean(capsys):
    assert main(["--help"]) == EXIT_PASS
    assert "validate-form" in capsys.readouterr().out


def test_missing_command_is_config_error(capsys):
    assert main([]) == EXIT_CONFIG
    capsys.readouterr()


def test_bad_jobs_rejected(tmp_path):
    cfg = write_config(tmp_path, seed=1)
    assert main(["--config", cfg, "--jobs", "0", "validate-form"]) \
        == EXIT_CONFIG


def test_exit_codes_are_distinct():
    assert len({EXIT_PASS, EXIT_LAW_FAILURE, EXIT_CONFIG, EXIT_NUMERIC}) == 4


# -- imports ------------------------------------------------------------------

SRC = Path(penergy.__file__).resolve().parent


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, penergy.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


@pytest.mark.parametrize("argv,code", [
    (["ks-energy", "--n", "500", "--profile", "sine"], EXIT_PASS),
    (["ks-energy", "--n", "2000", "--p", "100", "--profile", "tent"],
     EXIT_NUMERIC),
    (["--jobs", "0", "ks-energy"], EXIT_CONFIG),
], ids=["pass", "numeric", "config"])
def test_module_entry_point_returns_the_exit_code(tmp_path, argv, code):
    # python -m penergy.cli hands main's code to the shell
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-m", "penergy.cli", "--out", str(out), *argv],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == code, run.stderr[-2000:]
    assert "Traceback" not in run.stderr
    if code == EXIT_PASS:
        assert (out / "ks_energy.csv").is_file()
    if code == EXIT_CONFIG:
        assert not out.exists()


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency: no module imports scipy, at
    # module level or inside a function
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not any(n == "scipy" or n.startswith("scipy.")
                           for n in _imported_modules(node)), path.name


def test_every_exported_name_resolves():
    # a name moved out of a module must leave its __all__ too, or
    # `from penergy.<module> import *` fails
    modules = [penergy] + [importlib.import_module(f"penergy.{path.stem}")
                           for path in sorted(SRC.glob("*.py"))
                           if path.stem != "__init__"]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, missing


def test_small_array_modules_call_no_numpy_wrappers():
    # pl, forms and sampler work on arrays of a few to a few dozen
    # entries, where the Python wrappers np.diff, np.any and np.all cost
    # more than the arithmetic: slices and method reductions do the same
    for name in ("pl.py", "forms.py", "sampler.py"):
        tree = ast.parse((SRC / name).read_text())
        used = sorted({f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.value, ast.Name)
                       and node.value.id in ("np", "numpy")
                       and node.attr in ("diff", "any", "all")})
        assert used == [], (name, used)


def test_band_producer_reads_only_its_rows():
    # f's values and slopes and the weight are read into the rows once per
    # batch; the per-level producer and the band-ends helper it calls may
    # not read them again
    tree = ast.parse((SRC / "construction.py").read_text())
    bodies = {node.name: node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name in ("energies_at", "_band_ends", "_preimage")}
    assert set(bodies) == {"energies_at", "_band_ends", "_preimage"}
    for name, body in bodies.items():
        called = {node.func.attr if isinstance(node.func, ast.Attribute)
                  else getattr(node.func, "id", None)
                  for node in ast.walk(body) if isinstance(node, ast.Call)}
        assert not called & {"evaluate", "weight_at", "interp",
                             "searchsorted"}, (name, called)
