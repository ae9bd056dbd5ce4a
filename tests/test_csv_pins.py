"""CSV bytes pinned across commits.

Criterion 11 compares two runs of one checkout; these hashes were recorded
from an earlier build, so a change that moves a single digit of
``build_measure.csv``, ``check_laws.csv``, ``ks_energy.csv``,
``validate_form.csv`` or ``sg_renorm.csv`` on these small configs fails
here, and so does one that moves a byte of a ``--plot`` chart.  A change
that moves them on purpose records the new hashes and says why.
"""

import hashlib
import json

import pytest

from penergy.cli import EXIT_PASS, main

WEIGHT3 = [[0.0, 0.3, 1.0], [0.3, 0.7, 2.5], [0.7, 1.0, 0.5]]

PINS = {
    "build-measure unweighted": (
        "build-measure", "build_measure.csv",
        {"seed": 7, "resolution": 64,
         "function": {"kind": "tent", "peak": 0.4}},
        "8ce1f1b9cc82c0115798953ff4071b84c1f77f4b18ab688c81e976340761c0fd"),
    "build-measure 3-cell weight": (
        "build-measure", "build_measure.csv",
        {"seed": 7, "resolution": 64,
         "form": {"kind": "pl", "p": 3.0, "weight": WEIGHT3},
         "function": {"kind": "sample", "index": 3}},
        "22e5371577b467f96779be11e2af85833a99de5857d0a9bbbf6655fabdcbee8d"),
    "check-laws": (
        "check-laws", "check_laws.csv",
        {"seed": 7, "trials": 2,
         "laws": ["total_mass", "measure_clarkson", "measure_triangle",
                  "minmax_bound", "domination"]},
        "dccb9381571d90c50e6b53727a5757cf5552dcd61bfbcb3687d4f333b50a51b7"),
    "ks-energy interval default radii": (
        "ks-energy", "ks_energy.csv",
        {"seed": 7, "space": "interval", "n": 2000, "p": 3.0,
         "profile": "sine"},
        "c03cedff473b3f06fdb8fbac068792c60e0422a1fdbe14f05352659e5774aed3"),
    "ks-energy interval r_list": (
        "ks-energy", "ks_energy.csv",
        {"seed": 7, "space": "interval", "n": 4000, "p": 2.0,
         "profile": "step", "r_list": [0.02, 0.011, 0.006, 0.004, 0.0025]},
        "4f2d7e736f0fd42b1a535f2c029328d55c55806bf6c5192fffb6780869ab7ed8"),
    "ks-energy torus default radii": (
        "ks-energy", "ks_energy.csv",
        {"seed": 7, "space": "torus", "n": 32, "p": 2.0, "profile": "tent"},
        "a4372bcbd0143535be0781c410032853e1f34f4791485b023975b39fb3b09b51"),
    # r = 0.52 caps the offsets at side // 2 = 24
    "ks-energy torus half-side cap": (
        "ks-energy", "ks_energy.csv",
        {"seed": 7, "space": "torus", "n": 48, "p": 3.0, "profile": "step",
         "r_list": [0.52, 0.3, 0.17, 0.1]},
        "e86d6ace2688ef30a10ad10c8c0122884a1e702d6a7823d4b6c3850772179117"),
    "validate-form default": (
        "validate-form", "validate_form.csv", {"seed": 7},
        "56ada38ed72ddfb582fd93ef6edaced4e0df687d9e2db4c34f1fc3a5e74f609b"),
    "validate-form 3-cell weight": (
        "validate-form", "validate_form.csv",
        {"seed": 7, "form": {"kind": "pl", "p": 3.0, "weight": WEIGHT3}},
        "b8aa38e29d08c23c46e95055509b368fb082240e862579f82b72a070ee0b21cf"),
    "validate-form graph": (
        "validate-form", "validate_form.csv",
        {"seed": 7, "form": {"kind": "graph", "p": 1.5, "vertices": 4,
                             "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2.0],
                                       [3, 0, 1.0], [0, 2, 0.25]]}},
        "2b83b6f4f64f13d329a45ea4616c8892437064533f69c912c6fd16de0f0f77cd"),
    "validate-form sg": (
        "validate-form", "validate_form.csv",
        {"seed": 7, "form": {"kind": "sg", "p": 2.0, "level": 3}},
        "e601a00a71abe5830ec53f417c37528cd4cbc54d580b5024f6787d14566347bc"),
    "sg-renorm": (
        "sg-renorm", "sg_renorm.csv", {"seed": 7, "p_list": [2.0, 3.0]},
        "360b5e433c4abe1470c51d9f9f08b4d1f7702cfd0922869525fe0bc99f355840"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_csv_bytes_match_pinned_hash(tmp_path, name):
    command, csv_name, config, digest = PINS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), command]) \
        == EXIT_PASS
    # the header names the output directory, which differs per run
    lines = (out / csv_name).read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines
                    if not line.startswith(b"# config.out_dir="))
    got = hashlib.sha256(kept).hexdigest()
    assert got == digest, f"{name}: {csv_name} bytes changed"


# the --plot charts of the three commands that draw one
SVG_PINS = {
    "build-measure": (
        "build_measure.svg", PINS["build-measure unweighted"][2],
        "77d8211883ae0f26ab6b6778afaab66f6ebe6f2788d41b316910abbcb71d23c2"),
    "ks-energy": (
        "ks_energy.svg", PINS["ks-energy interval r_list"][2],
        "061deb9da9b466fd28ca571f21df452b11a03db60b73755958451e2226c8bc02"),
    "sg-renorm": (
        "sg_renorm.svg", PINS["sg-renorm"][2],
        "1fefb513af6430c51c6ffa4b85e04a099b1168b1ab4cf1ee8042fba8bfd63cf7"),
}


@pytest.mark.parametrize("command", sorted(SVG_PINS))
def test_svg_bytes_match_pinned_hash(tmp_path, command):
    svg_name, config, digest = SVG_PINS[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--plot",
                 command]) == EXIT_PASS
    got = hashlib.sha256((out / svg_name).read_bytes()).hexdigest()
    assert got == digest, f"{command}: {svg_name} bytes changed"
