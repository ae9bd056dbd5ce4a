"""CSV bytes pinned across commits.

Criterion 11 compares two runs of one checkout; these hashes were recorded
from an earlier build, so a change that moves a single digit of
``build_measure.csv``, ``check_laws.csv`` or ``ks_energy.csv`` on these
small configs fails here.  A change that moves them on purpose records the
new hashes and says why.
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
        "f999ebcb4ab6c74faf79dcbec4e4b52296b012ba04d0ec4621793815f2dc3c42"),
    "build-measure 3-cell weight": (
        "build-measure", "build_measure.csv",
        {"seed": 7, "resolution": 64,
         "form": {"kind": "pl", "p": 3.0, "weight": WEIGHT3},
         "function": {"kind": "sample", "index": 3}},
        "92aecc77c5fe787409f4796deb1e5b33ee3ce6d67c9d9df1bd065a3ccdf02136"),
    "check-laws": (
        "check-laws", "check_laws.csv",
        {"seed": 7, "trials": 2,
         "laws": ["total_mass", "measure_clarkson", "measure_triangle",
                  "minmax_bound", "domination"]},
        "b3d3d15f0293af309b12f59d37fda05e166ed9c29a5382376ac3d469980107b5"),
    "ks-energy interval default radii": (
        "ks-energy", "ks_energy.csv",
        {"seed": 7, "space": "interval", "n": 2000, "p": 3.0,
         "profile": "sine"},
        "b5e88a46c0142e1f727a2d4fc110c87c98c996bc0b0832483fa89fb74b83f7fa"),
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
        "4d24fb0a40ed3ab56ab1b1b4b8d0280e511a820b92a335ed111edf0a714e6745"),
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
