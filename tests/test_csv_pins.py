"""CSV bytes pinned across commits.

Criterion 11 compares two runs of one checkout; these hashes were recorded
from an earlier build, so a change that moves a single digit of
``build_measure.csv`` or ``check_laws.csv`` on these small configs fails
here.  A change that moves them on purpose records the new hashes and says
why.
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
