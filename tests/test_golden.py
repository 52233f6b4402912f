"""Golden outputs: sha256 of the VTK and report files of ``--seed 42`` CLI
runs on the bundled benchmarks.

A change that alters any mesh or report must update these digests and
say why.  Digests taken with Python 3.11.7 and numpy 2.4.6.
"""

import hashlib
from pathlib import Path

import pytest

from pscmesh.cli import main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

GOLDEN = {
    "icosphere": ("0.5",
                  "03281fb21a6ad154b3fe63a7494e82edc3918385e216f9f80ff5c023fe6b35d3",
                  "0a8c80f177195285f4ecb268a9976dc4a97299580464fa597cb1da836a2d7d9a"),
    "wedge": ("0.4",
              "2f75dde7a7a666fa830f4fa659b37d9d6374cdd4d9233a624cf9e4cfc0dec21e",
              "8891468b0b97fdabaf5cd79bb5b08c85c18030d87c347217a7cf8af4c88356b7"),
    "cube": ("0.35",
             "649b9e3ddbf258f2a7744df2e88855db27b00e0e6bc0f389b2ba940af938ef56",
             "721315ddd39a1a373e38225075eaaec32b34cf60a9205f8f33a970e6ebb13548"),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_42_outputs_match_golden_digests(name, tmp_path):
    hfun, vtk_digest, report_digest = GOLDEN[name]
    vtk = tmp_path / f"{name}.vtk"
    report = tmp_path / f"{name}.report.txt"
    assert main(["--input", str(BENCHMARKS / f"{name}.psc"), "--hfun", hfun,
                 "--seed", "42", "--output", str(vtk), "--report", str(report),
                 "--manifest", str(tmp_path / f"{name}.manifest.txt")]) == 0
    assert sha256(vtk) == vtk_digest
    assert sha256(report) == report_digest
