"""Golden outputs: sha256 of the VTK and report files of ``--seed 42`` CLI
runs on the bundled benchmarks, in both point-placement modes, and of the
seed-0 mesh of each perfbench workload.

The classical runs reach what the frontal ones never do: the classical
branch of the queue scan, and (on the wedge) two curve-guard rollbacks.
The perfbench meshes are built as the benchmark builds them: the input of
``perfbench/workloads.py``'s ``build_input`` through a ``.psc`` round trip,
refined with its ``make_config``.

A change that alters any mesh or report must update these digests and
say why.  Digests taken with Python 3.11.7 and numpy 2.4.6.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from pscmesh.cli import main
from pscmesh.geometry import load_complex, write_complex
from pscmesh.quality import write_report
from pscmesh.refine import refine
from pscmesh.vtk_io import write_vtk

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"

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

CLASSICAL = {
    "icosphere": ("0.5",
                  "c42b6e495a7c9a85a6ece13cbd68f85fede5b640b3a6774afa0e171490a4a5f6",
                  "d89e7ccea3f3537c5ea43ad462228b4f2175ecbda4bfec3924f041196e67608a"),
    "wedge": ("0.4",
              "f606156024cc816844b016bebef53a44a877f32928acff72ee8742b819c1e6d7",
              "65e2635af11a829ba4edbbeb57f90454dab5b3d0d05dfa172ec7b9b62a8dcb7f"),
    "cube": ("0.35",
             "ae15541d496801359a2f65f7c58a2907a6ad0c1d5733e5bc6fe2c48bfe4a300b",
             "fb28be48cce2f4cf9a122fce5e945ea076e070a11f60360969afbbf47867984f"),
}

# seed-0 meshes of the perfbench workloads: (vtk sha256, report sha256)
PERFBENCH = {
    "sphere": ("b37d08265ad52d020e15e2aa2789cefb3a53f81a5c93cc158f1d322221e1061b",
               "5bafb50a3581536a260e98f0b182c268ac6d719829764ddfb009169079f501bb"),
    "crease": ("37e7725c941970abc469f7391691861c3e1835ea9da9e0f1d4a7fe8353ddbb67",
               "8c75cf31db6f96eff8cc7edc72828cf6034f2fed9e24aa7270470978ab0390c6"),
    "dense_surface": (
        "84caac4a7acd013ce28a2a0952b5c35f0182149714baffbaf54ed25230279ad9",
        "0a0f5cedf49e611de63df2be9408fdd15c3b8d10cd2e768ca6b3b219b9bdf40f"),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_digests(name, golden, mode, tmp_path):
    hfun, vtk_digest, report_digest = golden[name]
    vtk = tmp_path / f"{name}.vtk"
    report = tmp_path / f"{name}.report.txt"
    assert main(["--input", str(BENCHMARKS / f"{name}.psc"), "--hfun", hfun,
                 "--mode", mode, "--seed", "42", "--output", str(vtk),
                 "--report", str(report),
                 "--manifest", str(tmp_path / f"{name}.manifest.txt")]) == 0
    assert sha256(vtk) == vtk_digest
    assert sha256(report) == report_digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_42_outputs_match_golden_digests(name, tmp_path):
    check_digests(name, GOLDEN, "frontal", tmp_path)


@pytest.mark.parametrize("name", sorted(CLASSICAL))
def test_seed_42_classical_outputs_match_golden_digests(name, tmp_path):
    check_digests(name, CLASSICAL, "classical", tmp_path)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(PERFBENCH))
def test_perfbench_seed_0_outputs_match_golden_digests(name, tmp_path):
    wl = _workloads()
    workload = wl.WORKLOADS[name]
    psc = tmp_path / f"{name}.psc"
    write_complex(wl.build_input(workload), str(psc))
    result = refine(load_complex(str(psc)), wl.make_config(workload.h, 0))
    assert result.status == "converged"
    vtk = tmp_path / f"{name}.vtk"
    report = tmp_path / f"{name}.report.txt"
    write_vtk(str(vtk), result.mesh, result.rs)
    write_report(result.report, str(report))
    assert (sha256(vtk), sha256(report)) == PERFBENCH[name]
