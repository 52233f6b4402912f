"""Golden outputs: sha256 of the VTK and report files of ``--seed 42`` CLI
runs on the bundled benchmarks, in both point-placement modes, and of the
seed-0 mesh of each perfbench workload; and sha256 of the structure that
``PiecewiseComplex`` derives from each of those inputs.

The classical runs reach what the frontal ones never do: the classical
branch of the queue scan, and (on the wedge) two curve-guard rollbacks.
The perfbench meshes are built as the benchmark builds them: the input of
``perfbench/workloads.py``'s ``build_input`` through a ``.psc`` round trip,
refined with its ``make_config``.

A change that alters any mesh or report must update these digests and
say why.  The input digests cover every value the constructor derives,
in its order and with its Python types, so a rewrite of the constructor
or of the box tree build that is not exact shows here first.  Digests taken with Python 3.11.7 and numpy 2.4.6.
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

from oracles import tree_nodes

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"

GOLDEN = {
    "icosphere": ("0.5",
                  "fc7dad893b77eee3f5d54d9f3551242fa3867d51e8a5098750c7a41478716d18",
                  "d53a7413d29b5a1338ac26a0b49e43fd9e0e314c761663972f230f41857fc074"),
    "wedge": ("0.4",
              "ee1f1f609dcfb6fb4fc8757ce23ad85d2a9deec0f63d27c5b7fbd356c3de730b",
              "d6c7eeab2d24a0911326b7035fc1c5a7ac3e8a487dee76dac40bd75586541c52"),
    "cube": ("0.35",
             "a6628046000c92fcde4cf1036d1cbc8a831612e74d8ee765667a8cf4bc21dfc7",
             "00aaa64c5bca0ddc115d35f4c08196b5ce37e9119f30d1509b02e1fe105c08ff"),
}

CLASSICAL = {
    "icosphere": ("0.5",
                  "9f9fc52b9ccf828790746f9a0738a71bbb3d0fa0976f1bda2b23ab1ca0dc1609",
                  "0a1451fa4d1a0d775552c30c114e504e62e21e80f596f9737ca363f9e37546cd"),
    "wedge": ("0.4",
              "53aba449a30fa7d03ca73ffbdbcf31d3a09bb1bc6b553ceae86244e90918479d",
              "2b26ac762736a9a5f46ebc86171bd259b72d01c561718e2be959ab059a733845"),
    "cube": ("0.35",
             "52f10dc9d868e3e572e6043ec73942259196f75bb5b85a57c0f6f383eaeccce9",
             "736dc8b681906eed46612cfddfa4af8ebc1a310ca90543e619541376d9a85267"),
}

# seed-0 meshes of the perfbench workloads: (vtk sha256, report sha256)
PERFBENCH = {
    "sphere": ("a14d5f0f15e9179ab7f4d757eda735464fa1e45343d187b24321a86d969537a5",
               "1e269d48c2458d55684523d6d4488c9d85dc1921aaf14508da7173a001a0d910"),
    "crease": ("2103398e0faebdc18d56b2ff4970cb9a5bd7a15703f1a8651ccbd2166693b44e",
               "56f0d585aac4070edb9bacd77ba2221b629db55682a822e43d89d72f2054c4a3"),
    "dense_surface": (
        "423f76989a8e0b0f3ce1901f34605afe835484b3dae4457a700a47515b39a95b",
        "4218eac78ab135e2fe59863cac63aed92431aab48eab2ff9917e942c6c38dd1a"),
}


# ``input_digest`` of each bundled benchmark file and of each perfbench
# input after its .psc round trip
INPUTS = {
    "benchmarks/cube.psc":
        "392424972f9d2e2a133a96e9bc9696c89bf0c4f0c7a5242ed43e2164ae84f9c2",
    "benchmarks/icosphere.psc":
        "3e4c01768a92a93ffcca9f8817f1ccc1ab4eb507ce1c3e3df4fd0d42179203a1",
    "benchmarks/wedge.psc":
        "819e06fea8788069b2032acd29d929749194ee04ce4d1a1d36d367d1431913cd",
    "perfbench/crease":
        "819e06fea8788069b2032acd29d929749194ee04ce4d1a1d36d367d1431913cd",
    "perfbench/dense_surface":
        "5712c6b28cae3ccced3cec8de18c240d7ddaef8e29ffc191d7199d323df37d90",
    "perfbench/sphere":
        "3e4c01768a92a93ffcca9f8817f1ccc1ab4eb507ce1c3e3df4fd0d42179203a1",
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


def input_digest(geom):
    """sha256 over the derived input: vertex tuples, curve incidence,
    feature vertices, on-curve / on-surface flags, the surface census and
    both box trees' nodes, permutation and cover."""
    h = hashlib.sha256()
    for value in (geom.pts, list(geom.segs_at_vertex.items()),
                  sorted(geom.feature_vertices), geom.on_curve.tolist(),
                  geom.on_surface.tolist(), geom.surface_closed,
                  sorted(geom.embedded_curves)):
        h.update(repr(value).encode() + b"\n")
    for tree in (geom.seg_tree, geom.tri_tree):
        h.update(repr((tree_nodes(tree), tree._perm)).encode() + b"\n")
        for array in tree._cover:
            h.update(repr((array.dtype.str, array.shape)).encode())
            h.update(array.tobytes())
    return h.hexdigest()


def load_input(name, tmp_path):
    kind, _sep, rest = name.partition("/")
    if kind == "benchmarks":
        return load_complex(str(ROOT / name))
    wl = _workloads()
    psc = tmp_path / f"{rest}.psc"
    write_complex(wl.build_input(wl.WORKLOADS[rest]), str(psc))
    return load_complex(str(psc))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_derived_input_matches_golden_digest(name, tmp_path):
    assert input_digest(load_input(name, tmp_path)) == INPUTS[name]
