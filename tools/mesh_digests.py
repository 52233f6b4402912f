"""Digest every benchmark mesh, so that two checkouts compare by ``diff``.

For each workload of ``perfbench/workloads.py`` and each ``--seed`` in
``0 .. --seeds - 1``, this refines every jitter seed the benchmark's
untraced run refines (``workloads.mesh_seeds``) with the benchmark's
settings, through the same input file round trip, and prints one line:

    workload seed status sha256(vtk + report)

``seed`` is the jitter seed of the mesh.  pscmesh is imported from the
``src/`` of the checkout that holds this script.

    python3 tools/mesh_digests.py > a.txt
    python3 tools/mesh_digests.py --seeds 3 crease sphere
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# pscmesh first: every later import then finds this checkout's package
import pscmesh  # noqa: E402,F401
from pscmesh.geometry import load_complex, write_complex  # noqa: E402
from pscmesh.quality import write_report  # noqa: E402
from pscmesh.refine import refine  # noqa: E402
from pscmesh.vtk_io import write_vtk  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import (WORKLOADS, build_input, make_config,  # noqa: E402
                       mesh_seeds)


def digest(workload, seed, tmp):
    """(status, sha256 of the VTK bytes followed by the report bytes)."""
    psc = tmp / f"{workload.name}.psc"
    if not psc.exists():
        write_complex(build_input(workload), str(psc))
    result = refine(load_complex(str(psc)), make_config(workload.h, seed))
    vtk = tmp / "mesh.vtk"
    rep = tmp / "mesh.report.txt"
    write_vtk(str(vtk), result.mesh, result.rs)
    write_report(result.report, str(rep))
    return result.status, hashlib.sha256(vtk.read_bytes()
                                         + rep.read_bytes()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"of {', '.join(sorted(WORKLOADS))} (default: all)")
    ap.add_argument("--seeds", type=int, default=10,
                    help="benchmark seeds 0 .. SEEDS-1 (default %(default)s)")
    args = ap.parse_args(argv)
    names = args.workloads or sorted(WORKLOADS)
    for name in set(names) - WORKLOADS.keys():
        ap.error(f"unknown workload {name!r}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workload = WORKLOADS[name]
            for seed in range(args.seeds):
                for mesh_seed in mesh_seeds(workload, seed):
                    status, sha = digest(workload, mesh_seed, Path(tmp))
                    print(name, mesh_seed, status, sha, flush=True)


if __name__ == "__main__":
    main()
