"""Digest every benchmark mesh, so that two checkouts compare by ``diff``.

For each workload of ``perfbench/workloads.py`` and each ``--seed`` in
``0 .. --seeds - 1``, this refines every jitter seed the benchmark's
untraced run refines (``workloads.mesh_seeds``) with the benchmark's
settings, through the same input file round trip, and prints three lines:

    workload seed status sha256(vtk + report)
    workload seed counts points=.. curve_edges=.. surface_tris=..
        volume_tets=.. cert_passed=.. inserted=..
    workload seed stats blocked=.. disk1=.. ...

(the second and third each on one line; the third holds every counter of
``Refiner.stats``, sorted by name).  ``cert_passed`` counts the 8
``Refiner.audit()`` certificates that hold; perfbench's ``cert_passed``
adds three surface-shape certificates, 11 in all on a closed input.  ``seed`` is the jitter seed of the
mesh.  When only digest lines differ between two checkouts, the meshes
are the same up to float bits; a differing counts line means a different
mesh.  A differing stats line with equal digests means the same meshes
reached by different work (say, fewer certified queries).  Each
workload's meshes are followed by one summary line,

    workload summary meshes=.. failed=.. inserted=.. vlen_min=..
        alen_min=.. h_rel_dev=..

where ``failed`` counts the meshes whose status is not ``converged`` or
that fail an audit certificate, ``inserted`` is the total of the
``inserted`` counter over the meshes, and the last three are medians over
the meshes of the report's minimum volume-length and area-length and of
the benchmark's ``h_rel_dev``: the quality movement of a change that
moves the meshes, and the refinement work it costs or saves, without a
benchmark run.  The workload ends with one totals line,

    workload totals blocked=.. disk1=.. ...

which sums each ``Refiner.stats`` counter over the meshes, sorted by
name, so that a change that moves the work alone shows as one differing
line.  ``--mode classical`` refines the same meshes with the classical
insertion rule instead of the benchmark's frontal one, so that one
``diff`` compares the two modes.
pscmesh is imported from the ``src/`` of the checkout that holds this
script.

    python3 tools/mesh_digests.py > a.txt
    python3 tools/mesh_digests.py --seeds 3 crease sphere
    python3 tools/mesh_digests.py --mode classical > c.txt; diff a.txt c.txt
"""

import argparse
import dataclasses
import hashlib
import statistics
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
from worker import h_rel_dev  # noqa: E402
from workloads import (WORKLOADS, build_input, make_config,  # noqa: E402
                       mesh_seeds)


def refine_mesh(workload, seed, tmp, mode):
    """Refine the benchmark mesh of jitter seed ``seed`` in ``mode`` from
    the workload's input file (written to ``tmp`` once) and write its VTK
    and report files there; returns (config, ``RefineResult``, VTK path,
    report path)."""
    psc = tmp / f"{workload.name}.psc"
    if not psc.exists():
        write_complex(build_input(workload), str(psc))
    cfg = dataclasses.replace(make_config(workload.h, seed), mode=mode)
    result = refine(load_complex(str(psc)), cfg)
    vtk = tmp / "mesh.vtk"
    rep = tmp / "mesh.report.txt"
    write_vtk(str(vtk), result.mesh, result.rs)
    write_report(result.report, str(rep))
    return cfg, result, vtk, rep


def digest(workload, seed, tmp, mode):
    """(status, sha256 of the VTK bytes followed by the report bytes, the
    counts line's fields, ``Refiner.stats``, the summary line's values for
    this mesh)."""
    cfg, result, vtk, rep = refine_mesh(workload, seed, tmp, mode)
    sha = hashlib.sha256(vtk.read_bytes() + rep.read_bytes()).hexdigest()
    counts = result.report.counts
    fields = {key: counts[key] for key in ("points", "curve_edges",
                                           "surface_tris", "volume_tets")}
    fields["cert_passed"] = sum(result.audit.values())
    fields["inserted"] = result.stats["inserted"]
    summary = result.report.summary
    quality = {"failed": (result.status != "converged"
                          or not all(result.audit.values())),
               "inserted": result.stats["inserted"],
               "vlen_min": summary["volume_length"]["min"],
               "alen_min": summary["area_length"]["min"],
               "h_rel_dev": h_rel_dev(result.mesh, result.rs, cfg.sizing)}
    return result.status, sha, fields, result.stats, quality


def parse_args(doc, argv=None):
    """The workload names (default: all) and the parsed ``--seeds`` and
    ``--mode`` of a command line; ``doc``'s first line describes it."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"of {', '.join(sorted(WORKLOADS))} (default: all)")
    ap.add_argument("--seeds", type=int, default=10,
                    help="benchmark seeds 0 .. SEEDS-1 (default %(default)s)")
    ap.add_argument("--mode", choices=("frontal", "classical"),
                    default="frontal",
                    help="insertion rule (default %(default)s, the "
                    "benchmark's)")
    args = ap.parse_args(argv)
    names = args.workloads or sorted(WORKLOADS)
    for name in set(names) - WORKLOADS.keys():
        ap.error(f"unknown workload {name!r}")
    return names, args


def main(argv=None):
    names, args = parse_args(__doc__, argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workload = WORKLOADS[name]
            meshes = []
            totals = {}
            for seed in range(args.seeds):
                for mesh_seed in mesh_seeds(workload, seed):
                    status, sha, fields, stats, quality = digest(
                        workload, mesh_seed, Path(tmp), args.mode)
                    meshes.append(quality)
                    for k, v in stats.items():
                        totals[k] = totals.get(k, 0) + v
                    print(name, mesh_seed, status, sha)
                    print(name, mesh_seed, "counts",
                          *(f"{k}={v}" for k, v in fields.items()))
                    print(name, mesh_seed, "stats",
                          *(f"{k}={stats[k]}" for k in sorted(stats)),
                          flush=True)
            print(name, "summary", f"meshes={len(meshes)}",
                  f"failed={sum(q['failed'] for q in meshes)}",
                  f"inserted={sum(q['inserted'] for q in meshes)}",
                  *(f"{k}={statistics.median(q[k] for q in meshes):.4f}"
                    for k in ("vlen_min", "alen_min", "h_rel_dev")),
                  flush=True)
            print(name, "totals",
                  *(f"{k}={totals[k]}" for k in sorted(totals)), flush=True)


if __name__ == "__main__":
    main()
