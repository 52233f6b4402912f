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

``--corpus hard`` refines the models of ``hard_corpus.py`` instead, with
the benchmark's settings at each model's h, from jitter seed 0 to
``--seeds`` - 1 (default 2) and in both modes unless ``--mode`` names
one.  Each model and mode, named ``model.mode`` in every line, prints
its meshes' lines, its summary line and its totals line as a workload
does.  These inputs fire the disk repairs, the rollbacks and the collar
rejections that the benchmark meshes never reach.
pscmesh is imported from the ``src/`` of the checkout that holds this
script.

    python3 tools/mesh_digests.py > a.txt
    python3 tools/mesh_digests.py --seeds 3 crease sphere
    python3 tools/mesh_digests.py --mode classical > c.txt; diff a.txt c.txt
    python3 tools/mesh_digests.py --corpus hard slab needle
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

from hard_corpus import CORPUS, Model  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from worker import h_rel_dev  # noqa: E402
from workloads import (WORKLOADS, build_input, make_config,  # noqa: E402
                       mesh_seeds)


def refine_mesh(workload, seed, tmp, mode):
    """Refine the mesh of jitter seed ``seed`` in ``mode`` of a benchmark
    workload or a corpus ``Model`` from its input file (written to ``tmp``
    once) and write its VTK and report files there; returns (config,
    ``RefineResult``, VTK path, report path)."""
    psc = tmp / f"{workload.name}.psc"
    if not psc.exists():
        geom = (workload.make() if isinstance(workload, Model)
                else build_input(workload))
        write_complex(geom, str(psc))
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
    """The workload or corpus model names (default: all) and the parsed
    ``--seeds``, ``--mode`` and ``--corpus`` of a command line, the
    defaults of ``--seeds`` and ``--mode`` filled in; ``doc``'s first line
    describes it."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"of {', '.join(sorted(WORKLOADS))}, or with "
                    f"--corpus of {', '.join(CORPUS)} (default: all)")
    ap.add_argument("--corpus", choices=("hard",),
                    help="refine the hard-input corpus of hard_corpus.py")
    ap.add_argument("--seeds", type=int,
                    help="seeds 0 .. SEEDS-1 (default 10: benchmark seeds; "
                    "2 with --corpus: jitter seeds)")
    ap.add_argument("--mode", choices=("frontal", "classical"),
                    help="insertion rule (default frontal, the benchmark's; "
                    "both with --corpus)")
    args = ap.parse_args(argv)
    known = CORPUS if args.corpus else WORKLOADS
    names = args.workloads or (list(CORPUS) if args.corpus
                               else sorted(WORKLOADS))
    for name in set(names) - known.keys():
        ap.error(f"unknown {'model' if args.corpus else 'workload'} {name!r}")
    if args.seeds is None:
        args.seeds = 2 if args.corpus else 10
    if args.mode is None and not args.corpus:
        args.mode = "frontal"
    return names, args


def groups(names, args):
    """[(label, workload or ``Model``, mode, jitter seeds)]: each benchmark
    workload in ``args.mode``, or each corpus model in each mode."""
    if not args.corpus:
        return [(name, WORKLOADS[name], args.mode,
                 [s for seed in range(args.seeds)
                  for s in mesh_seeds(WORKLOADS[name], seed)])
                for name in names]
    modes = [args.mode] if args.mode else ["frontal", "classical"]
    return [(f"{name}.{mode}", CORPUS[name], mode, list(range(args.seeds)))
            for name in names for mode in modes]


def main(argv=None):
    names, args = parse_args(__doc__, argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload, mode, seeds in groups(names, args):
            meshes = []
            totals = {}
            for mesh_seed in seeds:
                status, sha, fields, stats, quality = digest(
                    workload, mesh_seed, Path(tmp), mode)
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
