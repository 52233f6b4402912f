"""The repetitions of one benchmark run, in the fresh process run.py starts.

Generates the workload's input from pscmesh.models and writes it as .psc.
Each repetition then times the same library calls as ``pscmesh.cli.run``:

* setup:  ``load_complex`` + ``Refiner(...)`` + ``Refiner.setup()``
* refine: ``Refiner.run()``
* write:  ``write_vtk`` + ``build_report`` + ``write_report``

After the clock stops it checks the output (certificates, surface
topology, VTK and report read back) and prints one JSON line.  Traced
repetitions have the layer functions wrapped by tracing.py and add the
per-layer numbers to their line.  The host-speed probe of hostspeed.py
runs before, between and after the phases, outside the clocks, and each
line carries the probe times on either side of each phase.
``workloads.plan`` fixes the repetitions from ``--seed`` and
``--seconds``; the last line gives the peak RSS of the process.

    python3 perfbench/worker.py --workload sphere --seed 0 --seconds 36 --out DIR
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hostspeed import probe  # noqa: E402
from workloads import WORKLOADS, build_input, make_config, plan  # noqa: E402


def surface_shape(rs):
    """(closed, Euler characteristic, component count) of the surface set."""
    edges = {}
    verts = set()
    for key in rs.tris:
        verts.update(key)
        for e in ((key[0], key[1]), (key[1], key[2]), (key[0], key[2])):
            edges[e] = edges.get(e, 0) + 1
    closed = bool(edges) and all(c == 2 for c in edges.values())
    chi = len(verts) - len(edges) + len(rs.tris)
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return closed, chi, len({find(v) for v in verts})


def certificates(refiner, geom):
    """Every ``Refiner.audit()`` certificate, plus closed, chi=2 and one
    component for the surface complex of a closed input surface."""
    cert = dict(refiner.audit())
    if geom.surface_closed:
        closed, chi, comps = surface_shape(refiner.rs)
        cert["sigma_closed"] = closed
        cert["sigma_chi2"] = chi == 2
        cert["sigma_connected"] = comps == 1
    return cert


def h_rel_dev(mesh, rs, sizing):
    """Median of |h_r - 1| over the output edges."""
    from pscmesh.quality import relative_edge_length
    edges = set(rs.edges)
    for a, b, c in rs.tris:
        edges.update(((a, b), (b, c), (a, c)))
    for a, b, c, d in rs.tets:
        edges.update(((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))
    return statistics.median(
        abs(relative_edge_length(mesh.points[u], mesh.points[w], sizing) - 1.0)
        for u, w in edges)


def outputs_consistent(vtk_path, report_path, rs, report):
    """The written VTK and report describe the in-memory result."""
    from pscmesh.vtk_io import read_vtk
    grid = read_vtk(vtk_path)
    counts = {}
    with open(report_path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("count."):
                key, value = line[len("count."):].split(" = ")
                counts[key] = int(value)
    return (len(grid.line_cells) == len(rs.edges)
            and len(grid.triangle_cells) == len(rs.tris)
            and len(grid.tet_cells) == len(rs.tets)
            and len(grid.points) == report.counts["points"]
            and counts == report.counts)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


SETUP_REPEATS = 2
WRITE_REPEATS = 5

# import_module: the package exports a function that shadows the
# attribute pscmesh.refine
geometry, quality, refine, vtk_io = (
    importlib.import_module("pscmesh." + m)
    for m in ("geometry", "quality", "refine", "vtk_io"))


def run_once(workload, psc, seed, h, out, tracer):
    vtk = out / f"{workload.name}-{seed}.vtk"
    rep = out / f"{workload.name}-{seed}.report.txt"
    cfg = make_config(h, seed)

    def phase(name):
        return tracer.phase(name) if tracer else contextlib.nullcontext()

    clock = time.perf_counter
    # setup and write are short, so an untraced repetition times each
    # several times and keeps the fastest; refine runs once.  The
    # host-speed probe brackets every phase, outside the clocks.
    setups, writes = (1, 1) if tracer else (SETUP_REPEATS, WRITE_REPEATS)
    setup_s, write_s, probes = [], [], [probe()]
    try:
        for _ in range(setups):
            t0 = clock()
            with phase("bench.setup"):
                geom = geometry.load_complex(str(psc))
                refiner = refine.Refiner(geom, cfg)
                refiner.setup()
            setup_s.append(clock() - t0)
        probes.append(probe())
        t1 = clock()
        with phase("bench.refine"):
            status = refiner.run()
        t2 = clock()
        probes.append(probe())
        for _ in range(writes):
            t3 = clock()
            with phase("bench.write"):
                vtk_io.write_vtk(str(vtk), refiner.mesh, refiner.rs)
                report = quality.build_report(refiner.mesh, refiner.rs,
                                              cfg.sizing, wall_time=t2 - t1,
                                              converged=status == "converged")
                quality.write_report(report, str(rep))
            write_s.append(clock() - t3)
        probes.append(probe())
    finally:
        if tracer:
            tracer.uninstall()

    cert = certificates(refiner, geom)
    result = {
        "status": status,
        "setup_s": min(setup_s), "refine_s": t2 - t1, "write_s": min(write_s),
        "probe_s": {"setup": probes[0:2], "refine": probes[1:3],
                    "write": probes[2:4]},
        "points": report.counts["points"],
        "counts": report.counts,
        "cert": cert,
        "cert_failures": sum(1 for ok in cert.values() if not ok),
        "cert_passed": sum(1 for ok in cert.values() if ok),
        "vlen_min": report.summary["volume_length"]["min"],
        "alen_min": report.summary["area_length"]["min"],
        "h_rel_dev": h_rel_dev(refiner.mesh, refiner.rs, cfg.sizing),
        "consistent": outputs_consistent(vtk, rep, refiner.rs, report),
        "digest": {"vtk": sha256(vtk), "report": sha256(rep)},
        "stats": dict(refiner.stats),
    }
    if tracer:
        from tracing import per_layer
        result["layers"] = per_layer(tracer, refiner.stats,
                                     vtk.stat().st_size)
        tracer.write(out / f"spans-{workload.name}-{seed}.jsonl")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True, help="directory for outputs")
    ap.add_argument("--h", type=float, default=None,
                    help="override the workload's target size")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    h = args.h if args.h is not None else workload.h
    out = Path(args.out)
    psc = out / f"{workload.name}.psc"
    geometry.write_complex(build_input(workload), str(psc))

    for seed, traced in plan(workload, args.seed, args.seconds, args.trace):
        tracer = None
        if traced:
            from tracing import install
            tracer = install()
        gc.collect()    # the previous repetition's mesh, outside the clock
        try:
            result = run_once(workload, psc, seed, h, out, tracer)
        except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
            traceback.print_exc()
            result = {"status": "error",
                      "error": f"{type(exc).__name__}: {exc}"}
        result.update(seed=seed, trace=traced)
        print(json.dumps(result, sort_keys=True), flush=True)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": rss}), flush=True)


if __name__ == "__main__":
    main()
