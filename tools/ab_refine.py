"""Time the setup, ``Refiner.run()`` and write phase of two checkouts in
one process, in pairs.

    python3 tools/ab_refine.py PARENT CHANGE WORKLOAD [--rounds N]

Each checkout's ``pscmesh`` is imported from its ``src/`` in turn, the
``pscmesh`` modules being purged from ``sys.modules`` between the two, so
both live in this process side by side.  The workload, its input and its
settings come from the change checkout's ``perfbench/workloads.py``; each
side builds the input with its own package and writes it as a ``.psc``
file once.  Then, for ``--rounds`` rounds, every mesh of
``workloads.mesh_seeds(workload, 0)`` is set up and refined once by each
side: the parent first for the even pairs and the change first for the
odd ones.  As in ``perfbench/worker.py``, the setup is ``load_complex``
of the side's file + ``Refiner(...)`` + ``setup()``, timed apart from
``run()``, and the write phase is ``write_vtk`` + ``build_report`` +
``write_report`` of the refined mesh, the fastest of five.  The three
parts of the setup are timed apart as well, so that a change to the setup
can name the part it moved.  It prints one line per pair, ``seed
parent_s change_s change/parent`` of ``run()`` and then the same three
columns of the setup, of the write phase and of the setup's parts
``load_complex``, ``Refiner`` and ``Refiner.setup``, and last, for each
of the six, the median and quartiles of the ratios and the pairs the
change won.

A sizing aid, not evidence for a claim: the two sides share one process,
its heap and its caches, where the benchmark runs each checkout in a
process of its own (``tools/bench_pairs.py``).  It answers in about a
minute per workload, where the benchmark's pairs take several.
"""

import argparse
import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path


WRITE_REPEATS = 5
PHASES = ("refine", "setup", "write", "load_complex", "Refiner",
          "Refiner.setup")


def load(checkout, wl, workload, psc):
    """(load_complex, Refiner, psc, {jitter seed: config}, write) of one
    checkout's package, which writes the workload's input to ``psc``;
    ``wl`` is the ``workloads`` module and ``write(refiner, status, sizing)``
    the side's write phase, into files beside ``psc``."""
    for name in [m for m in sys.modules
                 if m == "pscmesh" or m.startswith("pscmesh.")]:
        del sys.modules[name]
    src = str(Path(checkout).resolve() / "src")
    sys.path.insert(0, src)
    try:
        from pscmesh.geometry import load_complex, write_complex
        from pscmesh.quality import build_report, write_report
        from pscmesh.refine import Refiner
        from pscmesh.vtk_io import write_vtk
        write_complex(wl.build_input(workload), str(psc))
        cfgs = {s: wl.make_config(workload.h, s)
                for s in wl.mesh_seeds(workload, 0)}
    finally:
        sys.path.remove(src)

    def write(refiner, status, sizing):
        write_vtk(str(psc.with_suffix(".vtk")), refiner.mesh, refiner.rs)
        write_report(build_report(refiner.mesh, refiner.rs, sizing,
                                  converged=status == "converged"),
                     str(psc.with_suffix(".report.txt")))

    return load_complex, Refiner, psc, cfgs, write


def run_s(side, seed):
    """Wall seconds of ``PHASES``: the ``Refiner.run()`` after one setup,
    the setup, the fastest of ``WRITE_REPEATS`` write phases after the
    run, and the setup's three parts."""
    load_complex, refiner_cls, psc, cfgs, write = side
    gc.collect()
    t0 = time.perf_counter()
    pc = load_complex(str(psc))
    t1 = time.perf_counter()
    refiner = refiner_cls(pc, cfgs[seed])
    t2 = time.perf_counter()
    refiner.setup()
    t3 = time.perf_counter()
    gc.collect()
    t4 = time.perf_counter()
    status = refiner.run()
    refine = time.perf_counter() - t4
    writes = []
    for _ in range(WRITE_REPEATS):
        t5 = time.perf_counter()
        write(refiner, status, cfgs[seed].sizing)
        writes.append(time.perf_counter() - t5)
    return refine, t3 - t0, min(writes), t1 - t0, t2 - t1, t3 - t2


def summary(workload, phase, ratios):
    """The median and quartiles of one phase's ratios and the pairs won."""
    q1, _q2, q3 = statistics.quantiles(ratios, n=4)
    return (f"{workload} {phase} change/parent "
            f"median={statistics.median(ratios):.4f}"
            f" quartiles={q1:.4f},{q3:.4f}"
            f" wins={sum(r < 1.0 for r in ratios)}/{len(ratios)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="parent checkout")
    ap.add_argument("change", type=Path, help="change checkout")
    ap.add_argument("workload")
    ap.add_argument("--rounds", type=int, default=5,
                    help="setups and refines of every mesh by each side "
                         "(default 5)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.change.resolve() / "perfbench"))
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of "
                 f"{', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        parent = load(args.parent, wl, workload, Path(tmp) / "parent.psc")
        change = load(args.change, wl, workload, Path(tmp) / "change.psc")
        ratios = tuple([] for _ in PHASES)
        seeds = wl.mesh_seeds(workload, 0)
        for k in range(args.rounds * len(seeds)):
            seed = seeds[k % len(seeds)]
            if k % 2 == 0:
                p = run_s(parent, seed)
                c = run_s(change, seed)
            else:
                c = run_s(change, seed)
                p = run_s(parent, seed)
            for phase, phase_ratios in enumerate(ratios):
                phase_ratios.append(c[phase] / p[phase])
            # the setup's parts take about a millisecond: times to 1 us
            print(seed, *(f"{p[i]:.6f} {c[i]:.6f} {c[i] / p[i]:.4f}"
                          for i in range(len(PHASES))), flush=True)
    for phase, phase_ratios in zip(PHASES, ratios):
        print(summary(args.workload, phase, phase_ratios))


if __name__ == "__main__":
    main()
