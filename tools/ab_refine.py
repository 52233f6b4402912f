"""Time the setup, ``Refiner.run()`` and its cascade stages and the write
phase of two checkouts in one process, in pairs.

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
can name the part it moved, and so are the five cascade stages of
``run()`` from ``Refiner.stage_s``, so that a change to the refinement can
name the stage it moved.  It prints one line per pair, ``seed parent_s
change_s change/parent`` of ``run()`` and then the same three columns of
the setup, of the write phase, of the setup's parts ``load_complex``,
``Refiner`` and ``Refiner.setup`` and of the stages ``stage.edges``,
``stage.disk1``, ``stage.tris``, ``stage.disk2`` and ``stage.tets``, and
last, for each of the eleven, the median and quartiles of the ratios and
the pairs the change won.  A phase that takes 0 s on either side of a
pair, such as the stage of a complex the input lacks, did not run there:
its ratio prints as ``-`` and is left out of the summary, whose line
says ``did not run`` when no pair is left.

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
STAGES = ("edges", "disk1", "tris", "disk2", "tets")
PHASES = ("refine", "setup", "write", "load_complex", "Refiner",
          "Refiner.setup", *(f"stage.{name}" for name in STAGES))


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
    run, the setup's three parts and the run's ``Refiner.stage_s``."""
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
    return (refine, t3 - t0, min(writes), t1 - t0, t2 - t1, t3 - t2,
            *(refiner.stage_s[name] for name in STAGES))


def ratio(change, parent):
    """change/parent of one phase's seconds, or None when either side took
    0 s: the phase did not run."""
    return change / parent if change and parent else None


def summary(workload, phase, ratios):
    """The median and quartiles of one phase's ratios and the pairs won,
    the pairs where it did not run (ratio None) left out."""
    ran = [r for r in ratios if r is not None]
    if not ran:
        return f"{workload} {phase} change/parent did not run"
    q1, _q2, q3 = statistics.quantiles(ran, n=4)
    return (f"{workload} {phase} change/parent "
            f"median={statistics.median(ran):.4f}"
            f" quartiles={q1:.4f},{q3:.4f}"
            f" wins={sum(r < 1.0 for r in ran)}/{len(ran)}")


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
            pair = [ratio(c[i], p[i]) for i in range(len(PHASES))]
            for phase_ratios, r in zip(ratios, pair):
                phase_ratios.append(r)
            # the setup's parts and some stages take about a millisecond:
            # times to 1 us
            print(seed, *(f"{p[i]:.6f} {c[i]:.6f} "
                          f"{'-' if r is None else f'{r:.4f}'}"
                          for i, r in enumerate(pair)), flush=True)
    for phase, phase_ratios in zip(PHASES, ratios):
        print(summary(args.workload, phase, phase_ratios))


if __name__ == "__main__":
    main()
