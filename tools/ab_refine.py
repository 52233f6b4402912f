"""Time the setup and ``Refiner.run()`` of two checkouts in one process,
in pairs.

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
``run()``.  It prints one line per pair, ``seed parent_s change_s
change/parent`` of ``run()`` and then the same three columns of the
setup, and last, for each of the two, the median and quartiles of the
ratios and the pairs the change won.

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


def load(checkout, wl, workload, psc):
    """(load_complex, Refiner, psc, {jitter seed: config}) of one
    checkout's package, which writes the workload's input to ``psc``;
    ``wl`` is the ``workloads`` module."""
    for name in [m for m in sys.modules
                 if m == "pscmesh" or m.startswith("pscmesh.")]:
        del sys.modules[name]
    src = str(Path(checkout).resolve() / "src")
    sys.path.insert(0, src)
    try:
        from pscmesh.geometry import load_complex, write_complex
        from pscmesh.refine import Refiner
        write_complex(wl.build_input(workload), str(psc))
        cfgs = {s: wl.make_config(workload.h, s)
                for s in wl.mesh_seeds(workload, 0)}
    finally:
        sys.path.remove(src)
    return load_complex, Refiner, psc, cfgs


def run_s(side, seed):
    """Wall seconds of one setup and of the ``Refiner.run()`` after it."""
    load_complex, refiner_cls, psc, cfgs = side
    gc.collect()
    t0 = time.perf_counter()
    refiner = refiner_cls(load_complex(str(psc)), cfgs[seed])
    refiner.setup()
    setup = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    refiner.run()
    return time.perf_counter() - t0, setup


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
        refine_ratios, setup_ratios = [], []
        seeds = wl.mesh_seeds(workload, 0)
        for k in range(args.rounds * len(seeds)):
            seed = seeds[k % len(seeds)]
            if k % 2 == 0:
                p = run_s(parent, seed)
                c = run_s(change, seed)
            else:
                c = run_s(change, seed)
                p = run_s(parent, seed)
            refine_ratios.append(c[0] / p[0])
            setup_ratios.append(c[1] / p[1])
            print(f"{seed} {p[0]:.4f} {c[0]:.4f} {c[0] / p[0]:.4f}"
                  f" {p[1]:.4f} {c[1]:.4f} {c[1] / p[1]:.4f}", flush=True)
    print(summary(args.workload, "refine", refine_ratios))
    print(summary(args.workload, "setup", setup_ratios))


if __name__ == "__main__":
    main()
