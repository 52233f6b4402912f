"""Time ``load_complex`` and its parts, and measure what a loaded complex
holds in memory.

    python3 tools/load_cost.py [LEVEL ...] [--psc FILE ...] [-k K]

The inputs are ``models.icosphere(LEVEL)`` for each level (4 5 6 when no
input is named), each written to a temporary ``.psc`` file first, and
each ``--psc`` file.  Each input is loaded K times (default 5) with the
collector on, a ``gc.collect()`` before each load outside the clock, and
one line is printed per input:

    input triangles=.. total_s=.. read_text_s=.. read_records_s=..
        complex_s=.. seg_tree_s=.. tri_tree_s=.. retained_mib=.. peak_mib=..

(on one line).  ``total_s`` is the fastest of the K ``load_complex`` calls.
The parts are timed inside the same calls, by wrapping ``read_text``,
``_read_records``, ``PiecewiseComplex`` and ``AABBTree`` in
``pscmesh.geometry``: ``complex_s`` is the constructor less its two tree
builds, and ``seg_tree_s`` and ``tri_tree_s`` are the ``AABBTree(...)``
calls of the curve and triangle trees (their boxes are the
constructor's).  Each part is the fastest of its K times, so the parts sum
to at most ``total_s``.  ``retained_mib`` is the memory that tracemalloc
traces to one more loaded complex once it is loaded, and ``peak_mib`` the
most it traced beyond that starting point during the load.
"""

import argparse
import gc
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pscmesh import geometry, models  # noqa: E402

PARTS = ("read_text", "read_records", "complex", "seg_tree", "tri_tree")


def timed_load(path):
    """(total, {part: seconds}) of one ``load_complex(path)``."""
    real = {name: getattr(geometry, name) for name in
            ("read_text", "_read_records", "PiecewiseComplex", "AABBTree")}
    spent = dict.fromkeys(PARTS, 0.0)
    built = {}

    def timing(name, part):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            out = real[name](*args, **kwargs)
            spent[part] += time.perf_counter() - t0
            return out
        return call

    def tree(boxes):
        t0 = time.perf_counter()
        out = real["AABBTree"](boxes)
        built[id(out)] = time.perf_counter() - t0
        return out

    wrapped = {"read_text": timing("read_text", "read_text"),
               "_read_records": timing("_read_records", "read_records"),
               "PiecewiseComplex": timing("PiecewiseComplex", "complex"),
               "AABBTree": tree}
    gc.collect()
    try:
        for name, fn in wrapped.items():
            setattr(geometry, name, fn)
        t0 = time.perf_counter()
        cplx = geometry.load_complex(path)
        total = time.perf_counter() - t0
    finally:
        for name, fn in real.items():
            setattr(geometry, name, fn)
    spent["seg_tree"] = built[id(cplx.seg_tree)]
    spent["tri_tree"] = built[id(cplx.tri_tree)]
    spent["complex"] -= spent["seg_tree"] + spent["tri_tree"]
    return total, spent


def memory(path):
    """(retained, peak) MiB that tracemalloc traces to one loaded complex."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cplx = geometry.load_complex(path)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del cplx
    return (current - base) / 2 ** 20, (peak - base) / 2 ** 20


def report(name, path, repeats):
    runs = [timed_load(path) for _ in range(repeats)]
    best = {part: min(spent[part] for _total, spent in runs)
            for part in PARTS}
    retained, peak = memory(path)
    triangles = len(geometry.load_complex(path).triangles)
    fields = [f"triangles={triangles}",
              f"total_s={min(total for total, _spent in runs):.6f}",
              *(f"{part}_s={best[part]:.6f}" for part in PARTS),
              f"retained_mib={retained:.2f}", f"peak_mib={peak:.2f}"]
    print(name, *fields, flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("levels", nargs="*", type=int,
                    help="icosphere levels (default 4 5 6 without --psc)")
    ap.add_argument("--psc", action="append", default=[],
                    help="a .psc file to load (repeatable)")
    ap.add_argument("-k", "--repeats", type=int, default=5,
                    help="loads per input; the fastest counts")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    levels = args.levels or ([] if args.psc else [4, 5, 6])
    with tempfile.TemporaryDirectory() as tmp:
        for level in levels:
            path = str(Path(tmp) / f"icosphere{level}.psc")
            geometry.write_complex(models.icosphere(level), path)
            report(f"icosphere({level})", path, args.repeats)
    for path in args.psc:
        report(path, path, args.repeats)


if __name__ == "__main__":
    main()
