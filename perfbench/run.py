"""pscmesh refinement benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sphere --seed 0 --seconds 36 --trace 0

Runs from the root of a source checkout.  The repetitions run in one fresh
``worker.py`` process with BLAS/OpenMP capped at one thread; this process
times a calibration loop before and after it and reduces its results.

``--trace 0`` measures the end-to-end metrics.  The run refines a fixed
set of meshes (jitter seeds ``--seed + 1,000,000 j``) round-robin, each
as often as ``--seconds`` allows at the workload's typical repetition
time (see workloads.plan), so the repetitions depend on the arguments
alone.  Every timing is scaled to a reference host speed by the probe of
hostspeed.py; a mesh's time is the median over its repetitions, and the
metric the mean over the meshes.  Mesh-quality figures are medians over
the meshes.

``--trace 1`` alternates untraced and traced repetitions at ``--seed``
itself and reports the per-layer metrics of tracing.py.  Their counts must
repeat exactly between traced repetitions, and every repetition must
produce the same output digests, traced or not.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, spans and the output
meshes go to ``.perfbench/`` under the checkout.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import scale  # noqa: E402
from tracing import PER_LAYER, TIMED_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [
    ("refine_s", "s"),
    ("points_per_s", "points/s"),
    ("setup_s", "s"),
    ("write_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cert_passed", "count"),
    ("vlen_min", "1"),
    ("alen_min", "1"),
    ("h_rel_dev", "1"),
]

RUN_LIMIT_S = 170.0         # a run ends within 180 s however slow the host
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def commit_id():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate():
    """Seconds for a fixed loop of 100,000 orient3d calls (a host-speed
    diagnostic reported next to the metrics, never applied to them)."""
    from pscmesh.predicates import orient3d
    rng = random.Random(12345)
    pts = [(rng.random(), rng.random(), rng.random()) for _ in range(1000)]
    t0 = time.perf_counter()
    for k in range(100_000):
        orient3d(pts[k % 1000], pts[(k * 7 + 1) % 1000],
                 pts[(k * 13 + 2) % 1000], pts[(k * 31 + 3) % 1000])
    return time.perf_counter() - t0


def child_env():
    env = dict(os.environ)
    for name in THREAD_CAPS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def measure(args, out, timeout):
    """Run worker.py once; (repetition records, peak RSS in MiB)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           repr(args.seconds), "--out", str(out)]
    if args.trace:
        cmd.append("--trace")
    if args.h is not None:
        cmd += ["--h", repr(args.h)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              cwd=str(ROOT), timeout=timeout, text=True,
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker killed after {timeout:.0f} s") from exc
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    reps = [r for r in records if "status" in r]
    rss = [r["peak_rss_mb"] for r in records if "status" not in r]
    if proc.returncode != 0 or not rss:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return reps, rss[0]


def failed_op(rec):
    """A raise, a max-points stop, or any failed certificate."""
    return rec["status"] != "converged" or rec.get("cert_failures", 0) > 0


def scaled(rec, key):
    """A phase timing ('setup_s', ...) at the probe's reference host speed."""
    return rec[key] * scale(*rec["probe_s"][key[:-len("_s")]])


def end_to_end(reps, peak_rss_mb):
    """The end-to-end metrics of an untraced run, and whether every
    repetition of a mesh wrote the same, consistent files.

    A mesh's time is the median of its repetitions' scaled timings;
    timings are the mean of that over the run's meshes.  Mesh-quality
    figures are medians over the meshes."""
    done = [r for r in reps if "digest" in r]
    meshes = {}
    for r in done:
        meshes.setdefault(r["seed"], []).append(r)
    if not meshes:
        raise BenchError("no repetition completed")

    def timing(key):
        return statistics.fmean(
            statistics.median(scaled(r, key) for r in rs)
            for rs in meshes.values())

    first = [rs[0] for rs in meshes.values()]
    refine_s = timing("refine_s")
    values = {
        "refine_s": refine_s,
        "points_per_s": statistics.fmean(r["points"] for r in first)
        / refine_s,
        "setup_s": timing("setup_s"),
        "write_s": timing("write_s"),
        "peak_rss_mb": peak_rss_mb,
        "cert_passed": min(r["cert_passed"] for r in done),
        "vlen_min": statistics.median(r["vlen_min"] for r in first),
        "alen_min": statistics.median(r["alen_min"] for r in first),
        "h_rel_dev": statistics.median(r["h_rel_dev"] for r in first),
    }
    same = all(len({json.dumps(r["digest"], sort_keys=True) for r in rs}) == 1
               for rs in meshes.values())
    return values, same and all(r["consistent"] for r in done)


def per_layer(reps):
    traced = [r for r in reps if r["trace"] and "layers" in r]
    plain = [r for r in reps if not r["trace"] and "digest" in r]
    if not traced or not plain:
        raise BenchError("trace run needs a completed traced and untraced "
                         "repetition")
    values = {}
    repeat = True
    for name, unit in PER_LAYER:
        if name == "trace.overhead":
            continue
        got = [r["layers"][name] for r in traced]
        if unit in TIMED_UNITS:
            values[name] = statistics.median(got)
        else:
            values[name] = got[0]
            if any(g != got[0] for g in got):
                print(f"count {name} differs between traced repetitions: "
                      f"{got}")
                repeat = False
    values["trace.overhead"] = (
        statistics.median(scaled(r, "refine_s") for r in traced)
        / statistics.median(scaled(r, "refine_s") for r in plain))
    done = [r for r in reps if "digest" in r]
    same = len({json.dumps(r["digest"], sort_keys=True) for r in done}) == 1
    correct = (repeat and same and len(traced) >= 2
               and all(r["consistent"] for r in done))
    return values, correct


def print_rep(i, r):
    if "digest" not in r:
        print(f"rep {i:2d} seed {r['seed']:>8d} trace {int(r['trace'])} "
              f"{r['status']}: {r.get('error', '')}")
        return
    failed = sorted(k for k, ok in r["cert"].items() if not ok)
    print(f"rep {i:2d} seed {r['seed']:>8d} trace {int(r['trace'])} "
          f"{r['status']} host scale "
          f"{scale(*r['probe_s']['refine']):.3f} "
          f"setup {r['setup_s']:.3f} s refine "
          f"{r['refine_s']:.3f} s write {r['write_s']:.3f} s "
          f"points {r['points']} "
          f"sha256 vtk {r['digest']['vtk']} report {r['digest']['report']}"
          + (f" FAILED certificates {','.join(failed)}" if failed else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--h", type=float, default=None,
                    help="override the workload's target size (self-tests)")
    args = ap.parse_args(argv)
    began = time.perf_counter()
    if not (ROOT / "src" / "pscmesh" / "__init__.py").is_file():
        print(f"error: no pscmesh sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for name in THREAD_CAPS:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    trace = bool(args.trace)
    out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print(f"pscmesh benchmark: workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"commit {commit_id()} python {platform.python_version()} "
          f"numpy {numpy.__version__} nproc {os.cpu_count()} "
          f"affinity {len(os.sched_getaffinity(0))} threads capped at 1")

    calib_before = calibrate()
    start = time.perf_counter()
    try:
        reps, peak_rss_mb = measure(args, out, RUN_LIMIT_S - (start - began))
        measured = time.perf_counter() - start
        for i, rec in enumerate(reps):
            print_rep(i, rec)
        calib_after = calibrate()
        if trace:
            values, correct = per_layer(reps)
        else:
            values, correct = end_to_end(reps, peak_rss_mb)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = dict(PER_LAYER if trace else END_TO_END)
    failed = sum(1 for r in reps if failed_op(r))
    print(f"calibration: 100k orient3d calls took {calib_before:.4f} s "
          f"before and {calib_after:.4f} s after the run")
    print(f"{len(reps)} repetitions in {measured:.1f} s, {failed} failed "
          f"operations, outputs {'correct' if correct else 'NOT correct'}")
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    summary = {"correct": correct, "attempted": len(reps), "failed": failed,
               "metrics": metrics}
    details = dict(summary, workload=args.workload, seed=args.seed,
                   trace=args.trace, commit=commit_id(),
                   python=platform.python_version(),
                   numpy=numpy.__version__, nproc=os.cpu_count(),
                   calibration_s={"before": calib_before,
                                  "after": calib_after},
                   repetitions=reps)
    (out / "result.json").write_text(json.dumps(details, indent=1,
                                                sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
