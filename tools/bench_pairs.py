"""Compare the end-to-end benchmark metrics of two checkouts, in pairs.

For each seed S in 0-9 this runs

    python3 perfbench/run.py --workload W --seed S --seconds 36 --trace 0

once in the parent checkout and once in the change checkout, the parent
first on even seeds and the change first on odd ones, so that a drift of
the host's speed during the session falls on both sides alike.  Each
checkout runs its own ``perfbench/`` on its own ``src/``; this script only
reads the last line of their output.  It prints one JSON line per run
with every end-to-end metric and, when a metric is named, the claim block
of a ``BENCH_*.json`` for it as JSON:

    parent_median, change_median    medians of the metric over the seeds
    parent_quartiles, parent_iqr    quartiles of the parent's runs
    change_better_pairs, pairs      seeds where the change is better
    change_over_parent              change_median / parent_median
    met                             better in at least 9 of 10 pairs and
                                    in the median by more than parent_iqr

Then (with or without a named metric) it prints one no-regression line
per end-to-end metric of ``BENCHMARK.json``, as JSON, from the same runs:

    metric, parent_median, change_median, parent_iqr
    relative_change                 change_median / parent_median - 1
    bound                           the metric's bound
    within_bound                    the change is not worse than the
                                    parent's median by more than bound
                                    times its size

and last one line that compares the share of failed operations, summed
over the runs of each side:

    metric                          "failed_share"
    parent_failed, parent_attempted totals of the parent's runs
    change_failed, change_attempted totals of the change's runs
    parent_share, change_share      failed / attempted of each side
    within_bound                    the change's share is not larger

"Better" and "worse" follow the metric's direction in the change
checkout's ``BENCHMARK.json``.  For example, with the parent at HEAD
checked out beside the working tree:

    git worktree add ../parent HEAD
    python3 tools/bench_pairs.py ../parent . dense_surface setup_s
    python3 tools/bench_pairs.py ../parent . sphere      # no claim
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(10)
SECONDS = 36


def run(checkout, workload, seed):
    """The metric values of one untraced benchmark run, and its summary."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited with code "
                         f"{proc.returncode}")
    summary = json.loads(lines[-1])
    return {k: v["value"] for k, v in summary["metrics"].items()}, summary


def claim(parent, change, lower_is_better):
    """The claim block from the paired values (parent[i], change[i])."""
    better = sum((c < p) if lower_is_better else (c > p)
                 for p, c in zip(parent, change))
    q1, _q2, q3 = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = p_med - c_med if lower_is_better else c_med - p_med
    return {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "parent_quartiles": [round(q1, 4), round(q3, 4)],
        "change_better_pairs": better,
        "pairs": len(parent),
        "parent_iqr": round(q3 - q1, 4),
        "change_over_parent": round(c_med / p_med, 4),
        "met": better >= 9 and gain > q3 - q1,
        "parent_runs": [round(x, 4) for x in parent],
        "change_runs": [round(x, 4) for x in change],
    }


def no_regression(name, parent, change, lower_is_better, bound):
    """The no-regression line of one metric from the paired values."""
    q1, _q2, q3 = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = c_med - p_med if lower_is_better else p_med - c_med
    return {
        "metric": name,
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "parent_iqr": round(q3 - q1, 4),
        "relative_change": (round(c_med / p_med - 1.0, 4) if p_med
                            else 0.0 if c_med == p_med else None),
        "bound": bound,
        "within_bound": worse <= bound * abs(p_med),
    }


def failed_share(parent, change):
    """The failed-share line from each side's [failed, attempted] totals."""
    p_share, c_share = (f / a if a else 0.0 for f, a in (parent, change))
    return {
        "metric": "failed_share",
        "parent_failed": parent[0], "parent_attempted": parent[1],
        "change_failed": change[0], "change_attempted": change[1],
        "parent_share": round(p_share, 4), "change_share": round(c_share, 4),
        "within_bound": c_share <= p_share,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="parent checkout")
    ap.add_argument("change", type=Path, help="change checkout")
    ap.add_argument("workload")
    ap.add_argument("metric", nargs="?",
                    help="an end_to_end name of BENCHMARK.json to claim a "
                    "gain in; without it only the no-regression lines")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.metric is not None and args.metric not in better:
        ap.error(f"unknown metric {args.metric!r}; one of "
                 f"{', '.join(better)}")
    # side -> metric -> the values of the runs in seed order
    values = {"parent": {}, "change": {}}
    # side -> [failed, attempted] summed over its runs
    ops = {"parent": [0, 0], "change": [0, 0]}
    for seed in SEEDS:
        sides = ("parent", "change") if seed % 2 == 0 else ("change",
                                                           "parent")
        for side in sides:
            metrics, summary = run(getattr(args, side), args.workload, seed)
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
            ops[side][0] += summary["failed"]
            ops[side][1] += summary["attempted"]
            print(json.dumps({"seed": seed, "side": side,
                              "correct": summary["correct"],
                              "failed": summary["failed"],
                              "attempted": summary["attempted"],
                              "metrics": metrics}), flush=True)
    if args.metric is not None:
        block = {"workload": args.workload, "metric": args.metric}
        block.update(claim(values["parent"][args.metric],
                           values["change"][args.metric],
                           better[args.metric] == "lower"))
        print(json.dumps(block, indent=1))
    for name in better:
        print(json.dumps(no_regression(
            name, values["parent"][name], values["change"][name],
            better[name] == "lower", bounds[name])))
    print(json.dumps(failed_share(ops["parent"], ops["change"])))


if __name__ == "__main__":
    main()
