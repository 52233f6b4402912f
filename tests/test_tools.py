"""The scripts under ``tools/`` that compare a change with its parent:
``mesh_digests.py`` (the meshes), ``bench_pairs.py`` (the benchmark's
paired statistics), ``ab_refine.py`` (setup, refine and write times and
the setup's parts in one process) and ``line_trace.py`` (the package
lines the meshes never run)."""

import subprocess
import sys
from pathlib import Path

import pytest

from pscmesh.config import RefineConfig, SizingField
from pscmesh.models import cube
from pscmesh.refine import Refiner

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402


def test_mesh_digests_prints_three_lines_per_mesh_and_a_summary():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mesh_digests.py"), "--seeds",
         "1", "dense_surface"], stdout=subprocess.PIPE, text=True,
        check=True).stdout.splitlines()
    *meshes, summary, totals = [line.split() for line in out]
    assert summary[:3] == ["dense_surface", "summary",
                           f"meshes={len(meshes) // 3}"]
    assert len(meshes) % 3 == 0 and meshes
    stats = Refiner(cube(), RefineConfig(sizing=SizingField(h0=0.5))).stats
    sums = dict.fromkeys(sorted(stats), 0)
    for digest, counts, line in zip(*[iter(meshes)] * 3):
        assert digest[0] == counts[0] == line[0] == "dense_surface"
        assert digest[1] == counts[1] == line[1]
        assert len(digest[3]) == 64 and counts[2] == "counts"
        assert line[2] == "stats"
        assert [field.split("=")[0] for field in line[3:]] == sorted(stats)
        for field in line[3:]:
            key, value = field.split("=")
            sums[key] += int(value)
    assert totals[:2] == ["dense_surface", "totals"]
    assert totals[2:] == [f"{k}={v}" for k, v in sums.items()]


def test_line_trace_reports_the_tracer_only_functions_as_never_entered(
        capsys):
    # nearest_vertex and _contains are the names that only the benchmark
    # tracer keeps (test_benchmark_contract.py pins them); the driver's
    # step runs on every mesh
    argv = ["--seeds", "1", "dense_surface"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_trace.py"), *argv],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    found = {}
    for line in out.splitlines():
        module, name, span, what = line.split()
        first, last = map(int, span.split("-"))
        assert module.endswith(".py") and first <= last
        assert what == "never" or what.startswith("lines=")
        found[module, name] = what
    for name in ("TetMesh._contains", "TetMesh.nearest_vertex"):
        assert found["delaunay.py", name] == "never"
    assert found.get(("refine.py", "Refiner._step"), "") != "never"
    # the same lines in this process, whose tracer comes back afterwards
    import line_trace

    def outer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        line_trace.main(argv)
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
    assert capsys.readouterr().out == out


def test_ab_refine_prints_setup_and_refine_ratios_per_pair():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_refine.py"), str(ROOT),
         str(ROOT), "crease", "--rounds", "1"], stdout=subprocess.PIPE,
        text=True, check=True).stdout.splitlines()
    phases = ("refine", "setup", "write", "load_complex", "Refiner",
              "Refiner.setup")
    pairs, summaries = out[:-6], [line.split() for line in out[-6:]]
    assert pairs
    for pair in pairs:
        seed, *times = pair.split()
        int(seed)
        assert len(times) == 3 * len(phases)
        for i in range(0, len(times), 3):
            p, c, ratio = times[i:i + 3]
            assert float(p) > 0.0 and float(c) > 0.0
            # the times are rounded to 1 us, the ratio is not
            assert float(ratio) == pytest.approx(float(c) / float(p),
                                                 rel=0.05)
        # the setup's parts sum to it, up to the rounding of each
        for side in (0, 1):
            parts = sum(float(times[i + side]) for i in (9, 12, 15))
            assert parts == pytest.approx(float(times[3 + side]), abs=3e-6)
    for line, phase in zip(summaries, phases):
        assert line[:3] == ["crease", phase, "change/parent"]
        assert line[3].startswith("median=")
        assert line[-1].startswith("wins=")
        assert line[-1].endswith(f"/{len(pairs)}")


# ten pairs (parent, change) of a metric, seed by seed
PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


def mirrored(values, lower_is_better):
    """``values``, written for a metric where lower is better, for the
    given direction: negated when higher is better."""
    return values if lower_is_better else [-v for v in values]


@pytest.mark.parametrize("lower", [True, False], ids=["lower", "higher"])
def test_claim_counts_ties_for_neither_side(lower):
    change = PARENT[:5] + [p - 0.05 for p in PARENT[5:]]
    block = bench_pairs.claim(mirrored(PARENT, lower),
                              mirrored(change, lower), lower)
    assert block["change_better_pairs"] == 5
    assert block["pairs"] == 10
    assert not block["met"]
    # seen from the other side, the five ties are no wins either
    assert bench_pairs.claim(mirrored(change, lower), mirrored(PARENT, lower),
                             lower)["change_better_pairs"] == 0


@pytest.mark.parametrize("lower", [True, False], ids=["lower", "higher"])
def test_claim_needs_a_median_gain_beyond_the_parent_iqr(lower):
    # nine wins of 0.05 against a parent IQR of 0.55: not met
    change = [p - 0.05 for p in PARENT[:9]] + [PARENT[9] + 0.05]
    block = bench_pairs.claim(mirrored(PARENT, lower),
                              mirrored(change, lower), lower)
    assert block["change_better_pairs"] == 9
    assert block["parent_iqr"] == pytest.approx(0.55)
    assert not block["met"]
    # the same nine wins by more than the IQR: met
    change = [p - 1.0 for p in PARENT[:9]] + [PARENT[9] + 0.05]
    block = bench_pairs.claim(mirrored(PARENT, lower),
                              mirrored(change, lower), lower)
    assert block["change_better_pairs"] == 9
    assert block["met"]


@pytest.mark.parametrize("lower", [True, False], ids=["lower", "higher"])
def test_no_regression_holds_exactly_at_the_bound(lower):
    # medians 2.0 and 2.0 +- 0.5: a change of 0.25 x 2.0, the bound itself
    parent = [2.0] * 10
    worse = 0.5 if lower else -0.5
    line = bench_pairs.no_regression("m", parent, [2.0 + worse] * 10, lower,
                                     0.25)
    assert line["within_bound"]
    assert line["relative_change"] == (0.25 if lower else -0.25)
    beyond = [2.0 + 1.0001 * worse] * 10
    assert not bench_pairs.no_regression("m", parent, beyond, lower,
                                         0.25)["within_bound"]
    better = [2.0 - 4.0 * worse] * 10
    assert bench_pairs.no_regression("m", parent, better, lower,
                                     0.25)["within_bound"]


def test_failed_share_allows_no_larger_share():
    same = bench_pairs.failed_share([26, 140], [13, 70])
    assert same["within_bound"]
    assert same["parent_share"] == same["change_share"] == 0.1857
    assert not bench_pairs.failed_share([26, 140], [27, 140])["within_bound"]
    assert bench_pairs.failed_share([0, 0], [0, 0])["within_bound"]
