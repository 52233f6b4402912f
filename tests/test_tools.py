"""The scripts under ``tools/`` that compare a change with its parent:
``mesh_digests.py`` (the meshes), ``bench_pairs.py`` (the benchmark's
paired statistics), ``ab_refine.py`` (setup, refine and write times, the
setup's parts and the cascade stages in one process), ``line_trace.py``
(the package lines the meshes never run) and ``load_cost.py`` (the parts
of ``load_complex`` and the memory a loaded complex holds)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pscmesh.config import RefineConfig, SizingField
from pscmesh.models import cube
from pscmesh.refine import Refiner

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import ab_refine  # noqa: E402
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
    assert by_function(capsys.readouterr().out) == by_function(out)


def by_function(out):
    """``line_trace`` output as {(module, function): (last, what)}, each
    line number taken relative to the function's first line: the two
    sides of a comparison agree when a file's lines shift between them."""
    found = {}
    for line in out.splitlines():
        module, name, span, what = line.split()
        first, last = map(int, span.split("-"))
        if what != "never":
            runs = what[len("lines="):].split(",")
            what = ",".join("-".join(str(int(x) - first)
                                     for x in run.split("-")) for run in runs)
        found[module, name] = (last - first, what)
    return found


# run in a fresh process on a copy of the checkout's package, tools and
# benchmark: import line_trace, prepend a line to one source file of the
# copy, then trace the same meshes in a subprocess, which compiles the
# edited file, and in this process, which runs the imported code
SHIFTED_COPY = """
import contextlib
import io
import json
import subprocess
import sys

root = sys.argv[1]
sys.path.insert(0, root + "/tools")
import line_trace

path = line_trace.PACKAGE / "delaunay.py"
path.write_text("# an edit after the import\\n"
                + path.read_text(encoding="utf-8"), encoding="utf-8")
argv = ["--seeds", "1", "dense_surface"]
sub = subprocess.run([sys.executable, root + "/tools/line_trace.py", *argv],
                     stdout=subprocess.PIPE, text=True, check=True).stdout
out = io.StringIO()
with contextlib.redirect_stdout(out):
    line_trace.main(argv)
print(json.dumps({"subprocess": sub, "in_process": out.getvalue()}))
"""


def test_line_trace_sides_agree_when_a_file_shifts_mid_run(tmp_path):
    # the shift moves every span of the edited file, so the two outputs
    # differ as text, but not function by function
    copy = tmp_path.resolve()
    for part in ("src/pscmesh", "tools", "perfbench"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = json.loads(subprocess.run(
        [sys.executable, "-c", SHIFTED_COPY, str(copy)],
        stdout=subprocess.PIPE, text=True, check=True).stdout)
    sub, here = out["subprocess"], out["in_process"]
    assert sub != here
    assert any(line.startswith("delaunay.py ") for line in sub.splitlines())
    assert by_function(sub) == by_function(here)


# run in a fresh process on a copy of the package: trace cube(), edit every
# file of the copy, trace it again, and compare line_trace's function
# tables with the ones compiled from the unedited files
EDITED_COPY = """
import json
import sys
from pathlib import Path

copy, tools, tests = sys.argv[1:]
sys.path[:0] = [copy, tools, tests]
import pscmesh  # the copy, ahead of the checkout's src/
import line_trace
from oracles import function_table_reference
from pscmesh import models

paths = sorted(line_trace.PACKAGE.glob("*.py"))
files = {str(path) for path in paths}
tables = {path.name: function_table_reference(path) for path in paths}


def traced_report():
    ran = {}
    previous = sys.gettrace()
    sys.settrace(line_trace.tracer(files, ran))
    try:
        models.cube()
    finally:
        sys.settrace(previous)
    return line_trace.report(ran)


before = traced_report()
for path in paths:
    path.write_text("# an edit after the import\\n"
                    + path.read_text(encoding="utf-8"), encoding="utf-8")
after = traced_report()
same = all(line_trace.functions(module) == tables[Path(module.__file__).name]
           for module in line_trace.modules())
print(json.dumps({"before": before, "after": after, "same": same}))
"""


def test_line_trace_reads_the_spans_of_the_imported_code(tmp_path):
    # a source file edited after the import moves no span and unmatches
    # no traced line: the function table is the imported code's, which is
    # also the one its unedited source compiles to
    copy = tmp_path.resolve()
    shutil.copytree(ROOT / "src" / "pscmesh", copy / "pscmesh")
    out = json.loads(subprocess.run(
        [sys.executable, "-c", EDITED_COPY, str(copy), str(ROOT / "tools"),
         str(ROOT / "tests")], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    assert not any(line.startswith("models.py cube ")
                   for line in out["before"])
    assert any(line.startswith("models.py write_benchmarks ")
               and line.endswith(" never") for line in out["before"])
    assert out["after"] == out["before"]
    assert out["same"]


def test_load_cost_prints_every_part_within_the_total():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "load_cost.py"), "1", "-k",
         "1"], stdout=subprocess.PIPE, text=True,
        check=True).stdout.splitlines()
    assert len(out) == 1
    name, *fields = out[0].split()
    assert name == "icosphere(1)"
    values = dict(field.split("=") for field in fields)
    parts = ("read_text_s", "read_records_s", "complex_s", "seg_tree_s",
             "tri_tree_s")
    assert list(values) == ["triangles", "total_s", *parts,
                            "retained_mib", "peak_mib"]
    assert values["triangles"] == "80"
    assert all(float(values[part]) >= 0.0 for part in parts)
    # each printed time is rounded to 1 us
    assert (sum(float(values[part]) for part in parts)
            <= float(values["total_s"]) + 3e-6)
    assert 0.0 < float(values["retained_mib"]) <= float(values["peak_mib"])


def test_ab_refine_prints_setup_and_refine_ratios_per_pair():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_refine.py"), str(ROOT),
         str(ROOT), "crease", "--rounds", "1"], stdout=subprocess.PIPE,
        text=True, check=True).stdout.splitlines()
    phases = ("refine", "setup", "write", "load_complex", "Refiner",
              "Refiner.setup", "stage.edges", "stage.disk1", "stage.tris",
              "stage.disk2", "stage.tets")
    n = len(phases)
    pairs, summaries = out[:-n], [line.split() for line in out[-n:]]
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
            # the five stages run inside run(), which times them all
            stages = sum(float(times[i + side]) for i in range(18, 33, 3))
            assert 0.0 < stages <= float(times[side]) + 3e-6
    for line, phase in zip(summaries, phases):
        assert line[:3] == ["crease", phase, "change/parent"]
        assert line[3].startswith("median=")
        assert line[-1].startswith("wins=")
        assert line[-1].endswith(f"/{len(pairs)}")


def test_ab_refine_leaves_a_phase_that_did_not_run_out_of_its_summary():
    # a stage of a complex the input lacks takes 0 s on one side or both
    assert ab_refine.ratio(0.0, 0.5) is None
    assert ab_refine.ratio(0.5, 0.0) is None
    assert ab_refine.ratio(0.0, 0.0) is None
    assert ab_refine.ratio(0.25, 0.5) == 0.5
    assert (ab_refine.summary("sphere", "stage.edges", [None] * 4)
            == "sphere stage.edges change/parent did not run")
    line = ab_refine.summary("sphere", "stage.tris", [0.5, None, 2.0, 0.5])
    assert line.split()[3:] == ["median=0.5000", "quartiles=0.5000,2.0000",
                                "wins=2/3"]

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
