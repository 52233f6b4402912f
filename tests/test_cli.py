import os
import subprocess
import sys
from pathlib import Path

import pytest

from pscmesh.cli import build_parser, load_sizing, main, make_config
from pscmesh.config import GridSizing
from pscmesh.errors import ValidationError
from pscmesh.geometry import load_complex, write_complex
from pscmesh.models import cube
from pscmesh.vtk_io import read_vtk

SRC = Path(__file__).resolve().parent.parent / "src"


def write_cube(tmp_path):
    path = tmp_path / "cube.psc"
    write_complex(cube(), str(path))
    return str(path)


def test_defaults_match_benchmark_parameters(tmp_path):
    src = write_cube(tmp_path)
    args = build_parser().parse_args(["--input", src])
    geom = load_complex(src)
    cfg = make_config(args, geom)
    assert cfg.rho_surf == 1.25
    assert cfg.rho_vol == 2.0
    assert cfg.eps_rel == 0.25
    assert abs(cfg.vlen_min - 1 / 3) < 1e-15
    assert abs(cfg.alpha - 4 / 3) < 1e-15
    assert cfg.collar_beta == 1.5
    assert cfg.mode == "frontal"
    # default sizing: 3% of the mean bounding-box dimension
    assert abs(cfg.sizing.h0 - 0.03) < 1e-12


def test_explicit_benchmark_flags(tmp_path):
    src = write_cube(tmp_path)
    args = build_parser().parse_args(
        ["--input", src, "--rho-surf", "1.25", "--rho-vol", "2",
         "--hfun", "0.25", "--mode", "classical"])
    cfg = make_config(args, load_complex(src))
    assert cfg.rho_surf == 1.25 and cfg.rho_vol == 2.0
    assert cfg.sizing.h0 == 0.25
    assert cfg.mode == "classical"


def test_vlen_above_third_rejected(tmp_path):
    src = write_cube(tmp_path)
    args = build_parser().parse_args(["--input", src, "--vlen-min", "0.4"])
    with pytest.raises(ValidationError, match="convergent"):
        make_config(args, load_complex(src))
    assert main(["--input", src, "--vlen-min", "0.4"]) == 1


def test_unknown_flag_and_bad_number_exit_1(tmp_path):
    src = write_cube(tmp_path)
    assert main(["--input", src, "--no-such-flag"]) == 1
    assert main(["--input", src, "--rho-surf", "abc"]) == 1


def test_corrupt_input_exits_1(tmp_path):
    path = tmp_path / "bad.psc"
    path.write_text("v 0 0 0\nt 0 1 9 0\n")
    assert main(["--input", str(path)]) == 1


def test_zero_length_segment_exits_1(tmp_path, capsys):
    path = tmp_path / "zero.psc"
    path.write_text("v 0 0 0\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"
                    "e 0 1 0\ne 1 2 0\ne 2 3 0\n")
    assert main(["--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: segment 0 has zero length\n"


def test_underflowing_segment_exits_1(tmp_path, capsys):
    # ends 1e-200 apart: distinct coordinates, but a squared length of 0
    path = tmp_path / "tiny.psc"
    path.write_text("v 0 0 0\nv 1e-200 0 0\nv 1 0 0\nv 0 1 0\n"
                    "e 0 1 0\ne 1 2 0\ne 2 3 0\n")
    assert main(["--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: segment 0 has zero length\n"


def test_input_beyond_the_float_range_exits_1(tmp_path):
    # the kernel's shell corners lie 5 diagonals out, where its predicates
    # overflow: the input is rejected before it gets there, with one error
    # line and no numpy overflow warning
    path = tmp_path / "huge.psc"
    path.write_text("v 0 0 0\nv 1e200 0 0\nv 0 1e200 0\ne 0 1 0\ne 1 2 0\n")
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from pscmesh.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "--input", str(path)],
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 1
    assert run.stderr == ("error: bounding box diagonal exceeds 1e+50; "
                          "rescale the input\n")


def test_open_surface_off_the_curves_exits_1(tmp_path, capsys):
    # a lone triangle: no restricted curve edge can bound its rim, so the
    # run would never converge
    path = tmp_path / "sheet.psc"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nt 0 1 2 0\n")
    assert main(["--input", str(path), "--hfun", "0.3"]) == 1
    assert capsys.readouterr().err == (
        "error: surface edge (0, 1) bounds one triangle and follows no curve "
        "segment: an open surface must end on curves\n")


@pytest.mark.parametrize("text", ["", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"],
                         ids=["empty", "points-only"])
def test_input_with_nothing_to_mesh_exits_1(text, tmp_path, capsys):
    path = tmp_path / "bare.psc"
    path.write_text(text)
    assert main(["--input", str(path), "--hfun", "0.3",
                 "--output", str(tmp_path / "m.vtk"),
                 "--report", str(tmp_path / "r.txt"),
                 "--manifest", str(tmp_path / "m.txt")]) == 1
    assert capsys.readouterr().err == (
        "error: the input has no curve segments and no triangles\n")
    assert not (tmp_path / "m.vtk").exists()


@pytest.mark.parametrize("seed", ["-1", "4294967296"])
def test_seed_outside_32_bits_exits_1(seed, tmp_path, capsys):
    # the jitter keys on the seed shifted into the high 32 of 64 bits, so
    # seeds 0 and 2**32 (or -1 and 2**32 - 1) would give the same mesh
    src = write_cube(tmp_path)
    assert main(["--input", src, "--seed", seed]) == 1
    assert capsys.readouterr().err == "error: seed must lie in [0, 2**32)\n"


def test_negative_point_budget_exits_1(tmp_path, capsys):
    src = write_cube(tmp_path)
    assert main(["--input", src, "--max-points", "-3"]) == 1
    assert capsys.readouterr().err == (
        "error: max_points must not be negative\n")


@pytest.mark.parametrize("which", ["input", "grid"])
def test_non_utf8_file_exits_1_naming_the_byte(which, tmp_path, capsys):
    # an undecodable byte is an input error, not a traceback: the message
    # names the file and the byte's offset
    src = write_cube(tmp_path)
    bad = tmp_path / "bad"
    if which == "input":
        bad.write_bytes(b"v 0 0 0\nv 1 0 \xff\n")
        argv, what = ["--input", str(bad)], "input"
    else:
        bad.write_bytes(b"dims 2 2 2\xff\n")
        argv, what = ["--input", src, "--hfun", f"grid:{bad}"], "sizing grid"
    assert main(argv + ["--output", str(tmp_path / "m.vtk")]) == 1
    assert capsys.readouterr().err == (
        f"error: {what} {str(bad)!r}: byte 0xff at offset "
        f"{bad.read_bytes().index(0xff)} is not UTF-8\n")
    assert not (tmp_path / "m.vtk").exists()


def test_run_cube_writes_valid_outputs(tmp_path):
    src = write_cube(tmp_path)
    out = str(tmp_path / "cube.vtk")
    rep = str(tmp_path / "cube.report.txt")
    man = str(tmp_path / "cube.manifest.txt")
    code = main(["--input", src, "--hfun", "0.25", "--output", out,
                 "--report", rep, "--manifest", man])
    assert code == 0
    grid = read_vtk(out)
    assert len(grid.line_cells) > 0
    assert len(grid.triangle_cells) > 0
    assert len(grid.tet_cells) > 0
    assert set(grid.cell_data) == {"radius_edge", "quality", "feature_id"}
    text = open(rep).read()
    assert "converged = 1" in text
    assert "time" not in text  # timing lives in the manifest only
    assert "time.refine_s" in open(man).read()


def test_vtk_roundtrip_exact(tmp_path):
    src = write_cube(tmp_path)
    out = str(tmp_path / "m.vtk")
    main(["--input", src, "--hfun", "0.3", "--output", out,
          "--report", str(tmp_path / "r.txt"),
          "--manifest", str(tmp_path / "m.txt")])
    g1 = read_vtk(out)
    # re-write the parsed grid and parse again: resolved cell coordinates
    # survive the text format bit-exactly
    from pscmesh.refine import RestrictedSets
    from pscmesh.restricted import Restricted
    from pscmesh.vtk_io import write_vtk

    class _Mesh:
        points = {i: p for i, p in enumerate(g1.points)}

    rs = RestrictedSets()
    for cell in g1.cells:
        rs.table[len(cell) - 1][cell] = Restricted(cell, (0, 0, 0), 0.0, 0.0,
                                                   0, 0.5, 1.0)

    out2 = str(tmp_path / "m2.vtk")
    write_vtk(out2, _Mesh, rs)
    g2 = read_vtk(out2)

    def resolved(grid):
        return sorted(tuple(sorted(grid.points[i] for i in cell))
                      for cell in grid.cells)

    assert len(g2.points) == len(g1.points)
    assert sorted(g2.points) == sorted(g1.points)
    assert resolved(g2) == resolved(g1)
    assert sorted(g2.cell_types) == sorted(g1.cell_types)


def test_tiny_max_points_exits_2_with_valid_partial_mesh(tmp_path):
    src = write_cube(tmp_path)
    out = str(tmp_path / "partial.vtk")
    code = main(["--input", src, "--hfun", "0.18", "--max-points", "40",
                 "--output", out, "--report", str(tmp_path / "r.txt"),
                 "--manifest", str(tmp_path / "m.txt")])
    assert code == 2
    grid = read_vtk(out)
    assert len(grid.points) > 0
    assert "converged = 0" in open(str(tmp_path / "r.txt")).read()


def test_grid_sizing_file(tmp_path):
    path = tmp_path / "size.grid"
    path.write_text("dims 2 2 2\norigin 0 0 0\nspacing 1 1 1\n"
                    "values 0.2 0.2 0.2 0.2 0.2 0.2 0.2 0.1\n")
    sizing = load_sizing(f"grid:{path}", cube())
    assert isinstance(sizing, GridSizing)
    assert abs(sizing.value((0, 0, 0)) - 0.2) < 1e-12
    assert abs(sizing.value((1, 1, 1)) - 0.1) < 1e-12
    assert abs(sizing.value((1, 1, 0.5)) - 0.15) < 1e-12


def test_determinism_byte_identical(tmp_path):
    src = write_cube(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"{tag}.vtk")
        rep = str(tmp_path / f"{tag}.report.txt")
        man = str(tmp_path / f"{tag}.manifest.txt")
        assert main(["--input", src, "--hfun", "0.3", "--seed", "3",
                     "--output", out, "--report", rep,
                     "--manifest", man]) == 0
        outs.append((open(out, "rb").read(), open(rep, "rb").read()))
    assert outs[0] == outs[1]


def test_compare_mode_runs_both(tmp_path, capsys):
    src = write_cube(tmp_path)
    code = main(["--input", src, "--hfun", "0.3", "--compare",
                 "--output", str(tmp_path / "cmp.vtk"),
                 "--report", str(tmp_path / "cmp.rep"),
                 "--manifest", str(tmp_path / "cmp.man")])
    assert code == 0
    out = capsys.readouterr().out
    assert "classical" in out and "frontal" in out
    assert "median h_r" in out
    assert os.path.exists(str(tmp_path / "cmp.vtk.classical.vtk"))
    assert os.path.exists(str(tmp_path / "cmp.vtk.frontal.vtk"))


@pytest.mark.parametrize("compare", [False, True], ids=["plain", "compare"])
def test_report_and_manifest_default_beside_the_output(compare, tmp_path,
                                                       capsys):
    src_dir, out_dir = tmp_path / "in", tmp_path / "out"
    src_dir.mkdir()
    out_dir.mkdir()
    src = write_cube(src_dir)
    argv = ["--input", src, "--hfun", "0.5", "--max-points", "20",
            "--output", str(out_dir / "y.vtk")]
    assert main(argv + ["--compare"] * compare) == 2
    names = ["y.vtk", "y.report.txt", "y.manifest.txt"]
    if compare:
        names = [f"{name}.{mode}.{name.rsplit('.', 1)[1]}"
                 for name in names for mode in ("classical", "frontal")]
    assert sorted(os.listdir(out_dir)) == sorted(names)
    assert os.listdir(src_dir) == ["cube.psc"]


def test_compare_mode_writes_a_manifest_per_mode(tmp_path, capsys):
    src = write_cube(tmp_path)
    man = str(tmp_path / "cmp.man")
    assert main(["--input", src, "--hfun", "0.5", "--seed", "7", "--compare",
                 "--output", str(tmp_path / "cmp.vtk"),
                 "--report", str(tmp_path / "cmp.rep"),
                 "--manifest", man]) == 0
    for mode in ("classical", "frontal"):
        entries = dict(line.split(" = ", 1) for line in
                       open(f"{man}.{mode}.txt").read().splitlines())
        assert entries["mode"] == mode
        assert entries["status"] == "converged"
        assert entries["output.mesh"] == str(tmp_path / f"cmp.vtk.{mode}.vtk")
        assert entries["output.report"] == str(tmp_path / f"cmp.rep.{mode}.txt")
        for phase in ("load", "setup", "refine", "report", "audit",
                      "write"):
            assert float(entries[f"time.{phase}_s"]) >= 0.0
        assert int(entries["stats.inserted"]) > 0
        assert entries["audit.converged"] == "1"
        assert "guaranteed-termination bound" in entries["warning.0"]


def test_manifest_records_timings_stats_audit_and_warnings(tmp_path, capsys):
    src = write_cube(tmp_path)
    man = str(tmp_path / "cube.manifest.txt")
    assert main(["--input", src, "--hfun", "0.35", "--seed", "1",
                 "--output", str(tmp_path / "cube.vtk"),
                 "--report", str(tmp_path / "cube.report.txt"),
                 "--manifest", man]) == 0
    # the termination-bound warnings go to the manifest, not to stderr
    assert "warning" not in capsys.readouterr().err
    entries = dict(line.split(" = ", 1)
                   for line in open(man).read().splitlines())
    for phase in ("load", "setup", "refine", "report", "audit", "write"):
        assert float(entries[f"time.{phase}_s"]) >= 0.0
    # the cascade stages run inside refine; each printed value is rounded
    # to 3 decimals, so the sum may exceed it by 6 half-units
    stages = [float(entries[f"stage.{name}_s"])
              for name in ("edges", "disk1", "tris", "disk2", "tets")]
    assert min(stages) >= 0.0 and sum(stages) > 0.0
    assert sum(stages) <= float(entries["time.refine_s"]) + 6 * 0.0005
    stats = {k[len("stats."):]: int(v) for k, v in entries.items()
             if k.startswith("stats.")}
    assert set(stats) == {"inserted", "duplicates", "rejected_protected",
                          "rollback_gamma", "rollback_sigma",
                          "encroach_edge", "encroach_tri", "disk1", "disk2",
                          "type1", "type2", "blocked", "dual_certified",
                          "volume_inherited", "survivors_skipped",
                          "walks_reused"}
    assert stats["inserted"] > 0
    assert stats["dual_certified"] > 0 and stats["volume_inherited"] > 0
    assert stats["survivors_skipped"] > 0
    audit = {k[len("audit."):]: v for k, v in entries.items()
             if k.startswith("audit.")}
    assert set(audit) == {"rho_surf_ok", "rho_vol_ok", "eps_ok", "size_ok",
                          "vlen_ok", "disks_ok", "protected_ok", "converged"}
    assert set(audit.values()) == {"1"}
    assert "guaranteed-termination bound 6.828" in entries["warning.0"]
    assert "guaranteed-termination bound 27.314" in entries["warning.1"]


GRID = "dims 2 2 2\norigin 0 0 0\nspacing 1 1 1\nvalues " + "0.2 " * 8 + "\n"


@pytest.mark.parametrize("grid, lineno, why", [
    (GRID.replace("dims 2 2 2", "dims 2 2 2 9"), 1,
     "dims needs 3 values, not 4"),
    (GRID.replace("origin 0 0 0", "origin 0 0"), 2,
     "origin needs 3 values, not 2"),
    (GRID.replace("spacing 1 1 1", "spacing 1 1 1 1"), 3,
     "spacing needs 3 values, not 4"),
    ("origin 0 0 0\n" + GRID, 3, "a second origin line"),
    (GRID + "dims 2 2 2\n", 5, "a second dims line"),
], ids=["dims-4", "origin-2", "spacing-4", "origin-twice",
        "dims-after-values"])
def test_grid_header_lines_carry_three_values_once(grid, lineno, why,
                                                   tmp_path):
    # a header line with a value too many, or a second one that would
    # replace the first, is an error naming its line
    path = tmp_path / "size.grid"
    path.write_text(grid)
    with pytest.raises(ValidationError) as exc:
        load_sizing(f"grid:{path}", cube())
    assert str(exc.value) == f"sizing grid {str(path)!r} line {lineno}: {why}"


@pytest.mark.parametrize("hfun, want", [("0.3", "0.3"), ("grid", "gridded")])
def test_manifest_names_the_sizing(hfun, want, tmp_path):
    src = write_cube(tmp_path)
    if hfun == "grid":
        path = tmp_path / "size.grid"
        path.write_text(GRID)
        hfun = f"grid:{path}"
    man = tmp_path / "m.txt"
    main(["--input", src, "--hfun", hfun, "--max-points", "20",
          "--output", str(tmp_path / "m.vtk"),
          "--report", str(tmp_path / "r.txt"), "--manifest", str(man)])
    entries = dict(line.split(" = ", 1) for line in
                   man.read_text().splitlines())
    assert entries["cfg.hfun"] == want


@pytest.mark.parametrize("flags, grid", [
    (["--hfun", "nan"], None),
    (["--hfun", "inf"], None),
    (["--alpha", "nan"], None),
    (["--rho-surf", "nan"], None),
    (["--rho-vol", "nan"], None),
    (["--collar-beta", "nan"], None),
    (["--eps-rel", "0"], None),
    (["--eps-rel", "-1"], None),
    ([], GRID.replace("spacing 1 1 1", "spacing 1 0 1")),
    ([], GRID.replace("origin 0 0 0", "origin 0 zero 0")),
    ([], GRID.replace("dims 2 2 2", "dims 2 2")),
    ([], GRID.replace("values 0.2", "values inf")),
], ids=["hfun-nan", "hfun-inf", "alpha-nan", "rho-surf-nan", "rho-vol-nan",
        "collar-beta-nan", "eps-rel-0", "eps-rel-negative", "grid-spacing-0",
        "grid-not-a-number", "grid-short-dims", "grid-inf-value"])
def test_non_finite_or_out_of_range_input_exits_1(flags, grid, tmp_path,
                                                  capsys):
    src = write_cube(tmp_path)
    if grid is not None:
        path = tmp_path / "size.grid"
        path.write_text(grid)
        flags = ["--hfun", f"grid:{path}"]
    # the point budget ends a run that slips past validation
    assert main(["--input", src, "--max-points", "50",
                 "--output", str(tmp_path / "m.vtk"),
                 "--report", str(tmp_path / "r.txt"),
                 "--manifest", str(tmp_path / "m.txt")] + flags) == 1
    assert capsys.readouterr().err.startswith("error: ")
