import os

import pytest

from pscmesh.cli import build_parser, load_sizing, main, make_config
from pscmesh.errors import ValidationError
from pscmesh.geometry import load_complex, write_complex
from pscmesh.models import cube
from pscmesh.vtk_io import read_vtk


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
    from pscmesh.vtk_io import write_vtk

    class _Mesh:
        points = {i: p for i, p in enumerate(g1.points)}

    class _E:
        curve_id = 0

    class _T:
        patch_id = 0

    class _RS:
        edges = {c: _E for c in g1.line_cells}
        tris = {c: _T for c in g1.triangle_cells}
        tets = {c: None for c in g1.tet_cells}

    out2 = str(tmp_path / "m2.vtk")
    write_vtk(out2, _Mesh, _RS)
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
    assert sizing.mode == "gridded"
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
        for phase in ("load", "setup", "refine", "write"):
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
    for phase in ("load", "setup", "refine", "write"):
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
                          "volume_inherited", "axis_line_scans",
                          "nearest_walks"}
    assert stats["inserted"] > 0
    assert stats["dual_certified"] > 0 and stats["volume_inherited"] > 0
    audit = {k[len("audit."):]: v for k, v in entries.items()
             if k.startswith("audit.")}
    assert set(audit) == {"rho_surf_ok", "rho_vol_ok", "eps_ok", "size_ok",
                          "vlen_ok", "disks_ok", "protected_ok", "converged"}
    assert set(audit.values()) == {"1"}
    assert "guaranteed-termination bound 6.828" in entries["warning.0"]
    assert "guaranteed-termination bound 27.314" in entries["warning.1"]


GRID = "dims 2 2 2\norigin 0 0 0\nspacing 1 1 1\nvalues " + "0.2 " * 8 + "\n"


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
