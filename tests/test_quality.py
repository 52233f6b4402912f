import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pscmesh.config import GridSizing, RefineConfig, SizingField
from pscmesh.models import icosphere, wedge
from pscmesh.quality import (area_length, build_report, dihedral_angles,
                             relative_edge_length, triangle_angles,
                             volume_length, write_report)
from pscmesh.delaunay import circumsphere_tet
from pscmesh.refine import refine
from pscmesh.restricted import Restricted, _radius_edge

from oracles import random_rotation, report_reference

EQUILATERAL = [(0, 0, 0), (1, 0, 0), (0.5, math.sqrt(3) / 2, 0)]
REGULAR = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
CORNER = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_area_length_anchors():
    assert abs(area_length(*EQUILATERAL) - 1.0) < 1e-12
    assert area_length((0, 0, 0), (1, 0, 0), (2, 0, 0)) == 0.0
    assert abs(area_length((0, 0, 0), (1, 0, 0), (0, 1, 0))
               - math.sqrt(3) / 2) < 1e-12


def test_volume_length_anchors():
    assert abs(volume_length(*REGULAR) - 1.0) < 1e-12
    assert volume_length((0, 0, 0), (1, 0, 0), (0, 1, 0), (0.4, 0.4, 0)) == 0.0
    # rms(e)^3 underflows to 0 below edges of about 1e-108: such a tet
    # measures 0, flat or not
    for tiny in ((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 1.03e-149)), \
            ((0, 0, 0), (1e-120, 0, 0), (0, 1e-120, 0), (0, 0, 1e-120)):
        assert volume_length(*tiny) == 0.0
    # right-corner tet: V = 1/6, mean squared edge 3/2
    want = 6 * math.sqrt(2) * (1 / 6.0) / (1.5 ** 1.5)
    assert abs(volume_length(*CORNER) - want) < 1e-12
    assert abs(want - 0.7698003589195010) < 1e-12


def test_angles():
    assert np.allclose(triangle_angles(*EQUILATERAL), [60, 60, 60], atol=1e-12)
    regs = dihedral_angles(*REGULAR)
    assert np.allclose(regs, [math.degrees(math.acos(1 / 3.0))] * 6, atol=1e-9)
    assert abs(regs[0] - 70.53) < 0.01
    # right-corner tet: three right dihedrals along the legs, and
    # arccos(1/sqrt(3)) along the hypotenuse-face edges
    corner = sorted(dihedral_angles(*CORNER))
    want = sorted([90.0] * 3 + [math.degrees(math.acos(1 / math.sqrt(3)))] * 3)
    assert np.allclose(corner, want, atol=1e-9)


def test_dihedral_matches_face_normal_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        pts = rng.uniform(-1, 1, (4, 3))
        if abs(np.linalg.det(pts[1:] - pts[0])) < 1e-3:
            continue
        angles = dihedral_angles(*(tuple(p) for p in pts))
        pairs = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)),
                 ((1, 2), (0, 3)), ((1, 3), (0, 2)), ((2, 3), (0, 1))]
        for ang, ((i, j), (k, l)) in zip(angles, pairs):
            # oracle: angle between outward face normals is pi - dihedral
            n1 = np.cross(pts[j] - pts[i], pts[k] - pts[i])
            n2 = np.cross(pts[l] - pts[i], pts[j] - pts[i])
            cosv = n1 @ n2 / (np.linalg.norm(n1) * np.linalg.norm(n2))
            want = 180.0 - math.degrees(math.acos(max(-1.0, min(1.0, cosv))))
            assert abs(ang - want) < 1e-6


def test_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(200):
        tri = rng.uniform(-1, 1, (3, 3))
        tet = rng.uniform(-1, 1, (4, 3))
        s = 10.0 ** rng.uniform(-6, 6)
        a0 = area_length(*(tuple(p) for p in tri))
        a1 = area_length(*(tuple(p * s) for p in tri))
        v0 = volume_length(*(tuple(p) for p in tet))
        v1 = volume_length(*(tuple(p * s) for p in tet))
        assert abs(a0 - a1) <= 1e-12 * max(a0, 1e-30)
        assert abs(v0 - v1) <= 1e-12 * max(v0, 1e-30)


def test_permutation_and_rotation_invariance():
    rng = np.random.default_rng(6)
    for _ in range(100):
        tet = rng.uniform(-1, 1, (4, 3))
        v0 = volume_length(*(tuple(p) for p in tet))
        perm = rng.permutation(4)
        assert abs(volume_length(*(tuple(tet[i]) for i in perm)) - v0) < 1e-12
        R = random_rotation(rng)
        assert abs(volume_length(*(tuple(R @ p) for p in tet)) - v0) < 1e-9


def test_quality_bounded_by_one_with_regular_maximisers():
    rng = np.random.default_rng(7)
    for _ in range(500):
        tri = rng.uniform(-1, 1, (3, 3))
        tet = rng.uniform(-1, 1, (4, 3))
        assert area_length(*(tuple(p) for p in tri)) <= 1.0 + 1e-9
        assert volume_length(*(tuple(p) for p in tet)) <= 1.0 + 1e-9
    # local perturbations of the regular elements never beat 1
    for _ in range(200):
        tet = np.asarray(REGULAR, dtype=float) + rng.normal(0, 1e-3, (4, 3))
        assert volume_length(*(tuple(p) for p in tet)) <= 1.0 + 1e-9
        tri = np.asarray(EQUILATERAL, dtype=float) + rng.normal(0, 1e-3, (3, 3))
        assert area_length(*(tuple(p) for p in tri)) <= 1.0 + 1e-9


def test_relative_edge_length():
    s = SizingField(h0=0.2)
    assert abs(relative_edge_length((0, 0, 0), (0.2, 0, 0), s) - 1.0) < 1e-12
    assert abs(relative_edge_length((0, 0, 0), (0.3, 0, 0), s) - 1.5) < 1e-12


def test_relative_edge_length_gridded_matches_trilinear_oracle():
    rng = np.random.default_rng(8)
    dims = (4, 3, 5)
    vals = rng.uniform(0.1, 0.5, dims[0] * dims[1] * dims[2])
    s = GridSizing((0, 0, 0), (0.5, 0.5, 0.5), dims, vals)
    V = vals.reshape(dims[2], dims[1], dims[0])

    def oracle(p):
        fx = np.clip(p[0] / 0.5, 0, dims[0] - 1)
        fy = np.clip(p[1] / 0.5, 0, dims[1] - 1)
        fz = np.clip(p[2] / 0.5, 0, dims[2] - 1)
        i, j, k = (min(int(fx), dims[0] - 2), min(int(fy), dims[1] - 2),
                   min(int(fz), dims[2] - 2))
        tx, ty, tz = fx - i, fy - j, fz - k
        acc = 0.0
        for dz in (0, 1):
            for dy in (0, 1):
                for dx in (0, 1):
                    wgt = ((tx if dx else 1 - tx) * (ty if dy else 1 - ty)
                           * (tz if dz else 1 - tz))
                    acc += wgt * V[k + dz, j + dy, i + dx]
        return acc

    for _ in range(200):
        a = rng.uniform(-0.2, 2.2, 3)
        b = rng.uniform(-0.2, 2.2, 3)
        mid = tuple((a + b) / 2)
        want = math.dist(a, b) / oracle(mid)
        got = relative_edge_length(tuple(a), tuple(b), s)
        assert abs(got - want) < 1e-12 * max(1.0, want)


def test_report_single_regular_tet():
    from pscmesh.quality import build_report

    class _Mesh:
        points = {i: p for i, p in enumerate(REGULAR)}

    centre, r2 = circumsphere_tet(*REGULAR)
    tet = Restricted((0, 1, 2, 3), centre, math.sqrt(r2), 0.0, -1,
                     _radius_edge(r2, REGULAR), volume_length(*REGULAR), 0)

    class _RS:
        edges = {}
        tris = {}
        tets = {(0, 1, 2, 3): tet}

    rep = build_report(_Mesh, _RS, SizingField(h0=1.0))
    hist = rep.histograms["volume_length"]
    assert hist[-1] == 1 and hist[:-1].sum() == 0
    assert rep.counts["volume_tets"] == 1
    assert rep.counts["points"] == 4


def test_report_empty_surface():
    from pscmesh.quality import build_report

    class _Mesh:
        points = {}

    class _RS:
        edges = {}
        tris = {}
        tets = {}

    rep = build_report(_Mesh, _RS, SizingField(h0=1.0))
    assert rep.histograms["area_length"].sum() == 0
    assert rep.counts["surface_tris"] == 0


def test_vtk_and_report_carry_the_certified_record_values(tmp_path):
    # the writers read rho, the area-length and the volume-length from the
    # restricted records, so the files hold exactly the values
    # Refiner.audit checked
    from pscmesh.config import RefineConfig
    from pscmesh.models import cube
    from pscmesh.quality import write_report
    from pscmesh.refine import refine
    from pscmesh.vtk_io import read_vtk, write_vtk

    res = refine(cube(), RefineConfig(sizing=SizingField(h0=0.35), seed=0))
    rs = res.rs
    vtk = tmp_path / "m.vtk"
    rep = tmp_path / "m.report.txt"
    write_vtk(str(vtk), res.mesh, rs)
    write_report(res.report, str(rep))
    grid = read_vtk(str(vtk))

    def column(name, cell_type):
        return [x for x, t in zip(grid.cell_data[name], grid.cell_types)
                if t == cell_type]

    tris = [rs.tris[k] for k in sorted(rs.tris)]
    tets = [rs.tets[k] for k in sorted(rs.tets)]
    assert tris and tets
    assert column("radius_edge", 5) == [f.rho for f in tris]
    assert column("radius_edge", 10) == [t.rho for t in tets]
    assert column("quality", 10) == [t.quality for t in tets]
    assert column("quality", 5) == [f.quality for f in tris]
    assert [f.quality for f in tris] == [
        area_length(*(res.mesh.points[v] for v in f.key)) for f in tris]
    metric = dict(x.split(" = ") for x in rep.read_text().splitlines()
                  if x.startswith("metric."))
    assert float(metric["metric.volume_length.min"]) == min(
        t.quality for t in tets)
    # the report aggregates in table order
    alen = np.array([f.quality for f in rs.tris.values()])
    for stat, want in (("min", alen.min()), ("max", alen.max()),
                       ("mean", alen.mean()), ("median", np.median(alen))):
        assert float(metric[f"metric.area_length.{stat}"]) == want


def report_bytes(report):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.txt"
        write_report(report, str(path))
        return path.read_bytes()


def assert_report_matches_reference(mesh, rs, sizing):
    assert (report_bytes(build_report(mesh, rs, sizing))
            == report_bytes(report_reference(mesh, rs, sizing)))


@st.composite
def fake_meshes(draw):
    """(mesh, restricted sets, sizing) over a dict of points with sparse
    ids: random edges, triangles and tets (keys in random vertex order),
    and always a tet with a repeated vertex (a zero-length edge), a
    collinear triangle and a coplanar tet."""
    coord = st.floats(-4.0, 4.0, allow_nan=False)
    pts = draw(st.lists(st.tuples(coord, coord, coord), min_size=3,
                        max_size=9))
    p0, p1, p2 = (np.array(p) for p in pts[:3])
    s, t = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    pts += [pts[0], tuple(p0 + s * (p1 - p0)),
            tuple(p0 + s * (p1 - p0) + t * (p2 - p0))]
    ids = draw(st.lists(st.integers(0, 10 ** 6), min_size=len(pts),
                        max_size=len(pts), unique=True))
    points = dict(zip(ids, pts))
    rep, col, cop = ids[-3:]
    keys = {2: [], 3: [(ids[0], ids[1], col)],
            4: [(ids[0], rep, ids[1], ids[2]), (ids[0], ids[1], ids[2], cop)]}
    for width in (2, 3, 4):
        keys[width] += draw(st.lists(st.permutations(ids).map(
            lambda p, w=width: tuple(p[:w])), max_size=8))

    def table(width, measure):
        return {k: SimpleNamespace(quality=measure(*(points[v] for v in k)))
                for k in keys[width]}

    rs = SimpleNamespace(edges=table(2, lambda a, b: 0.0),
                         tris=table(3, area_length),
                         tets=table(4, volume_length))
    if draw(st.booleans()):
        sizing = SizingField(h0=draw(st.floats(0.05, 2.0)))
    else:
        dims = draw(st.tuples(*[st.integers(1, 4)] * 3))
        n = dims[0] * dims[1] * dims[2]
        sizing = GridSizing(draw(st.tuples(*[st.floats(-3.0, 0.0)] * 3)),
                            draw(st.tuples(*[st.floats(0.1, 2.0)] * 3)), dims,
                            draw(st.lists(st.floats(0.05, 2.0), min_size=n,
                                          max_size=n)))
    return SimpleNamespace(points=points), rs, sizing


@settings(max_examples=300, deadline=None)
@given(fake_meshes())
def test_report_equals_the_per_element_reference(case):
    # the numpy passes keep every float operation of the per-element loop
    # in its order, so the written reports agree to the byte
    assert_report_matches_reference(*case)


@pytest.mark.parametrize("model,h", [(wedge, 0.35),
                                     (lambda: icosphere(2), 0.4)],
                         ids=["wedge", "icosphere2"])
def test_report_of_a_refined_model_equals_the_reference(model, h):
    sizing = SizingField(h0=h)
    res = refine(model(), RefineConfig(sizing=sizing, seed=0))
    assert res.rs.tris and res.rs.tets
    assert_report_matches_reference(res.mesh, res.rs, sizing)
