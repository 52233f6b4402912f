import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from pscmesh.aabb import AABBTree
from pscmesh.config import (GridSizing, RefineConfig, SizingField,
                            check_termination_bounds)
from pscmesh.delaunay import SHELL, TetMesh
from pscmesh.errors import ValidationError
from pscmesh.geometry import PiecewiseComplex, load_complex
from pscmesh.models import cube, icosphere, wedge
from pscmesh.refine import (BallRegistry, Census, Refiner,
                            protect_sharp_angles, refine,
                            select_refinement_point, violations)
from pscmesh.restricted import Restricted

from oracles import (cavity_locks_ring_walk, containing_ball_scan,
                     distance_to_curves, distance_to_surface, holders,
                     random_rotation, tet_faces)
from snapshots import (assert_bounds_fresh, assert_restricted_fresh,
                       assert_undone, record_rollbacks)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def cfg_with(h0, **kw):
    return RefineConfig(sizing=SizingField(h0=h0), **kw)


# ----------------------------------------------------------------------
# violation predicates


def edge_rec(key, centre, radius, err=0.0, curve=0):
    return Restricted(key, centre, radius, err, curve, 0.5, 0.0)


def tri_rec(key, centre, radius, rho, err=0.0, patch=0):
    return Restricted(key, centre, radius, err, patch, rho, 1.0)


def tet_rec(key, centre, radius, rho, vlen, tet_id=0):
    return Restricted(key, centre, radius, 0.0, -1, rho, vlen, tet_id)


def test_bad_edge_by_size():
    cfg = cfg_with(1.0)
    e = edge_rec((0, 1), (0, 0, 0), 0.75)   # h(e) = 1.5 > 4/3
    assert violations(1, e, cfg)
    e2 = edge_rec((0, 1), (0, 0, 0), 0.5)   # h(e) = 1.0, eps 0
    assert not violations(1, e2, cfg)


def test_bad_edge_by_surface_error_sagitta():
    # chord spanning 120 degrees of the unit circle: sagitta 0.5, ball
    # radius 1; size passes at h = 1.55 while the error bound 0.3875 fails
    cfg = cfg_with(1.55)
    sagitta = 1.0 - math.cos(math.radians(60))
    e = edge_rec((0, 1), (1, 0, 0), 1.0, err=sagitta)
    assert 2 * e.radius <= cfg.alpha * 1.55
    assert violations(1, e, cfg)


def test_bad_triangle_rules():
    cfg = cfg_with(10.0)
    f = tri_rec((0, 1, 2), (0, 0, 0), 1.0, 1.5)
    assert violations(2, f, cfg)     # rho 1.5 > 1.25
    ok = tri_rec((0, 1, 2), (0, 0, 0), 1.0, 0.577)
    assert not violations(2, ok, cfg)
    cfg2 = cfg_with(1.0)
    big = tri_rec((0, 1, 2), (0, 0, 0), 2.0 * cfg2.alpha / math.sqrt(3),
                  0.577)
    assert violations(2, big, cfg2)  # h(f) twice the allowance


def test_bad_tet_rules():
    cfg = cfg_with(10.0)
    t = tet_rec((0, 1, 2, 3), (0, 0, 0), 1.0, 2.5, 0.8)
    assert violations(3, t, cfg)     # rho 2.5 > 2
    good = tet_rec((0, 1, 2, 3), (0, 0, 0), 1.0, 0.62, 1.0)
    assert not violations(3, good, cfg)
    sliver = tet_rec((0, 1, 2, 3), (0, 0, 0), 1.0, 0.9, 0.05)
    assert violations(3, sliver, cfg)  # volume-length floor


def _at_bound(cert, value):
    """(d, record) with ``value`` in the field that ``cert`` checks; every
    other field passes at h = 1."""
    if cert == "eps_ok":
        return 1, edge_rec((0, 1), (0, 0, 0), 0.1, err=value)
    if cert == "size_ok":
        return 1, edge_rec((0, 1), (0, 0, 0), value / 2.0)  # size = 2 r
    if cert == "rho_surf_ok":
        return 2, tri_rec((0, 1, 2), (0, 0, 0), 0.1, value)
    if cert == "rho_vol_ok":
        return 3, tet_rec((0, 1, 2, 3), (0, 0, 0), 0.1, value, 1.0)
    return 3, tet_rec((0, 1, 2, 3), (0, 0, 0), 0.1, 1.0, value)


@pytest.mark.parametrize("cert", ["eps_ok", "size_ok", "rho_surf_ok",
                                  "rho_vol_ok", "vlen_ok"])
def test_queue_and_audit_share_each_bound(cert):
    # at its bound scaled by 1 + 1e-9 (the floor by 1 - 1e-9, which fails
    # itself, so one step inside it) a simplex is queued for refinement but
    # passes the audit; one step beyond, it fails both
    cfg = cfg_with(1.0)
    up = 1.0 + 1e-9
    edge = {"eps_ok": cfg.eps_rel * 1.0 * up, "size_ok": cfg.alpha * 1.0 * up,
            "rho_surf_ok": cfg.rho_surf * up, "rho_vol_ok": cfg.rho_vol * up,
            "vlen_ok": math.nextafter(cfg.vlen_min * (1.0 - 1e-9), math.inf)}
    lower = cert == "vlen_ok"
    beyond = math.nextafter(edge[cert], -math.inf if lower else math.inf)
    for value, passes in ((edge[cert], True), (beyond, False)):
        d, s = _at_bound(cert, value)
        assert violations(d, s, cfg) == [cert]
        assert violations(d, s, cfg, 1e-9) == ([] if passes else [cert])
        r = Refiner(cube(), cfg)
        r.rs.set(d, s.key, s)
        audit = r.audit()
        assert audit[cert] is passes
        assert all(audit[name] for name in edge if name != cert)


# ----------------------------------------------------------------------
# off-centre selection rule


def test_select_tet_rule():
    c0 = (0, 0, 0)
    c1 = (1.0, 0, 0)
    c2 = (0.8, 0, 0)
    assert select_refinement_point(c1, c2, c0, 0.5)[0] == c2
    assert select_refinement_point(c1, (0.4, 0, 0), c0, 0.5)[0] == c1
    assert select_refinement_point(c1, None, c0, 0.5) == (c1, "I")


def test_select_edge_rule_and_degeneration():
    c0 = (0, 0, 0)
    c1 = (0.5, 0, 0)   # ball radius r = 0.5 from the frontal vertex
    assert select_refinement_point(c1, (0.4, 0, 0), c0, 0.0)[1] == "II"
    # local target length exceeding the ball radius declines the off-centre
    assert select_refinement_point(c1, (0.7, 0, 0), c0, 0.0)[1] == "I"


# ----------------------------------------------------------------------
# off-centre constructions


def edge_refiner(sizing, lo=(-1.0, 0.0, 0.0), hi=(1.0, 0.0, 0.0)):
    geom = PiecewiseComplex([lo, hi], [(0, 1, 0)], [])
    cfg = RefineConfig(sizing=sizing)
    r = Refiner(geom, cfg)
    return r, geom


def test_edge_offcentre_uniform(monkeypatch):
    r, g = edge_refiner(SizingField(h0=0.2))
    x1 = r.mesh.insert_point((0, 0, 0), "curve", 0).vid
    e = edge_rec((0, 0), (0.35, 0, 0), 0.35)
    radii = []
    query = g.intersect_sphere_curve
    monkeypatch.setattr(g, "intersect_sphere_curve",
                        lambda c, s: radii.append(s) or query(c, s))
    c2, c0, r0 = r._offcentre(1, e, (x1,))
    # the half-sum step returns h itself: the candidate at h is the answer
    assert radii == [0.2]
    assert c2 is not None
    assert c0 == r.mesh.points[x1] and r0 == 0.0
    assert np.allclose(c2, (0.2, 0, 0), atol=1e-9)


def test_edge_offcentre_minimises_angle_to_frontal_vector():
    r, _g = edge_refiner(SizingField(h0=0.2))
    x1 = r.mesh.insert_point((0, 0, 0), "curve", 0).vid
    back = edge_rec((0, 0), (-0.3, 0, 0), 0.3)
    c2, _c0, _r0 = r._offcentre(1, back, (x1,))
    assert c2[0] < 0  # frontal vector points toward -x, so does the pick


def test_edge_offcentre_linear_sizing_fixed_point():
    grid = GridSizing((0, -0.5, -0.5), (1.0, 1.0, 1.0), (2, 2, 2),
                      [0.1, 0.2] * 4)
    r, _g = edge_refiner(grid, lo=(0, 0, 0), hi=(1, 0, 0))
    x1 = r.mesh.insert_point((0, 0, 0), "curve", 0).vid
    e = edge_rec((0, 0), (0.4, 0, 0), 0.4)
    c2, _c0, _r0 = r._offcentre(1, e, (x1,))
    # solves h = (0.1 + 0.1 + 0.1 h) / 2 -> 0.1 / 0.95
    assert abs(c2[0] - 0.1 / 0.95) <= 2e-4


def flat_patch(half=2.0):
    verts = [(-half, -half, 0), (half, -half, 0), (half, half, 0),
             (-half, half, 0)]
    return PiecewiseComplex(verts, [], [(0, 1, 2, 0), (0, 2, 3, 0)])


def test_tri_offcentre_equilateral_on_plane():
    geom = flat_patch()
    cfg = cfg_with(0.2)
    r = Refiner(geom, cfg)
    a = r.mesh.insert_point((0, 0, 0), "surface", 0).vid
    b = r.mesh.insert_point((0.2, 0, 0), "surface", 0).vid
    f = tri_rec(tuple(sorted((a, b, b))), (0.1, 0.05, 0), 0.12, 1.0)
    c2, c0, r0 = r._offcentre(2, f, (a, b))
    assert c2 is not None
    assert np.allclose(c0, (0.1, 0, 0), atol=1e-9)
    assert abs(r0 - 0.1) < 1e-9
    assert np.allclose(c2, (0.1, math.sqrt(3) / 2 * 0.2, 0.0), atol=1e-6)
    # the generated triangle is equilateral within 1e-6
    for p in ((0, 0, 0), (0.2, 0, 0)):
        assert abs(math.dist(c2, p) - 0.2) < 1e-6
    # placement stays in the frontal edge's bisector plane
    assert abs(c2[0] - 0.1) < 1e-9


def test_tri_offcentre_point_lands_on_curved_surface():
    geom = icosphere(2)
    cfg = cfg_with(0.3)
    r = Refiner(geom, cfg)
    p1 = geom.pts[0]
    p2 = geom.pts[geom.triangles[0][1]]
    a = r.mesh.insert_point(p1, "surface", 0).vid
    b = r.mesh.insert_point(p2, "surface", 0).vid
    mid = tuple((np.asarray(p1) + p2) / 2)
    outward = tuple(np.asarray(mid) * 2)
    f = tri_rec(tuple(sorted((a, b, b))), outward, 0.3, 1.0)
    c2, _c0, _r0 = r._offcentre(2, f, (a, b))
    assert c2 is not None
    assert distance_to_surface(geom, [c2])[0] <= 1e-9 * geom.diag


def test_tet_offcentre_regular_apex_and_clamp():
    geom = cube()
    cfg = cfg_with(0.2)
    r = Refiner(geom, cfg)
    ell = 0.2
    pts = [(0.4, 0.4, 0.4), (0.4 + ell, 0.4, 0.4),
           (0.4 + ell / 2, 0.4 + ell * math.sqrt(3) / 2, 0.4)]
    vids = [r.mesh.insert_point(p, "surface", 0).vid for p in pts]
    c0 = tuple(np.mean(pts, axis=0))
    token = tet_rec(tuple(sorted(vids + [0])), (c0[0], c0[1], c0[2] + 5.0),
                    1.0, 3.0, 0.5)
    c2, got_c0, got_r0 = r._offcentre(3, token, tuple(sorted(vids)))
    assert np.allclose(got_c0, c0, atol=1e-9)
    assert abs(got_r0 - ell / math.sqrt(3)) < 1e-9
    apex_height = ell * math.sqrt(2.0 / 3.0)
    assert np.allclose(c2, (c0[0], c0[1], c0[2] + apex_height), atol=1e-4)
    # on the dual segment toward the circumcentre
    assert abs(c2[0] - c0[0]) < 1e-9 and abs(c2[1] - c0[1]) < 1e-9
    # enormous sizing clamps the candidate onto the circumcentre itself
    r.cfg = RefineConfig(sizing=SizingField(h0=100.0))
    c2b, _c, _r = r._offcentre(3, token, tuple(sorted(vids)))
    assert np.allclose(c2b, token.centre, atol=1e-9)


# ----------------------------------------------------------------------
# encroachment and collar locks, answered from the cavity


def test_ball_lookup_strict_containment_and_ties():
    edges = {k: edge_rec(k, c, r) for k, c, r in (
        ((0, 1), (0.0, 0.0, 0.0), 1.0),
        ((2, 3), (3.0, 0.0, 0.0), 1.0),
        ((0, 9), (0.4, 0.0, 0.0), 1.0),
        # contains every query point, but is an edge of no cavity tet
        ((5, 7), (0.0, 0.0, 0.0), 9.0))}
    edges[(0, 1)].blocked = True     # blocked simplexes still count
    reg = BallRegistry(edges)
    cavity = [(3, 1, 0, 2)]
    keys = tet_faces(cavity, 2)
    assert reg.find_containing((0.5, 0, 0), keys) == (0, 1)
    assert reg.find_containing((1.0, 0, 0), keys) is None  # boundary is out
    assert reg.find_containing((2.0, 0, 0), keys) is None
    assert reg.find_containing((2.5, 0, 0), keys) == (2, 3)
    assert reg.find_containing((0.5, 0, 0), set()) is None
    # overlapping equal-radius balls tie-break on the smaller key
    cavity.append((9, 0, 4, 6))
    keys = tet_faces(cavity, 2)
    assert reg.find_containing((0.3, 0, 0), keys) == (0, 1)
    assert reg.find_containing((1.2, 0, 0), keys) == (0, 9)
    # the larger ball wins over the smaller key
    edges[(1, 2)] = edge_rec((1, 2), (1.2, 0.0, 0.0), 1.25)
    assert reg.find_containing((0.3, 0, 0), keys) == (1, 2)
    # triangles are the 3-vertex faces of the same tets
    tris = {(0, 1, 3): tri_rec((0, 1, 3), (0.0, 0.0, 0.0), 1.0, 1.0)}
    reg2 = BallRegistry(tris)
    assert reg2.find_containing((0.5, 0, 0), tet_faces(cavity, 3)) == (0, 1, 3)
    assert reg2.find_containing((0.5, 0, 0),
                                tet_faces([(0, 1, 2, 4)], 3)) is None


@pytest.mark.parametrize("geom, h, mode, seed", [
    (lambda: icosphere(2), 0.4, "frontal", 0),
    (wedge, 0.35, "frontal", 0),
    (lambda: icosphere(4), 0.7, "frontal", 0),
    # the classical wedge run rolls back insertions that change the curves
    (lambda: load_complex(str(BENCHMARKS / "wedge.psc")), 0.4, "classical",
     42),
], ids=["sphere", "crease", "dense_surface", "wedge.psc-classical"])
def test_cavity_ball_lookup_equals_a_scan_over_every_ball(geom, h, mode, seed,
                                                          monkeypatch):
    lookup = BallRegistry.find_containing
    found = []

    def checked(self, p, quads):
        got = lookup(self, p, quads)
        assert got == containing_ball_scan(self.table, p)
        found.append(got)
        return got

    monkeypatch.setattr(BallRegistry, "find_containing", checked)
    res = refine(geom(), cfg_with(h, mode=mode, seed=seed))
    assert res.status == "converged"
    hits = sum(k is not None for k in found)
    assert hits > 0 and hits < len(found)
    assert hits == res.stats["encroach_edge"] + res.stats["encroach_tri"]
    if mode == "classical":
        assert res.stats["rollback_gamma"] > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cavity_locks_match_the_ring_walk(seed):
    r = Refiner(wedge(), cfg_with(0.35, seed=seed))
    probe_insert = r.mesh.probe_insert
    locks = []

    def checked(p):
        probe = probe_insert(p)
        want = cavity_locks_ring_walk(r.mesh, r.protected_edges, probe)
        assert r._cavity_locks(Census(r.mesh, probe)) == want
        locks.append(want)
        return probe

    r.mesh.probe_insert = checked
    assert r.run() == "converged"
    assert r.protected_edges and len(locks) > r.stats["inserted"]
    assert sum(locks) >= r.stats["rejected_protected"]


# ----------------------------------------------------------------------
# collar protection


def v_curve(angle_deg, wing=2.0, apex=(0.0, 0.0, 0.0), flip=False):
    a = math.radians(angle_deg)
    sgn = -1.0 if flip else 1.0
    w1 = (apex[0] + wing, apex[1], apex[2])
    w2 = (apex[0] + wing * math.cos(a), apex[1] + sgn * wing * math.sin(a),
          apex[2])
    return [w1, apex, w2]


def test_protection_single_30_degree_apex():
    verts = v_curve(30.0)
    geom = PiecewiseComplex(verts, [(0, 1, 0), (1, 2, 0)], [])
    apexes = geom.detect_sharp_features()
    cols = protect_sharp_angles(geom, apexes, SizingField(h0=0.5), 1.5)
    assert len(cols) == 1
    col = cols[0]
    assert col.apex_gvid == 1
    assert abs(col.radius - 0.5) < 1e-12
    for wp in col.wing_points:
        assert abs(math.dist(wp, verts[1]) - 0.5) <= 1e-9


def test_protection_right_angle_not_protected():
    verts = v_curve(90.0)
    geom = PiecewiseComplex(verts, [(0, 1, 0), (1, 2, 0)], [])
    apexes = geom.detect_sharp_features()
    assert apexes == []
    assert protect_sharp_angles(geom, apexes, SizingField(h0=0.5), 1.5) == []


def test_protection_halving_until_disjoint():
    # two apexes 0.4 apart with h = 0.5 and spacing factor 3/2: the radii
    # halve down to 0.125 before the scaled balls separate; the wings of
    # each V point away from the other apex
    def wings(apex, base_deg, spread_deg, wing=1.0):
        out = [apex]
        for d in (base_deg, base_deg + spread_deg):
            a = math.radians(d)
            out.append((apex[0] + wing * math.cos(a),
                        apex[1] + wing * math.sin(a), apex[2]))
        return out

    va = wings((0.0, 0.0, 0.0), 90.0, 30.0)
    vb = wings((0.4, 0.0, 0.0), -90.0, -30.0)
    verts = va + vb
    segs = [(0, 1, 0), (0, 2, 0), (3, 4, 1), (3, 5, 1)]
    geom = PiecewiseComplex(verts, segs, [])
    apexes = geom.detect_sharp_features()
    assert {v for v, _p, _a in apexes} == {0, 3}
    cols = protect_sharp_angles(geom, apexes, SizingField(h0=0.5), 1.5)
    assert len(cols) == 2
    assert abs(cols[0].radius - 0.125) < 1e-12
    assert abs(cols[1].radius - 0.125) < 1e-12
    d = math.dist(geom.pts[cols[0].apex_gvid], geom.pts[cols[1].apex_gvid])
    assert d > 1.5 * (cols[0].radius + cols[1].radius)


# ----------------------------------------------------------------------
# termination sanity bounds


def test_termination_bounds_uniform():
    cfg = cfg_with(1.0)
    warns = check_termination_bounds(cfg)
    # nu0 = 2: surface bound (sqrt(2)+2)*2 = 6.83 -> default 1.25 warns
    assert len(warns) == 2
    assert "6.828" in warns[0]


def test_termination_bounds_quiet_when_loose():
    cfg = RefineConfig(rho_surf=7.0, rho_vol=28.0, sizing=SizingField(h0=1.0))
    warns = check_termination_bounds(cfg)
    assert warns == []


def test_termination_bounds_graded():
    # max h over the surface 1, min over the volume 0.5: nu0 = 4 and the
    # volume bound becomes (sqrt(2)+2) * 4 * 6 = 81.94
    grid = GridSizing((0, 0, 0), (1, 1, 1), (2, 2, 2),
                      [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5])
    cfg = RefineConfig(sizing=grid)
    warns = check_termination_bounds(cfg)
    assert any("81.9" in w for w in warns)


def test_termination_bounds_read_the_grid_maximum():
    # the grid peaks at 4 on x = 2, outside cube(), and dips to 0.5 at the
    # origin: nu0 = 16 and the surface bound is (sqrt(2)+2) * 16 = 54.63;
    # the sizing sampled over the cube's surface peaks at 1 (nu0 = 4)
    grid = GridSizing((0, 0, 0), (1, 1, 1), (3, 2, 2),
                      [0.5, 1.0, 4.0] + [1.0, 1.0, 4.0] * 3)
    cfg = RefineConfig(sizing=grid)
    warns = check_termination_bounds(cfg)
    assert len(warns) == 2
    assert "54.627" in warns[0] and "nu0=16" in warns[0]


def test_config_validation():
    with pytest.raises(ValidationError, match="sizing"):
        RefineConfig()
    with pytest.raises(ValidationError):
        RefineConfig(sizing=SizingField(h0=1.0), vlen_min=0.4)
    with pytest.raises(ValidationError):
        RefineConfig(sizing=SizingField(h0=1.0), rho_surf=0.3)
    with pytest.raises(ValidationError):
        RefineConfig(sizing=SizingField(h0=1.0), rho_vol=0.1)
    with pytest.raises(ValidationError):
        SizingField(h0=-1.0)
    with pytest.raises(ValidationError, match="max_points"):
        RefineConfig(sizing=SizingField(h0=1.0), max_points=-1)
    assert RefineConfig(sizing=SizingField(h0=1.0), max_points=0)
    # a nan budget would never trip, so the run would go on past it
    for budget in (2.5, float("nan")):
        with pytest.raises(ValidationError, match="max_points"):
            RefineConfig(sizing=SizingField(h0=1.0), max_points=budget)
    cfg = RefineConfig(sizing=SizingField(h0=1.0), max_points=np.int64(7),
                       seed=np.uint32(3))
    # a numpy seed would wrap in the jitter's 64-bit key
    assert (cfg.max_points, cfg.seed) == (7, 3)
    assert (type(cfg.max_points), type(cfg.seed)) == (int, int)
    for seed in (-1, 2 ** 32, 1.5):
        with pytest.raises(ValidationError, match="seed"):
            RefineConfig(sizing=SizingField(h0=1.0), seed=seed)
    assert RefineConfig(sizing=SizingField(h0=1.0), seed=2 ** 32 - 1)


# ----------------------------------------------------------------------
# frontal gating


def test_frontal_gating_initial_tets_fall_back():
    geom = icosphere(2)
    cfg = RefineConfig(sizing=SizingField(h0=0.3), mode="frontal")
    r = Refiner(geom, cfg)
    r.setup()
    # in the initial coarse state nothing is converged, so no tet and no
    # triangle can be frontal
    assert all(r._frontal(3, t) is None for t in r.rs.tets.values())
    status = r.run()
    assert status == "converged"
    assert r.stats["type1"] > 0       # the classical fall-back fired
    assert r.stats["type2"] > 0       # and the off-centres took over later


def test_frontal_triangle_next_to_converged_curve_edge():
    geom = cube()
    cfg = RefineConfig(sizing=SizingField(h0=0.25), mode="frontal")
    r = Refiner(geom, cfg)
    r.run()
    hits = 0
    for f in r.rs.tris.values():
        pair = r._frontal(2, f)
        if pair is not None and pair in r.rs.edges:
            hits += 1
    assert hits > 0


def test_frontal_edge_next_to_converged_edge():
    # a straight curve of two segments, classified by hand: an edge with a
    # converged neighbour is frontal at their shared vertex
    geom = PiecewiseComplex([(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                            [(0, 1, 0), (1, 2, 0)], [])
    r = Refiner(geom, cfg_with(0.3))
    a, b, c = (r.mesh.insert_point(p, "input", i).vid
               for i, p in enumerate(geom.pts))
    left = edge_rec((a, b), (0.5, 0, 0), 0.5)
    right = edge_rec((b, c), (1.5, 0, 0), 0.5)
    good = edge_rec((a, b), (0.1, 0, 0), 0.1)
    for s in (left, right, good):  # the verdict _reclassify stores
        s.bad = bool(violations(1, s, r.cfg))
    assert left.bad and right.bad and not good.bad
    r.rs.set(1, (a, b), left)
    r.rs.set(1, (b, c), right)
    assert r._frontal(1, right) is None
    r.rs.set(1, (a, b), good)
    assert r._frontal(1, right) == (b,)
    assert r._frontal(1, good) is None  # its only neighbour is bad


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("h", [0.2, 0.25])
def test_curve_offcentres_stay_on_their_curve(h, seed):
    # an edge's off-centre once met the whole curve network: next to the
    # V-curve's wing tips it landed on the V-curve under a cube crease's
    # curve id, and the mis-tagged vertex failed its 1-disk test for good
    # (thousands of duplicates at h 0.2, 8-13 per seed at h 0.25)
    geom = wedge()
    res = refine(geom, cfg_with(h, seed=seed))
    assert res.status == "converged"
    assert res.stats["duplicates"] == 0
    # the tets under the volume-length floor next to the apex stay blocked
    # by the collar lock
    assert all(ok for name, ok in res.audit.items() if name != "vlen_ok")
    mesh = res.mesh
    # a stored point is jittered by at most jitter_scale per axis
    tol = geom.eps + math.sqrt(3.0) * mesh.jitter_scale
    for v, meta in enumerate(mesh.meta):
        if meta.alive and meta.kind == "curve":
            assert distance_to_curves(geom, [mesh.points[v]],
                                      meta.ref)[0] <= tol, v


# a shift far from the origin, where the rotated wedge also failed
_WEDGE_SHIFT = (79.14935123348332, 45.44638089714084, 79.14935123348332)


@pytest.mark.parametrize("shift", [(0.0, 0.0, 0.0), _WEDGE_SHIFT],
                         ids=["rotated", "rotated-shifted"])
def test_every_steiner_point_takes_the_lower_ball_redirect(shift):
    # a 2-disk repair once inserted a triangle's surface-ball centre that
    # lay on a crease, tagged surface; its 1-disk test could never pass and
    # the 1-disk repairs bisected toward it until the point budget
    base = wedge()
    rot = random_rotation(np.random.default_rng(34877))
    geom = PiecewiseComplex(base.vertices @ rot.T + np.asarray(shift),
                            base.segments, base.triangles)
    res = refine(geom, cfg_with(0.5, seed=0, max_points=1000))
    assert res.status == "converged"
    assert res.report.counts["points"] == 51
    assert all(res.audit.values()), res.audit
    mesh = res.mesh
    tol = geom.eps + math.sqrt(3.0) * mesh.jitter_scale
    off = [v for v, meta in enumerate(mesh.meta)
           if meta.alive and meta.kind in ("surface", "interior")]
    assert (distance_to_curves(geom, [mesh.points[v] for v in off])
            > tol).all()


@pytest.mark.parametrize("base, h, points",
                         [(wedge(), 0.35, 98), (icosphere(2), 0.4, 170)],
                         ids=["wedge", "icosphere2"])
def test_power_of_two_scales_mesh_alike_inside_the_extent_range(base, h,
                                                                points):
    # 2^k scales every float exactly, so 2^+-160 gives the unscaled mesh;
    # at 2^+-233 (a diagonal near 1e+-70) the float kernels degrade
    def scaled(k):
        return PiecewiseComplex(base.vertices * 2.0 ** k, base.segments,
                                base.triangles)

    for k in (233, -233):
        with pytest.raises(ValidationError, match="bounding box diagonal"):
            scaled(k)
    outcomes = [(res.status, res.report.counts["points"],
                 sum(res.audit.values()),
                 res.report.summary["volume_length"]["min"])
                for res in (refine(scaled(k), cfg_with(h * 2.0 ** k))
                            for k in (0, 160, -160))]
    assert outcomes == [("converged", points, 8, outcomes[0][3])] * 3


def test_vertices_the_mesh_would_merge_are_rejected():
    # vertices 1 and 2 end two curves: equal or 1e-13 apart, their seeds
    # snap to one mesh vertex, which keeps the curve incidence of only one
    # of them; 1e-9 apart, both keep their own
    def two_curves(gap):
        return PiecewiseComplex([(0, 0, 0), (1, 0, 0), (1 + gap, 0, 0),
                                 (1, 1, 0)], [(0, 1, 0), (2, 3, 1)], [])

    for gap in (0.0, 1e-13):
        with pytest.raises(ValidationError,
                           match="vertex 2 lies within 1.7e-11 of vertex 1"):
            two_curves(gap)
    res = refine(two_curves(1e-9), cfg_with(0.3))
    assert res.status == "converged"
    assert res.report.counts["points"] == 10
    assert all(res.audit.values()), res.audit


def test_no_inserted_point_lies_inside_a_lower_ball():
    # a redirect target is placed like any other Steiner point: the centre
    # of a triangle's surface ball that lies inside a restricted curve
    # edge's ball goes on to that edge's centre
    r = Refiner(wedge(), cfg_with(0.35, seed=1_000_000))
    insert = r._insert
    inside = []

    def checked(census, d, ref):
        p = census.probe[0]
        inside.extend((d, low) for low in range(1, d)
                      if containing_ball_scan(r.rs.table[low], p) is not None)
        return insert(census, d, ref)

    r._insert = checked
    assert r.run() == "converged"
    assert r.stats["encroach_tri"] > 0
    assert not inside


def test_every_committed_insertion_keeps_the_lower_complexes():
    # the guard holds for every point of a d-simplex, not only a queue
    # pop's: on this input a redirected, deferred or disk-repair point
    # once changed the restricted curves and stayed.  Each insertion
    # snapshots the restricted key sets below its d (from the point's
    # kind); a removal is a rollback, and the next insertion or the end
    # of the run sees each committed one
    base = wedge()
    rot = random_rotation(np.random.default_rng(34877))
    geom = PiecewiseComplex(base.vertices @ rot.T, base.segments,
                            base.triangles)
    r = Refiner(geom, cfg_with(0.7, seed=1, mode="classical"))
    r.setup()
    insert, remove = r.mesh.insert_point, r.mesh.remove_point
    tables = r.rs.table
    dim = {"curve": 1, "surface": 2, "interior": 3}
    pending = []    # (d, the lower key sets) of the uncommitted insertion
    changed = []

    def lower_keys(d):
        return [set(tables[low]) for low in r.dims if low < d]

    def committed():
        if pending:
            d, before = pending.pop()
            if lower_keys(d) != before:
                changed.append(d)

    def inserting(p, kind, ref, probe=None):
        committed()
        pending.append((dim[kind], lower_keys(dim[kind])))
        return insert(p, kind, ref, probe=probe)

    def removing(rec):
        pending.clear()
        return remove(rec)

    r.mesh.insert_point, r.mesh.remove_point = inserting, removing
    assert r.run() == "converged"
    committed()
    assert not changed
    assert all(r.audit().values())
    assert r.stats["rollback_gamma"] > 0
    assert r.stats["disk1"] + r.stats["disk2"] > 0


def test_curve_only_and_open_inputs_converge():
    # without a closed surface there is no volume; the bent curve also
    # meets a second curve at a degree-2 junction (input vertex 1)
    bent = PiecewiseComplex([(0, 0, 0), (1, 0, 0), (1, 1, 0.3)],
                            [(0, 1, 0), (1, 2, 1)], [])
    square = PiecewiseComplex([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
                              [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)],
                              [(0, 1, 2, 0), (0, 2, 3, 0)])
    results = [refine(geom, cfg_with(0.3)) for geom in (bent, square)]
    for res in results:
        assert res.status == "converged"
        assert all(res.audit.values()), res.audit
        assert not res.rs.tets
    assert results[0].stats["disk1"] == 0


def test_open_surface_off_the_curves_is_rejected_at_setup():
    # the square's edge (0, 3) bounds one triangle and follows no segment,
    # so the 2-disk condition could never hold along it
    geom = PiecewiseComplex([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
                            [(0, 1, 0), (1, 2, 0), (2, 3, 0)],
                            [(0, 1, 2, 0), (0, 2, 3, 0)])
    assert geom.open_edge == (0, 3)
    assert flat_patch().open_edge == (0, 1)
    assert icosphere(1).open_edge is None
    r = Refiner(geom, cfg_with(0.3))
    with pytest.raises(ValidationError, match=r"surface edge \(0, 3\)"):
        r.setup()
    assert r.status == "new"


def test_refine_wrapper_returns_mesh_sets_report():
    geom = icosphere(1)
    res = refine(geom, cfg_with(0.5))
    assert res.status == "converged" and res.report.converged
    assert res.report.counts["surface_tris"] == len(res.rs.tris) > 0
    assert res.report.counts["volume_tets"] == len(res.rs.tets) > 0
    assert len(res.mesh.points) > 8
    assert res.stats["inserted"] > 0
    assert all(res.audit.values())
    assert len(res.warnings) == 2
    stages = {f"stage.{k}" for k in ("edges", "disk1", "tris", "disk2",
                                     "tets")}
    assert set(res.timings) == {"setup", "refine", "report", "audit"} | stages
    assert sum(res.timings[k] for k in stages) <= res.timings["refine"]


# ----------------------------------------------------------------------
# forced rollbacks (curve-topology guard)


def test_gamma_rollback_restores_restricted_sets():
    # a cube with a straight free interior curve; after convergence, drive
    # surface-style insertions right next to curve ball centres and verify
    # every rollback restores the mesh and the restricted sets exactly
    base = cube()
    verts = list(base.vertices) + [(0.2, 0.5, 0.5), (0.8, 0.5, 0.5)]
    segs = list(base.segments) + [(8, 9, 12)]
    geom = PiecewiseComplex(verts, segs, base.triangles)
    cfg = RefineConfig(sizing=SizingField(h0=0.25), mode="classical")
    r = Refiner(geom, cfg)
    assert r.run() == "converged"
    events = record_rollbacks(r)

    free_edges = [e for e in r.rs.edges.values() if e.ref == 12]
    for e in list(free_edges):
        cur = r.rs.edges.get(e.key)
        if cur is not e:
            continue  # invalidated by an earlier forced insertion
        c = np.asarray(e.centre)
        p = tuple(c + np.array([0.0, 0.05 * e.radius, 0.0]))
        r._insert(Census(r.mesh, r.mesh.probe_insert(p)), 2, -1)
    assert events, "no rollback was ever triggered"
    for before, after in events:
        assert_undone(before, after)
    assert_bounds_fresh(r)
    assert_restricted_fresh(r)
    assert r.stats["rollback_gamma"] >= 1


def test_sigma_rollback_restores_mesh_and_restricted_sets(monkeypatch):
    # interior points just inside the cube next to surface ball centres
    # change the restricted surface, so the surface guard takes them back
    # (one near a cube edge changes the curves first, and the curve guard
    # takes it back)
    geom = cube()
    cfg = RefineConfig(sizing=SizingField(h0=0.35), mode="classical", seed=0)
    r = Refiner(geom, cfg)
    assert r.run() == "converged"
    events = record_rollbacks(r)
    # each insertion bounds its created tets once, and an undo never does:
    # the restored tets keep their certificate entries under their old ids
    calls = {"bound": 0, "insert": 0}
    for name, owner, attr in (("bound", AABBTree, "lower_distances"),
                              ("insert", TetMesh, "insert_point")):
        def counted(*args, _fn=getattr(owner, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    mid = np.mean(geom.bounds, axis=0)
    for _key, f in sorted(r.rs.tris.items())[:10]:
        c = np.asarray(f.centre)
        inward = (mid - c) / np.linalg.norm(mid - c)
        p = tuple(c + 0.05 * f.radius * inward)
        r._insert(Census(r.mesh, r.mesh.probe_insert(p)), 3, -1)
    rollbacks = r.stats["rollback_gamma"] + r.stats["rollback_sigma"]
    assert r.stats["rollback_sigma"] >= 1
    assert len(events) == rollbacks
    assert calls["bound"] == calls["insert"] > rollbacks
    for before, after in events:
        assert_undone(before, after)
    assert_bounds_fresh(r)
    assert_restricted_fresh(r)


# ----------------------------------------------------------------------
# blocked simplexes


@pytest.mark.parametrize("geom, h, seed, vlen_ok", [
    (lambda: load_complex(str(BENCHMARKS / "icosphere.psc")), 0.5, 0, True),
    (lambda: load_complex(str(BENCHMARKS / "cube.psc")), 0.35, 0, True),
    (lambda: load_complex(str(BENCHMARKS / "wedge.psc")), 0.4, 0, True),
    (wedge, 0.35, 3, True),
    # this wedge run converges with vlen_ok false: the tets under the
    # volume-length floor are blocked because inserting their points
    # would delete a protected collar edge
    (lambda: load_complex(str(BENCHMARKS / "wedge.psc")), 0.4, 42, False),
], ids=["icosphere", "cube", "wedge.psc", "wedge-h0.35", "wedge.psc-seed42"])
def test_converged_run_leaves_only_blocked_violations(geom, h, seed, vlen_ok):
    cfg = cfg_with(h, seed=seed)
    res = refine(geom(), cfg)
    assert res.status == "converged"
    assert res.audit["vlen_ok"] == vlen_ok
    bad = [s for d in (1, 2, 3) for s in res.rs.table[d].values()
           if violations(d, s, cfg)]
    # every record carries the verdict it was queued by
    assert all(s.bad == (s in bad) for d in (1, 2, 3)
               for s in res.rs.table[d].values())
    assert all(s.blocked for s in bad)
    assert res.stats["blocked"] >= len(bad)
    if not vlen_ok:
        assert res.stats["rejected_protected"] > 0


def test_protected_ok_equals_one_edge_exists_scan_per_collar_edge(
        tmp_path, monkeypatch):
    # the golden wedge.psc --seed 42 run: audit's one scan of the live tets
    # answers protected_ok as one scan of the live tets per collar edge
    # (oracles.holders) does, also for a list with an edge the mesh lacks
    # and one it holds that is no restricted curve edge
    from pscmesh.cli import main
    runs = []
    audit = Refiner.audit

    def recording(self):
        runs.append(self)
        return audit(self)

    monkeypatch.setattr(Refiner, "audit", recording)
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    assert main(["--input", str(bench / "wedge.psc"), "--hfun", "0.4",
                 "--seed", "42", "--output", str(tmp_path / "w.vtk"),
                 "--report", str(tmp_path / "w.report.txt"),
                 "--manifest", str(tmp_path / "w.manifest.txt")]) == 0
    (r,) = runs
    collar = list(r.protected_edges)
    assert len(collar) == 2
    live = {e for q in r.mesh.tets if q is not None
            for e in combinations(sorted(q), 2)}
    u = collar[0][0]
    missing = next((u, v) for v in range(u + 1, len(r.mesh.points))
                   if (u, v) not in live)
    unrestricted = next(e for e in sorted(live)
                        if e[0] >= SHELL and e not in r.rs.edges)
    wants = []
    for edges in (collar, collar + [missing], [unrestricted] + collar):
        r.protected_edges = edges
        wants.append(all(holders(r.mesh, a, b) and (a, b) in r.rs.edges
                         for a, b in edges))
        assert audit(r)["protected_ok"] == wants[-1]
    assert wants == [True, False, False]
