import importlib
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pscmesh import delaunay, restricted
from pscmesh.config import RefineConfig, SizingField
from pscmesh.delaunay import (SHELL, TetMesh, _FACES, circumcentre_triangle,
                              circumsphere_tet)
from pscmesh.errors import PscError
from pscmesh.geometry import PiecewiseComplex
from pscmesh.models import cube, icosphere, wedge
from pscmesh.refine import Census, Refiner, refine
from pscmesh.restricted import (DistanceCertificate, Restricted, _tet_shape,
                                _triangle_shape, classify_edge,
                                classify_facet, classify_tet, element_size,
                                topo_disk_1, topo_disk_2)

from hard_corpus import box, rotated
from oracles import (area_length_reference, cavity_change_reference,
                     circumradius_triangle, distance_to_surface,
                     face_crossings_reference, holder, holders,
                     nearest_among_reference, radius_edge_reference,
                     random_rotation, umbrella_reference,
                     volume_length_reference, winding_numbers)
from snapshots import assert_restricted_fresh, fresh_answer


def mesh_with(points, bounds, seed=0):
    m = TetMesh(bounds, seed=seed)
    vids = [m.insert_point(tuple(p)).vid for p in points]
    return m, vids


# ----------------------------------------------------------------------
# element size and radius-edge


def test_element_size_coefficients():
    ell = 0.7
    assert abs(element_size(1, 0.5) - 1.0) < 1e-15
    assert abs(element_size(2, ell / math.sqrt(3)) - ell) < 1e-14
    assert abs(element_size(3, ell * math.sqrt(3.0 / 8.0)) - ell) < 1e-14


def radius_edge(*pts):
    """Circumradius over shortest edge of a triangle or tet, as the
    classifiers compute it."""
    if len(pts) == 3:
        return _triangle_shape(circumcentre_triangle(*pts)[1], *pts)[0]
    return _tet_shape(circumsphere_tet(*pts)[1], *pts)[0]


def test_radius_edge_equilateral_and_regular():
    tri = [(0, 0, 0), (1, 0, 0), (0.5, math.sqrt(3) / 2, 0)]
    assert abs(radius_edge(*tri) - 1 / math.sqrt(3)) < 1e-12
    reg = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    assert abs(radius_edge(*reg) - math.sqrt(3.0 / 8.0)) < 1e-12


def test_radius_edge_needle_matches_closed_form():
    tri = [(0, 0, 0), (1, 0, 0), (0.5, 1e-3, 0)]
    rho = radius_edge(*tri)
    shortest = min(math.dist(tri[0], tri[2]), math.dist(tri[1], tri[2]),
                   math.dist(tri[0], tri[1]))
    want = circumradius_triangle(*tri) / shortest
    assert rho > 100
    assert abs(rho - want) < 1e-6 * want


# a coordinate difference whose square differs in the last bit between
# ``x ** 2`` (glibc's pow) and ``x * x``
_X = 0.4127425118455319
_COORD = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)


def _bits(values):
    return [float.hex(v) for v in values]


def test_the_pinned_difference_squares_apart():
    assert _X ** 2 == 0.17035638108455903
    assert _X * _X == 0.17035638108455906


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=4, max_size=4))
@example([(0.0, 0.0, 0.0), (_X, 0.0, 0.0), (0.0, _X, 0.0), (0.0, 0.0, _X)])
# the anchor shapes of test_quality.py: a regular tet on an equilateral
# triangle, the right corner, a collinear triangle on a coplanar tet, and
# two tets whose rms(e)^3 underflows to 0
@example([(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0),
          (-1.0, -1.0, 1.0)])
@example([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
@example([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
          (0.4, 0.4, 0.0)])
@example([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
          (0.0, 0.0, 1.03e-149)])
@example([(0.0, 0.0, 0.0), (1e-120, 0.0, 0.0), (0.0, 1e-120, 0.0),
          (0.0, 0.0, 1e-120)])
def test_shape_kernels_equal_the_per_element_references_bit_for_bit(pts):
    # the triangle kernel against circumcentre_triangle's r2, the shortest
    # edge by x ** 2 and area_length_reference; the tet kernel against
    # circumsphere_tet's r2, the same shortest edge and
    # volume_length_reference
    tri = pts[:3]
    r2 = circumcentre_triangle(*tri)[1]
    assert _bits(_triangle_shape(r2, *tri)) == _bits(
        (radius_edge_reference(r2, tri), area_length_reference(*tri)))
    r2 = circumsphere_tet(*pts)[1]
    assert _bits(_tet_shape(r2, *pts)) == _bits(
        (radius_edge_reference(r2, pts), volume_length_reference(*pts)))


# ----------------------------------------------------------------------
# restricted curve edges


def x_axis_setup():
    geom = PiecewiseComplex([(-1, 0, 0), (1, 0, 0)], [(0, 1, 0)], [])
    samples = [(-1 + 2 * k / 7.0, 0.0, 0.0) for k in range(8)]
    m, vids = mesh_with(samples, geom.bounds, seed=3)
    return geom, m, vids


def test_classify_edge_consecutive_samples_on_segment():
    geom, m, vids = x_axis_setup()
    for a, b in zip(vids, vids[1:]):
        key = (min(a, b), max(a, b))
        e = classify_edge(m, geom, *key, holder(m, *key))
        assert e is not None
        lo = min(m.points[a][0], m.points[b][0])
        hi = max(m.points[a][0], m.points[b][0])
        assert lo - 1e-9 <= e.centre[0] <= hi + 1e-9
        assert abs(e.centre[1]) < 1e-9 and abs(e.centre[2]) < 1e-9
        # equidistance of the surface ball to both endpoints
        ra = math.dist(e.centre, m.points[a])
        rb = math.dist(e.centre, m.points[b])
        assert abs(ra - rb) <= 1e-9 * max(ra, rb)
        # straight geometry: the ball centre collapses onto the midpoint
        assert e.err <= 1e-9


def test_classify_edge_far_from_curve_is_none():
    geom = PiecewiseComplex([(-1, 0, 0), (1, 0, 0)], [(0, 1, 0)], [])
    samples = [(-1 + 2 * k / 7.0, 0.0, 0.0) for k in range(8)]
    off = (0.1, 0.8, 0.0)
    m, vids = mesh_with(samples + [off], geom.bounds, seed=3)
    # edges from the off-curve vertex: their dual faces reach the axis only
    # at points whose nearest sample is some other chain vertex
    p = vids[-1]
    hit_edges = 0
    for s in vids[:-1]:
        if holders(m, p, s):
            hit_edges += 1
            assert classify_edge(m, geom, min(p, s), max(p, s),
                                 holder(m, p, s)) is None
    assert hit_edges > 0


def test_classify_edge_two_crossings_selects_larger_ball():
    # a U-shaped curve pierces the dual face of the vertical pair twice
    verts = [(-0.3, 0, -2), (-0.3, 0, 0.5), (0.4, 0, 0.5), (0.4, 0, -2)]
    geom = PiecewiseComplex(verts, [(0, 1, 0), (1, 2, 0), (2, 3, 0)], [])
    m, vids = mesh_with([(0, 0, -1), (0, 0, 1)], geom.bounds, seed=5)
    u, w = sorted(vids)
    e = classify_edge(m, geom, u, w, holder(m, u, w))
    assert e is not None
    assert abs(e.centre[0] - 0.4) < 1e-6  # the farther crossing wins
    assert abs(e.radius - math.sqrt(0.16 + 1.0)) < 1e-6


def test_classify_edge_error_is_chord_sagitta():
    n = 720
    verts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n), 0.0)
             for k in range(n)]
    segs = [(k, (k + 1) % n, 0) for k in range(n)]
    geom = PiecewiseComplex(verts, segs, [])
    ang = math.radians(60)
    samples = [(math.cos(-ang), math.sin(-ang), 0), (math.cos(ang), math.sin(ang), 0),
               (-1.0, 0.0, 0.0)]
    m, vids = mesh_with(samples, geom.bounds, seed=7)
    key = (min(vids[0], vids[1]), max(vids[0], vids[1]))
    e = classify_edge(m, geom, *key, holder(m, *key))
    assert e is not None
    sagitta = 1.0 - math.cos(ang)
    assert abs(e.err - sagitta) < 1e-3
    assert abs(e.radius - 1.0) < 1e-3


def _d2(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2


def _record(obj):
    """The classification fields of a restricted edge or triangle, or None
    (not ``walk``, which caches how the query ran)."""
    if obj is None:
        return None
    return (obj.key, obj.centre, obj.radius, obj.err, obj.ref, obj.rho,
            obj.quality)


def record_exact_circumspheres(monkeypatch):
    """Wrap the exact branch of ``circumsphere_tet``, taken where its float
    solve is ill-conditioned.  Returns the list of the circumspheres it
    solves, kept alive so that ``exact_tets`` can match them by identity."""
    made = []
    exact = delaunay._circumsphere_exact

    def recording(*pts):
        made.append(exact(*pts))
        return made[-1]

    monkeypatch.setattr(delaunay, "_circumsphere_exact", recording)
    return made


def exact_tets(mesh, made):
    """The live tets whose stored circumsphere is one of ``made``."""
    ids = {id(c) for c in made}
    return {t for t in mesh.alive_tets() if id(mesh.circum[t]) in ids}


def _check_edges_against_reference(monkeypatch, mesh, geom, exact=()):
    """classify_edge on every mesh edge, against its result with the
    unfiltered reference face query, which confirms each candidate by a
    scan of every live vertex (ties going to the edge).  Returns the keys
    of the edges with a non-shell vertex (whose rings are closed), those
    among them whose ring holds one of the tets ``exact``, the reference
    hits tied exactly between u or w and a link vertex, and the edges
    whose two results differ."""
    edges = {}
    for t in mesh.alive_tets():
        for pair in combinations(sorted(mesh.tets[t]), 2):
            edges.setdefault(pair, t)
    edges = sorted(edges.items())
    got = [_record(classify_edge(mesh, geom, u, w, t)) for (u, w), t in edges]
    brute = nearest_among_reference(mesh)
    with monkeypatch.context() as m:
        m.setattr(restricted, "_face_crossings",
                  lambda mesh, geom, u, w, t0:
                  face_crossings_reference(mesh, geom, u, w, t0, brute))
        want = [_record(classify_edge(mesh, geom, u, w, t))
                for (u, w), t in edges]
    assert any(want)
    differ = [e for (e, _t), a, b in zip(edges, got, want) if a != b]
    closed, through_exact, ties = [], [], 0
    for (u, w), t0 in edges:
        if w < 8:
            continue  # every hull edge joins two shell corners
        ring = mesh.edge_ring(u, w, t0)
        closed.append((u, w))
        if any(t in exact for t in ring):
            through_exact.append((u, w))
        link = {x for t in ring for x in mesh.tets[t]} - {u, w}
        for y, _cid in face_crossings_reference(mesh, geom, u, w, t0, brute):
            dmin = min(_d2(y, mesh.points[u]), _d2(y, mesh.points[w]))
            ties += any(_d2(y, mesh.points[x]) == dmin for x in link)
    return closed, through_exact, ties, differ


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_classify_edge_matches_unfiltered_reference_on_wedge(monkeypatch,
                                                             seed):
    # every edge of a refined creased input: every point of the bisector
    # plane outside the closed dual face is strictly nearer some link
    # vertex, so the star test confirms exactly the hits of a scan of
    # every vertex
    geom = wedge()
    res = refine(geom, RefineConfig(sizing=SizingField(h0=0.35), seed=seed))
    closed, _exact, _ties, differ = (
        _check_edges_against_reference(monkeypatch, res.mesh, geom))
    assert len(closed) > 400 and differ == []


def lattice_case():
    """(curves, mesh bounds, points to insert without jitter).

    A 3x3x3 lattice of spacing 0.1, so the eight corners of a cell tie at
    its centre; the curve passes through the centre (0.05, 0.05, 0.05) of
    the first cell.  The last point, about 4e-9 from the corner (0.2, 0.2,
    0.2), gives the tets on that short edge circumradii above 1e6 times
    its length: ``circumsphere_tet`` solves their circumcentres exactly.
    """
    s = 0.1
    verts = [(-0.025, 0.025, 0.0), (0.125, 0.075, 0.1), (0.05, 0.15, 0.15),
             (0.225, 0.05, 0.1)]
    geom = PiecewiseComplex(verts, [(0, 1, 0), (1, 2, 1), (2, 3, 1)], [])
    points = [tuple(s * x for x in p) for p in product(range(3), repeat=3)]
    points.append((2 * s + 3e-9, 2 * s + 2e-9, 2 * s + 1e-9))
    return geom, ((-s,) * 3, (3 * s,) * 3), points


def test_classify_edge_matches_unfiltered_reference_on_lattice(monkeypatch):
    # the exact ties of the lattice lie on the closed dual faces, and the
    # star test counts them as hits as the scan of every vertex does.  The
    # two agree on every edge but two: the curve vertex (0.05, 0.15, 0.15)
    # on the dual faces of (22, 25) and (24, 25) ties vertices 12 and 21,
    # outside those stars, in exact arithmetic, and rounding puts them
    # about 2 ulps nearer (relative 4.6e-16).  Only the scan sees that.
    # The rings through the three tets on the short edge, whose
    # circumcentres are solved exactly, agree as well
    made = record_exact_circumspheres(monkeypatch)
    geom, bounds, points = lattice_case()
    mesh = TetMesh(bounds, seed=2)
    mesh.jitter_scale = 0.0
    for p in points:
        mesh.insert_point(p)
    exact = exact_tets(mesh, made)
    closed, through_exact, ties, differ = (
        _check_edges_against_reference(monkeypatch, mesh, geom, exact))
    assert len(exact) == 3 and closed and through_exact and ties > 0
    assert differ == [(22, 25), (24, 25)]
    brute = nearest_among_reference(mesh)
    for u, w in differ:
        t0 = holder(mesh, u, w)
        ring = mesh.edge_ring(u, w, t0)
        star = {x for t in ring for x in mesh.tets[t]}
        want = face_crossings_reference(mesh, geom, u, w, t0, brute)
        got = restricted._face_crossings(mesh, geom, u, w, t0)
        extra = [y for y, cid in got if (y, cid) not in want]
        assert extra and all(h in got for h in want)
        for y in extra:
            own = min(_d2(y, mesh.points[u]), _d2(y, mesh.points[w]))
            rival = min(_d2(y, mesh.points[x])
                        for x in range(len(mesh.points))
                        if mesh.meta[x].alive and x not in star)
            assert own - 1e-15 * own < rival < own


def test_tie_with_a_rival_is_a_hit():
    # y lies on the bisector of the simplex vertex and the rival, so on the
    # boundary of the closed dual; a rival one ulp nearer rejects it
    mesh = TetMesh(((0.0,) * 3, (2.0,) * 3))
    mesh.jitter_scale = 0.0
    own = (mesh.insert_point((0.0, 0.0, 0.0)).vid,)
    rival = (2.0, 0.0, 0.0)
    assert restricted._nearest_among(mesh, (1.0, 0.0, 0.0), own, [rival])
    assert not restricted._nearest_among(
        mesh, (math.nextafter(1.0, 2.0), 0.0, 0.0), own, [rival])


def test_refinement_confirms_dual_hits_without_a_walk(monkeypatch):
    # refinement confirms every dual hit from the Delaunay star alone
    calls = [0]
    nearest = TetMesh.nearest_vertex

    def counted(mesh, p):
        calls[0] += 1
        return nearest(mesh, p)

    monkeypatch.setattr(TetMesh, "nearest_vertex", counted)
    for geom, h in ((wedge(), 0.35), (icosphere(2), 0.4)):
        refiner = Refiner(geom, RefineConfig(sizing=SizingField(h0=h),
                                             seed=0))
        refiner.setup()
        assert refiner.run() == "converged"
    assert calls[0] == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("model, h", [(wedge, 0.35), (lambda: icosphere(2),
                                                      0.4)],
                         ids=["wedge", "icosphere2"])
def test_star_test_matches_brute_force_nearest_vertex(monkeypatch, model, h,
                                                      seed):
    # every edge with a non-shell vertex and every non-hull facet of a
    # refined mesh classifies the same when the star test is replaced by
    # a scan of all live mesh vertices (ties to the simplex, as in the
    # star test)
    geom = model()
    mesh = refine(geom, RefineConfig(sizing=SizingField(h0=h),
                                     seed=seed)).mesh
    edges, facets = {}, {}
    for t in mesh.alive_tets():
        quad = mesh.tets[t]
        for pair in combinations(sorted(quad), 2):
            edges.setdefault(pair, t)
        for i in range(4):
            tri = tuple(sorted(quad[k] for k in _FACES[i]))
            if mesh.neigh[t][i] != -1:
                facets.setdefault(tri, (t, i))
    edges = [(u, w, t) for (u, w), t in edges.items() if w >= 8]

    def classify_all():
        return ([_record(classify_edge(mesh, geom, u, w, t))
                 for u, w, t in edges],
                [_record(classify_facet(mesh, geom, t, i))
                 for t, i in facets.values()])

    brute = nearest_among_reference(mesh)
    got = classify_all()
    monkeypatch.setattr(restricted, "_nearest_among",
                        lambda mesh, y, own, rivals: brute(y, own))
    want = classify_all()
    assert got == want
    assert any(got[1]) and (any(got[0]) or not geom.segments)


# ----------------------------------------------------------------------
# restricted facets


def test_classify_facets_against_direct_enumeration():
    geom = icosphere(1)
    m, vids = mesh_with(geom.vertices, geom.bounds, seed=2)
    got = {}
    for t in m.alive_tets():
        quad = m.tets[t]
        for i in range(4):
            f = _FACES[i]
            key = tuple(sorted((quad[f[0]], quad[f[1]], quad[f[2]])))
            if key in got:
                continue
            obj = classify_facet(m, geom, t, i)
            if obj is not None:
                got[key] = obj
    # independent check: solve for the axis point on each input triangle
    # and keep it when the facet's vertices are the nearest mesh points
    P = np.asarray(m.points)
    alive = np.array([x.alive for x in m.meta])
    want = set()
    for key in _all_facet_keys(m):
        a, b, c = (np.asarray(m.points[v]) for v in key)
        found = False
        for (i, j, k, _pid) in geom.triangles:
            p0 = np.asarray(geom.vertices[i])
            e1 = np.asarray(geom.vertices[j]) - p0
            e2 = np.asarray(geom.vertices[k]) - p0
            nrm = np.cross(e1, e2)
            A = np.vstack([2 * (b - a), 2 * (c - a), nrm])
            rhs = np.array([b @ b - a @ a, c @ c - a @ a, nrm @ p0])
            if abs(np.linalg.det(A)) < 1e-14:
                continue
            y = np.linalg.solve(A, rhs)
            v0, v1, v2 = e2, e1, y - p0
            d00, d01, d11 = v0 @ v0, v0 @ v1, v1 @ v1
            d20, d21 = v2 @ v0, v2 @ v1
            den = d00 * d11 - d01 * d01
            uu = (d11 * d20 - d01 * d21) / den
            vv = (d00 * d21 - d01 * d20) / den
            if uu < -1e-10 or vv < -1e-10 or uu + vv > 1 + 1e-10:
                continue
            d2 = ((P - y) ** 2).sum(axis=1)
            d2[~alive] = np.inf
            if int(np.argmin(d2)) in key:
                found = True
                break
        if found:
            want.add(key)
    assert set(got) == want
    assert len(got) > 50


def _all_facet_keys(m):
    keys = set()
    for t in m.alive_tets():
        quad = m.tets[t]
        if all(v < 8 for v in quad):
            continue
        for i in range(4):
            f = _FACES[i]
            tri = tuple(sorted((quad[f[0]], quad[f[1]], quad[f[2]])))
            if any(v >= 8 for v in tri) and m.neigh[t][i] != -1:
                keys.add(tri)
    return keys


def test_dense_sphere_sample_restores_input_triangulation():
    geom = icosphere(2)
    m, vids = mesh_with(geom.vertices, geom.bounds, seed=4)
    tris = {}
    for t in m.alive_tets():
        quad = m.tets[t]
        for i in range(4):
            f = _FACES[i]
            key = tuple(sorted((quad[f[0]], quad[f[1]], quad[f[2]])))
            if key not in tris:
                obj = classify_facet(m, geom, t, i)
                if obj is not None:
                    tris[key] = obj
    want = {tuple(sorted(vids[x] for x in t[:3])) for t in geom.triangles}
    assert set(tris) == want
    # closed 2-manifold, Euler characteristic 2, ball centres on the surface
    edges = set()
    verts = set()
    use = {}
    for key in tris:
        verts.update(key)
        for e in ((key[0], key[1]), (key[1], key[2]), (key[0], key[2])):
            use[e] = use.get(e, 0) + 1
            edges.add(e)
    assert all(c == 2 for c in use.values())
    assert len(verts) - len(edges) + len(tris) == 2
    dists = distance_to_surface(geom, [o.centre for o in tris.values()])
    assert dists.max() <= 1e-9 * geom.diag


def lattice_with_surface():
    """(geometry, mesh) of ``lattice_case`` plus two squares: one in the
    plane z = 0.15 of cell centres, where the eight corners of a cell tie,
    and one at z = 0.21, near the short edge whose tets have exactly
    solved circumcentres."""
    geom, bounds, points = lattice_case()
    verts = list(geom.pts)
    tris = []
    for pid, z in enumerate((0.15, 0.21)):
        n = len(verts)
        verts += [(-0.05, -0.05, z), (0.25, -0.05, z), (0.25, 0.25, z),
                  (-0.05, 0.25, z)]
        tris += [(n, n + 1, n + 2, pid), (n, n + 2, n + 3, pid)]
    mesh = TetMesh(bounds, seed=2)
    mesh.jitter_scale = 0.0
    for p in points:
        mesh.insert_point(p)
    return PiecewiseComplex(verts, geom.segments, tris), mesh


def _refined(model, h):
    def build():
        geom = model()
        res = refine(geom, RefineConfig(sizing=SizingField(h0=h), seed=0))
        return geom, res.mesh
    return build


@pytest.mark.parametrize("case", [
    _refined(cube, 0.35), _refined(wedge, 0.35),
    _refined(lambda: icosphere(2), 0.4), lattice_with_surface,
], ids=["cube", "wedge", "icosphere2", "lattice"])
def test_facet_record_is_the_same_from_either_tet(monkeypatch, case):
    # a facet's record depends on the facet alone: its sorted vertices and
    # the smaller apex fix the dual edge's direction, the hit it keeps and
    # the order of every float operation, whichever tet hands it over
    made = record_exact_circumspheres(monkeypatch)
    geom, mesh = case()
    exact = exact_tets(mesh, made)
    differ = hits = exact_hits = 0
    for t in mesh.alive_tets():
        for i, t2 in enumerate(mesh.neigh[t]):
            if t2 < t:
                continue  # each shared facet once; hull facets never
            a = _record(classify_facet(mesh, geom, t, i))
            b = _record(classify_facet(mesh, geom, t2,
                                       mesh.neigh[t2].index(t)))
            differ += a != b
            if a is not None:
                hits += 1
                exact_hits += t in exact or t2 in exact
    assert differ == 0 and hits > 0, (differ, hits)
    if case is lattice_with_surface:
        assert exact_hits > 0  # hits on dual edges with exact centres


def test_classify_facet_two_crossings_selects_larger_ball():
    # a triangle floating between two parallel patches: its dual axis
    # pierces both, and the farther crossing carries the bigger ball
    verts = [(-2, -2, 0), (2, -2, 0), (2, 2, 0), (-2, 2, 0),
             (-2, -2, 0.4), (2, -2, 0.4), (2, 2, 0.4), (-2, 2, 0.4)]
    tris = [(0, 1, 2, 0), (0, 2, 3, 0), (4, 5, 6, 1), (4, 6, 7, 1)]
    geom = PiecewiseComplex(verts, [], tris)
    ell = 0.2
    pts = [(0.0, 0.0, 0.1), (ell, 0.0, 0.1),
           (ell / 2, ell * math.sqrt(3) / 2, 0.1)]
    m, vids = mesh_with(pts, geom.bounds, seed=11)
    found = None
    for tt in m.alive_tets():
        quad = m.tets[tt]
        if all(v in quad for v in vids):
            for i in range(4):
                f = _FACES[i]
                tri = {quad[f[0]], quad[f[1]], quad[f[2]]}
                if tri == set(vids):
                    found = classify_facet(m, geom, tt, i)
                    break
        if found is not None:
            break
    assert found is not None
    assert abs(found.centre[2] - 0.4) < 1e-9  # farther plane wins
    assert found.ref == 1


def test_classification_is_pure():
    geom = icosphere(1)
    m, _vids = mesh_with(geom.vertices, geom.bounds, seed=6)
    t = next(t for t in m.alive_tets() if min(m.tets[t]) >= SHELL)
    a = classify_facet(m, geom, t, 0)
    b = classify_facet(m, geom, t, 0)
    # the classification fields; ``walk`` is a cache of the query
    assert _record(a) == _record(b)


# ----------------------------------------------------------------------
# restricted tets


def test_classify_tet_cube_interior():
    geom = cube()
    interior = [(0.3, 0.3, 0.3), (0.7, 0.4, 0.35), (0.5, 0.7, 0.4),
                (0.45, 0.5, 0.75)]
    m, vids = mesh_with(list(geom.vertices) + interior, geom.bounds, seed=8)
    seen_in = seen_out = 0
    for t in m.alive_tets():
        if min(m.tets[t]) < SHELL:
            assert classify_tet(m, geom, t) is None
            continue
        obj = classify_tet(m, geom, t)
        centre = m.circum[t][0]
        inside = geom.point_in_volume(centre)
        assert (obj is not None) == inside
        seen_in += bool(inside)
        seen_out += not inside
    assert seen_in > 0


def test_classify_tet_matches_winding_oracle():
    geom = icosphere(1)
    rng = np.random.default_rng(12)
    pts = list(geom.vertices) + [tuple(p) for p in rng.uniform(-0.5, 0.5, (15, 3))]
    m, _vids = mesh_with(pts, geom.bounds, seed=9)
    for t in m.alive_tets():
        if min(m.tets[t]) < SHELL:
            continue
        obj = classify_tet(m, geom, t)
        centre = m.circum[t][0]
        w = winding_numbers([centre], geom.vertices, geom.triangles)[0]
        if abs(abs(w) - 0.5) < 1e-6:
            continue  # centre essentially on the surface
        assert (obj is not None) == (abs(w) > 0.5)


# ----------------------------------------------------------------------
# the shell rule


def _box_distance(x, lo, hi):
    return math.sqrt(sum(max(a - c, 0.0, c - b) ** 2
                         for c, a, b in zip(x, lo, hi)))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["cube", "wedge", "icosphere1"]),
       st.integers(0, 2 ** 32 - 1), st.integers(-3, 3),
       st.sampled_from(["classical", "frontal"]))
def test_no_simplex_with_a_shell_corner_is_restricted(name, seed, k, mode):
    # the classifiers reject a simplex with a shell corner before any
    # query.  Bypassed, they find every such simplex with a real vertex
    # unrestricted all the same, and every tet with a corner keeps its
    # circumcentre far outside the input's box
    base = {"cube": cube, "wedge": wedge,
            "icosphere1": lambda: icosphere(1)}[name]()
    rng = np.random.default_rng(seed)
    scale = 2.0 ** k
    verts = (base.vertices @ random_rotation(rng).T
             + rng.uniform(-3.0, 3.0, 3)) * scale
    geom = PiecewiseComplex(verts, base.segments, base.triangles)
    mesh = refine(geom, RefineConfig(sizing=SizingField(h0=0.6 * scale),
                                     mode=mode, seed=seed % 1000)).mesh
    lo, hi = geom.bounds
    edges, facets, tets = {}, {}, []
    for t in mesh.alive_tets():
        quad = mesh.tets[t]
        if min(quad) >= SHELL:
            continue
        assert _box_distance(mesh.circum[t][0], lo, hi) >= 2.0 * geom.diag
        tets.append(t)
        for u, w in combinations(sorted(quad), 2):
            if u < SHELL <= w:
                edges.setdefault((u, w), t)
        for i, f in enumerate(_FACES):
            tri = sorted(quad[j] for j in f)
            if tri[0] < SHELL <= tri[2]:
                facets.setdefault(tuple(tri), (t, i))
    assert tets and edges and facets
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(restricted, "SHELL", 0)
        assert all(classify_edge(mesh, geom, u, w, t) is None
                   for (u, w), t in edges.items())
        assert all(classify_facet(mesh, geom, t, i) is None
                   for t, i in facets.values())
        assert all(classify_tet(mesh, geom, t) is None for t in tets)


# ----------------------------------------------------------------------
# distance certificates


# the package exports a function named refine, which shadows the module
refine_mod = importlib.import_module("pscmesh.refine")


def check_certified_skips(monkeypatch):
    """Wrap the facet and tet classifiers that ``Refiner`` calls and the
    certificate's ``settle``, so that every dual-edge query the
    certificate skips is re-run unskipped and must find no hit, and every
    volume status ``settle`` gives, whether inherited, flipped by a
    dual-edge parity or queried, must equal the membership query, as must
    each status a tet classifier reads.  Returns the counts checked,
    [skipped queries, inherited statuses]: the latter sums what the
    checked ``settle`` calls added to ``volume_inherited``."""
    checked = [0, 0]
    settle = DistanceCertificate.settle

    def settled(cert, mesh, geom, created):
        before = cert.stats["volume_inherited"]
        settle(cert, mesh, geom, created)
        for t in created:
            if min(mesh.tets[t]) >= SHELL:
                assert cert.inside[t] == geom.point_in_volume(
                    mesh.circum[t][0]), t
        checked[1] += cert.stats["volume_inherited"] - before

    def facet(mesh, geom, t, i, cert=None, rec=None):
        before = cert.stats["dual_certified"]
        out = classify_facet(mesh, geom, t, i, cert=cert, rec=rec)
        if cert.stats["dual_certified"] > before:
            c1 = mesh.circum[t][0]
            c2 = mesh.circum[mesh.neigh[t][i]][0]
            assert out is None
            assert geom.intersect_segment_surface(c1, c2) == []
            checked[0] += 1
        return out

    def tet(mesh, geom, t, cert=None):
        out = classify_tet(mesh, geom, t, cert=cert)
        if min(mesh.tets[t]) >= SHELL:
            centre = mesh.circum[t][0]
            assert cert.inside[t] == (out is not None) \
                == geom.point_in_volume(centre)
        return out

    monkeypatch.setattr(refine_mod, "classify_facet", facet)
    monkeypatch.setattr(refine_mod, "classify_tet", tet)
    monkeypatch.setattr(DistanceCertificate, "settle", settled)
    return checked


@pytest.mark.parametrize("geom, h, inherits", [
    (lambda: icosphere(2), 0.4, True),
    (wedge, 0.35, True),
    (lambda: icosphere(4), 0.7, True),
    (lambda: rotated(cube(), 5), 0.3, False),
    (lambda: box(1.0, 1.0, 0.05), 0.3, True),
], ids=["sphere", "crease", "dense_surface", "rotated-cube", "slab"])
def test_certified_skips_would_find_nothing(monkeypatch, geom, h, inherits):
    # the tilted box's large triangles have boxes that fill much of the
    # volume, so its box cover settles no volume status, and the slab's
    # dual edges run close to its two large faces: the certificate must
    # still skip only queries that find nothing
    checked = check_certified_skips(monkeypatch)
    r = Refiner(geom(), RefineConfig(sizing=SizingField(h0=h), seed=0))
    r.setup()
    assert r.run() == "converged"
    assert checked == [r.stats["dual_certified"], r.stats["volume_inherited"]]
    assert checked[0] > 0 and (checked[1] > 0) == inherits


def check_survivor_skips(monkeypatch):
    """Wrap ``Refiner._reclassify`` so that every simplex of a created tet
    that it does not classify is checked: it is a face of a destroyed tet
    that was not restricted, or a simplex of a complex the input lacks
    (curves with no curve segments, a surface with no triangles, a volume
    with no closed surface), and a fresh classification with no
    certificate (``fresh_answer``) returns None.  Returns the skipped
    survivors."""
    skipped = []
    reclassify = Refiner._reclassify
    seen = []

    # the classifiers the driver calls by name, each keyed as it records
    driver = importlib.import_module("pscmesh.refine")
    for name, key_of in (
            ("classify_edge", lambda mesh, u, w, t0: (min(u, w), max(u, w))),
            ("classify_facet", lambda mesh, t, i: tuple(sorted(
                mesh.tets[t][j] for j in _FACES[i]))),
            ("classify_tet", lambda mesh, t: tuple(sorted(mesh.tets[t])))):

        def recording(mesh, geom, *args, classify=getattr(driver, name),
                      key_of=key_of, **kwargs):
            seen.append(key_of(mesh, *args))
            return classify(mesh, geom, *args, **kwargs)

        monkeypatch.setattr(driver, name, recording)

    def checked(self, census, created_ids):
        mesh, g = self.mesh, self.g
        has = {d for d, part in zip((1, 2, 3), (
            g.segments, g.triangles, g.surface_closed)) if part}
        killed_quads = ([k[1] for k in mesh._last_insert.journal[0]]
                        if census.probe[1] else [])
        old = {k for q in killed_quads for n in (2, 3, 4)
               for k in combinations(sorted(q), n)}
        handles = {}
        for t in created_ids:
            quad = mesh.tets[t]
            for pair in combinations(sorted(quad), 2):
                handles.setdefault(pair, (t,))
            for i, f in enumerate(_FACES):
                handles.setdefault(tuple(sorted(quad[j] for j in f)), (t, i))
            handles.setdefault(tuple(sorted(quad)), (t,))
        survivors = {k for k in handles.keys() & old if len(k) - 1 in has
                     and k not in self.rs.table[len(k) - 1]}
        lacked = {k for k in handles if len(k) - 1 not in has}
        seen.clear()
        undo = reclassify(self, census, created_ids)
        missed = sorted(handles.keys() - set(seen))
        assert set(missed) == survivors | lacked
        for key in missed:
            assert fresh_answer(mesh, g, key, *handles[key]) is None, key
        skipped.extend(sorted(survivors))
        return undo

    monkeypatch.setattr(Refiner, "_reclassify", checked)
    return skipped


@pytest.mark.parametrize("geom, h", [
    (lambda: icosphere(2), 0.4),
    (wedge, 0.35),
    (lambda: icosphere(4), 0.7),
    (cube, 0.35),
], ids=["sphere", "crease", "dense_surface", "cube"])
def test_skipped_survivors_classify_as_unrestricted(monkeypatch, geom, h):
    skipped = check_survivor_skips(monkeypatch)
    r = Refiner(geom(), RefineConfig(sizing=SizingField(h0=h), seed=0))
    assert r.run() == "converged"
    assert len(skipped) == r.stats["survivors_skipped"] > 0
    assert_restricted_fresh(r)


def open_square():
    """The unit square in z = 0 as two triangles, its rim on four curve
    segments: curves and a surface, no volume."""
    return PiecewiseComplex([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
                            [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 0, 3)],
                            [(0, 1, 2, 0), (0, 2, 3, 0)])


def polyline():
    """Three segments bent out of one plane: curves alone."""
    return PiecewiseComplex([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
                            [(0, 1, 0), (1, 2, 0), (2, 3, 0)], [])


# the classifier of each complex, with the cascade stages that refine it
CLASSIFIERS = {"classify_edge": ("edges", "disk1"),
               "classify_facet": ("tris", "disk2"),
               "classify_tet": ("tets",)}


@pytest.mark.parametrize("geom, h, lacks", [
    (lambda: icosphere(2), 0.4, {"classify_edge"}),
    (open_square, 0.3, {"classify_tet"}),
    (polyline, 0.3, {"classify_facet", "classify_tet"}),
    (wedge, 0.35, set()),
], ids=["sphere", "open_square", "polyline", "crease"])
def test_classification_follows_the_complexes_of_the_input(monkeypatch, geom,
                                                           h, lacks):
    # the driver never classifies, nor refines, a simplex of a complex the
    # input lacks, and the fresh classification of every live simplex shows
    # that none of them would have been restricted
    driver = importlib.import_module("pscmesh.refine")
    calls = dict.fromkeys(CLASSIFIERS, 0)
    for name in CLASSIFIERS:

        def counting(*args, classify=getattr(driver, name), name=name,
                     **kwargs):
            calls[name] += 1
            return classify(*args, **kwargs)

        monkeypatch.setattr(driver, name, counting)
    r = Refiner(geom(), RefineConfig(sizing=SizingField(h0=h), seed=0))
    assert r.run() == "converged"
    assert all(r.audit().values())
    assert {name for name, n in calls.items() if not n} == lacks
    assert all(r.stage_s[stage] == 0.0 for name in lacks
               for stage in CLASSIFIERS[name])
    assert_restricted_fresh(r)


def test_skipped_survivors_on_the_lattice_classify_as_unrestricted(
        monkeypatch):
    # the lattice inserted through the refiner's bookkeeping, so the skips
    # meet exact ties and exactly solved circumcentres.  The curve crosses
    # the bisector of vertices 8 = (0, 0, 0) and 9 = (0, 0, 0.1) at the
    # centre of the first cell, which all its corners tie: that point lies
    # on the closed dual face of (8, 9) whatever is inserted later
    skipped = check_survivor_skips(monkeypatch)
    made = record_exact_circumspheres(monkeypatch)
    geom, bounds, points = lattice_case()
    r = Refiner(geom, RefineConfig(sizing=SizingField(h0=1.0)))
    r.mesh = TetMesh(bounds, seed=2)
    r.mesh.jitter_scale = 0.0
    r._reclassify(Census(r.mesh), sorted(r.mesh.alive_tets()))
    for p in points:
        census = Census(r.mesh, r.mesh.probe_insert(p))
        rec = r.mesh.insert_point(p, probe=census.probe)
        r._reclassify(census, rec.created)
    assert len(skipped) == r.stats["survivors_skipped"] > 0
    assert (8, 9) in r.rs.edges and exact_tets(r.mesh, made)
    assert_restricted_fresh(r)


# ----------------------------------------------------------------------
# the cavity census and the undo list


def assert_census_is_the_tet_derivation(census, killed_quads, created_quads):
    """The census kills and keeps the faces, and holds the vertices, that
    the faces of the killed and created tets give."""
    killed, kept, dirty = cavity_change_reference(killed_quads, created_quads)
    for d in (1, 2, 3):
        assert census.faces[d] - census.kept[d] == killed[d]
        assert census.kept[d] == kept[d]
    assert census.faces[0] == census.kept[0] == dirty


def insert_with_census(mesh, p):
    """Insert p through its census; check the census against the tets the
    insertion killed and created.  Returns the insertion record."""
    census = Census(mesh, mesh.probe_insert(p))
    rec = mesh.insert_point(p, probe=census.probe)
    if rec.duplicate:
        assert census.kept == census.faces  # nothing is inserted
    else:
        assert_census_is_the_tet_derivation(
            census, [k[1] for k in rec.journal[0]],
            [mesh.tets[t] for t in rec.created])
    return rec


def test_census_of_random_insertions_is_the_tet_derivation():
    rng = np.random.default_rng(12)
    mesh = TetMesh(((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), seed=3)
    points = [tuple(p) for p in rng.uniform(0.0, 1.0, (80, 3))]
    recs = [insert_with_census(mesh, p) for p in points + points[5:7]]
    assert [r.duplicate for r in recs].count(True) == 2


def test_census_of_the_unjittered_lattice_is_the_tet_derivation():
    # exact ties: the corners of each lattice cell are cospherical
    _geom, bounds, points = lattice_case()
    mesh = TetMesh(bounds, seed=2)
    mesh.jitter_scale = 0.0
    for p in points:
        assert not insert_with_census(mesh, p).duplicate


def test_census_of_every_wedge_probe_is_the_tet_derivation(monkeypatch):
    """Every probe of a refinement run: the census against the cavity tets
    and the tets its insertion would create (a boundary facet plus the
    new vertex), and the disk-check marks of every insertion against the
    vertices of the tets it killed."""
    checked = {"probes": 0, "marks": 0}
    killed = []

    class CheckedCensus(Census):
        __slots__ = ()

        def __init__(self, mesh, probe=(None, (), (), None), dims=(1, 2, 3)):
            super().__init__(mesh, probe, dims)
            _pj, cav, boundary, dup = probe
            if cav and dup is None:
                vid = len(mesh.points)
                assert_census_is_the_tet_derivation(
                    self, [mesh.tets[t] for t in cav],
                    [(*f, vid) for f, _n in boundary])
                checked["probes"] += 1

    reclassify, mark = Refiner._reclassify, Refiner._mark_dirty

    def recording(self, census, created_ids):
        killed.clear()
        if census.probe[1]:
            rec = self.mesh._last_insert
            killed.append((rec.vid, [k[1] for k in rec.journal[0]]))
        return reclassify(self, census, created_ids)

    def marking(self, vertices):
        if killed:
            vid, quads = killed.pop()
            _k, _kept, dirty = cavity_change_reference(quads, [])
            assert set(vertices) == dirty | {vid}
            checked["marks"] += 1
        return mark(self, vertices)

    monkeypatch.setattr(refine_mod, "Census", CheckedCensus)
    monkeypatch.setattr(Refiner, "_reclassify", recording)
    monkeypatch.setattr(Refiner, "_mark_dirty", marking)
    r = Refiner(wedge(), RefineConfig(sizing=SizingField(h0=0.35), seed=0))
    assert r.run() == "converged"
    assert checked["marks"] == r.stats["inserted"]
    assert checked["probes"] > r.stats["inserted"]


# Refiner.stats of the seed-0 runs, as the earlier reclassification that
# wrote every classified key gave them (``walks_reused`` came later; on
# crease, exact facet crossings moved one reused walk to a skipped survivor;
# ``dual_certified`` fell when it came to count facets with no shell corner
# alone; sphere's ``survivors_skipped`` fell from 8026 to 2647 when the
# edges of its curve-less input stopped being built, so stopped being
# counted as skipped; ``volume_inherited`` rose from 2399 / 1092 when
# the created tets came to settle through their cavity, across a facet
# the certificate clears wherever one has)
STATS = {
    "sphere": {"inserted": 162, "duplicates": 0, "rejected_protected": 0,
               "rollback_gamma": 0, "rollback_sigma": 0, "encroach_edge": 0,
               "encroach_tri": 21, "disk1": 0, "disk2": 0, "type2": 43,
               "type1": 119, "blocked": 0, "dual_certified": 3529,
               "volume_inherited": 2709, "survivors_skipped": 2647,
               "walks_reused": 904},
    "crease": {"inserted": 85, "duplicates": 0, "rejected_protected": 0,
               "rollback_gamma": 0, "rollback_sigma": 0, "encroach_edge": 1,
               "encroach_tri": 19, "disk1": 0, "disk2": 0, "type2": 27,
               "type1": 58, "blocked": 0, "dual_certified": 1554,
               "volume_inherited": 1187, "survivors_skipped": 3953,
               "walks_reused": 369},
}


@pytest.mark.parametrize("name, geom, h", [
    ("sphere", lambda: icosphere(2), 0.4),
    ("crease", wedge, 0.35),
], ids=["sphere", "crease"])
def test_reclassify_writes_only_entries_that_change(monkeypatch, name, geom,
                                                    h):
    reclassify = Refiner._reclassify
    calls = []

    def checked(self, census, created_ids):
        undo = reclassify(self, census, created_ids)
        assert not [(d, key) for d, key, old in undo
                    if old is None and key not in self.rs.table[d]]
        calls.append(len(undo))
        return undo

    monkeypatch.setattr(Refiner, "_reclassify", checked)
    r = Refiner(geom(), RefineConfig(sizing=SizingField(h0=h), seed=0))
    assert r.run() == "converged"
    assert len(calls) > STATS[name]["inserted"]
    assert r.stats == STATS[name]


@pytest.mark.parametrize("geom, h", [
    (lambda: icosphere(2), 0.4),
    (wedge, 0.35),
], ids=["sphere", "crease"])
def test_restricted_sets_are_fresh_after_every_insertion(monkeypatch, geom,
                                                         h):
    # a surviving restricted triangle that is classified again keeps the
    # terms of its vertices alone (rho, quality, cc) from its record: after
    # every reclassification, each record equals a fresh one field for field
    reclassify = Refiner._reclassify
    calls, kept = [], [0]

    def checked(self, census, created_ids):
        undo = reclassify(self, census, created_ids)
        assert_restricted_fresh(self)
        calls.append(len(undo))
        return undo

    def facet(mesh, geom, t, i, cert=None, rec=None):
        out = classify_facet(mesh, geom, t, i, cert=cert, rec=rec)
        kept[0] += rec is not None and out is not None
        return out

    monkeypatch.setattr(Refiner, "_reclassify", checked)
    monkeypatch.setattr(refine_mod, "classify_facet", facet)
    r = Refiner(geom(), RefineConfig(sizing=SizingField(h0=h), seed=0))
    assert r.run() == "converged"
    assert len(calls) > r.stats["inserted"]
    assert kept[0] > 100


@st.composite
def moved_model(draw):
    """A rigid motion and scaling of a small model, with its h."""
    make, h = draw(st.sampled_from([(lambda: icosphere(1), 0.6),
                                    (cube, 0.5), (wedge, 0.5)]))
    base = make()
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = draw(st.sampled_from([1e-3, 0.37, 1.0, 25.0]))
    shift = draw(st.tuples(*[st.floats(-100.0, 100.0)] * 3))
    rot = random_rotation(np.random.default_rng(seed))
    verts = (base.vertices @ rot.T) * scale + np.asarray(shift) * scale
    return (PiecewiseComplex(verts, base.segments, base.triangles),
            h * scale)


@settings(max_examples=10, deadline=None)
@given(moved_model())
def test_certified_skips_find_nothing_under_rigid_motions(case):
    # a tilted cube face has a box that fills much of the cube, so the box
    # cover may settle no volume status there; dual edges are still skipped.
    # Far from the origin, a moved input may not converge, or may end in a
    # typed error; both faults predate the certificates.  The point budget
    # bounds such a run, and every skip up to its end is still checked.
    geom, h = case
    with pytest.MonkeyPatch.context() as mp:
        checked = check_certified_skips(mp)
        r = Refiner(geom, RefineConfig(sizing=SizingField(h0=h), seed=0,
                                       max_points=600))
        r.setup()
        try:
            r.run()
        except PscError:
            pass
    assert checked == [r.stats["dual_certified"], r.stats["volume_inherited"]]
    assert checked[0] > 0


# ----------------------------------------------------------------------
# reused surface walks


def check_reused_walks(monkeypatch):
    """Wrap the facet classifier that ``Refiner`` calls, so that every
    query that tests a reused walk's triangles is re-run on a fresh walk
    and must find the same hits, and the record must equal a fresh
    classification's.  Returns the reuses checked, in a one-item list."""
    checked = [0]
    isect = PiecewiseComplex.intersect_segment_surface
    queries = []

    def recording(geom, a, b, cands=None):
        out = isect(geom, a, b, cands)
        queries.append((a, b, cands, out))
        return out

    def facet(mesh, geom, t, i, cert=None, rec=None):
        before = cert.stats["walks_reused"]
        queries.clear()
        out = classify_facet(mesh, geom, t, i, cert=cert, rec=rec)
        if cert.stats["walks_reused"] > before:
            (a, b, cands, hits), = queries
            assert cands is rec.walk[3]
            assert hits == isect(geom, a, b)
            assert _record(out) == _record(classify_facet(mesh, geom, t, i))
            checked[0] += 1
        return out

    monkeypatch.setattr(PiecewiseComplex, "intersect_segment_surface",
                        recording)
    monkeypatch.setattr(refine_mod, "classify_facet", facet)
    return checked


@pytest.mark.parametrize("geom, h", [
    (lambda: icosphere(2), 0.4),
    (wedge, 0.35),
    (lambda: icosphere(4), 0.7),
    (lambda: rotated(cube(), 5), 0.3),
], ids=["sphere", "crease", "dense_surface", "rotated-cube"])
def test_reused_walks_find_what_a_fresh_walk_finds(monkeypatch, geom, h):
    checked = check_reused_walks(monkeypatch)
    r = Refiner(geom(), RefineConfig(sizing=SizingField(h0=h), seed=0))
    assert r.run() == "converged"
    assert checked[0] == r.stats["walks_reused"] > 0


def _moved_walk(walk, shift):
    """``walk`` with its segment moved ``shift`` half tubes off its line,
    and no triangles."""
    a, b, r2, _ids = walk
    d = [b[k] - a[k] for k in range(3)]
    axis = min(range(3), key=lambda k: abs(d[k]))
    e = [0.0, 0.0, 0.0]
    e[axis] = 1.0
    u = np.cross(d, e)
    v = shift * math.sqrt(r2) * u / np.linalg.norm(u)
    return (tuple((np.asarray(a) + v).tolist()),
            tuple((np.asarray(b) + v).tolist()), r2, [])


def test_a_walk_outside_its_tube_is_not_reused():
    # hand-made stale records of a restricted facet: each one's segment is
    # its dual segment moved off by 0.8 or 1.2 half tubes, and it lists no
    # triangle.  Within half the tube the empty list is tested and finds
    # nothing; beyond it the facet walks afresh and finds its hit
    r = Refiner(icosphere(2), RefineConfig(sizing=SizingField(h0=0.4), seed=0))
    r.setup()
    mesh, geom = r.mesh, r.g
    t, i, rec = next((t, i, r.rs.tris[key]) for t in sorted(mesh.alive_tets())
                     for i, f in enumerate(_FACES)
                     if (key := tuple(sorted(mesh.tets[t][j] for j in f)))
                     in r.rs.tris)
    fresh = _record(classify_facet(mesh, geom, t, i))
    assert fresh is not None and rec.walk[3]
    for shift, reused in ((0.8, True), (1.2, False)):
        stale = Restricted(rec.key, rec.centre, rec.radius, rec.err, rec.ref,
                           rec.rho, rec.quality,
                           walk=_moved_walk(rec.walk, shift), cc=rec.cc)
        before = r.stats["walks_reused"]
        out = classify_facet(mesh, geom, t, i, cert=r.cert, rec=stale)
        assert r.stats["walks_reused"] - before == reused
        if reused:
            assert out is None
        else:
            assert _record(out) == fresh and out.walk == rec.walk


def test_a_reused_walk_keeps_what_the_walk_of_a_nearby_segment_keeps():
    # one triangle in the plane z = 0 whose tree box ends at x = 1 + eps.
    # The vertical segment s3 crosses the triangle exactly, 1e-12 inside
    # its edge x = 1: the walk keeps the triangle, and s3 hits
    geom = PiecewiseComplex([(1, -1, 0), (1, 1, 0), (-1, 0, 0)], [],
                            [(0, 1, 2, 0)])
    eps = geom.eps
    x = 1.0 - 1e-12
    assert x < 1.0
    s3 = ((x, 0.0, -1.0), (x, 0.0, 1.0))
    assert geom.surface_candidates(*s3) == [0]
    hits = geom.intersect_segment_surface(*s3)
    assert hits == [((x, 0.0, 0.0), 0)]
    # s2, s3 drawn out to length 20, has a tube wider than the walk's pad.
    # s1, s2 moved 0.9 half tubes out past the edge, passes beyond that
    # pad: its plain walk drops the triangle, which s1 does not cross even
    # when listed, and its tube-grown walk keeps it, with s2's hit
    s2 = ((x, 0.0, -10.0), (x, 0.0, 10.0))
    assert geom.intersect_segment_surface(*s2) == hits
    tube = eps + restricted._WALK_TUBE * 20.0
    s1 = tuple((px + 0.45 * tube, py, pz) for px, py, pz in s2)
    assert 0.45 * tube > geom.hit_pad
    assert geom.surface_candidates(*s1) == []
    assert geom.intersect_segment_surface(*s1, [0]) == []
    walk = restricted._walk(geom, *s1)
    assert walk[3] == [0]
    assert all(restricted._in_tube(p, walk) for p in s2)
    assert geom.intersect_segment_surface(*s2, walk[3]) == hits


def test_volume_and_surface_queries_are_mostly_certified(monkeypatch):
    # without the distance certificates this run makes 2,929
    # point_in_volume and 9,033 intersect_segment_surface calls; with
    # them, 2 (and 218 dual-edge parities) and 2,051: a ray only where a
    # setup or a cavity has no settled tet to settle from
    calls = {"point_in_volume": 0, "intersect_segment_surface": 0}
    for name in calls:
        original = getattr(PiecewiseComplex, name)

        def counted(geom, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(geom, *args)

        monkeypatch.setattr(PiecewiseComplex, name, counted)
    r = Refiner(icosphere(2), RefineConfig(sizing=SizingField(h0=0.4), seed=0))
    r.setup()
    assert r.run() == "converged"
    assert 0 < calls["point_in_volume"] <= 2
    assert 0 < calls["intersect_segment_surface"] <= 4000


# ----------------------------------------------------------------------
# topological disks (pure-function checks)


def _edge(u, w, radius, curve=0, centre=(0, 0, 0)):
    return Restricted((u, w), centre, radius, 0.0, curve, 0.5, 0.0)


def test_topo_disk_1_chain_vertex_valid():
    assert topo_disk_1([_edge(1, 2, 0.1), _edge(2, 3, 0.2)], (0, 0)) is None


def test_topo_disk_1_three_edges_on_simple_curve():
    edges = [_edge(1, 2, 0.1), _edge(2, 3, 0.3), _edge(2, 4, 0.2)]
    got = topo_disk_1(edges, (0, 0))
    assert got is edges[1]  # largest ball wins


def test_topo_disk_1_endpoint_with_one_edge():
    assert topo_disk_1([_edge(1, 2, 0.5)], (0,)) is None


def test_topo_disk_1_off_curve_vertex_always_fails():
    edges = [_edge(7, 9, 0.4)]
    assert topo_disk_1(edges, ()) is edges[0]


def test_topo_disk_1_mixed_curves_at_plain_vertex():
    edges = [_edge(1, 2, 0.1, curve=0), _edge(2, 3, 0.1, curve=1)]
    assert topo_disk_1(edges, (0, 0)) is not None


def test_topo_disk_1_junction_of_two_curves_valid():
    # a degree-2 input vertex where curves 0 and 1 meet: one edge of each
    edges = [_edge(2, 3, 0.1, curve=1), _edge(1, 2, 0.1, curve=0)]
    assert topo_disk_1(edges, (0, 1)) is None
    assert topo_disk_1([_edge(1, 2, 0.1), _edge(2, 3, 0.1)], (0, 1)) is not None


def test_topo_disk_1_corner_with_two_edges_of_one_curve_fails():
    # a degree-3 corner of curves 0, 1, 2 needs one edge of each
    edges = [_edge(1, 2, 0.1, curve=0), _edge(2, 3, 0.3, curve=0),
             _edge(2, 4, 0.2, curve=2)]
    assert topo_disk_1(edges, (0, 1, 2)) is edges[1]


def _tri(a, b, c, radius, patch=0):
    return Restricted(tuple(sorted((a, b, c))), (0, 0, 0), radius, 0.0,
                      patch, 1.0, 1.0)


def test_topo_disk_2_closed_umbrella():
    p = 0
    ring = [1, 2, 3, 4, 5, 6]
    tris = [_tri(p, ring[i], ring[(i + 1) % 6], 0.1) for i in range(6)]
    assert topo_disk_2(p, tris, True, set()) is None


def test_topo_disk_2_pinched_fans_return_largest():
    p = 0
    fan1 = [_tri(p, 1, 2, 0.1), _tri(p, 2, 3, 0.2), _tri(p, 3, 1, 0.15)]
    fan2 = [_tri(p, 7, 8, 0.4), _tri(p, 8, 9, 0.3), _tri(p, 9, 7, 0.05)]
    got = topo_disk_2(p, fan1 + fan2, True, set())
    assert got is fan2[0]


def test_topo_disk_2_open_fan_bounded_by_curve_edges():
    p = 0
    tris = [_tri(p, 1, 2, 0.1), _tri(p, 2, 3, 0.1)]
    gamma = {(0, 1), (0, 3)}
    assert topo_disk_2(p, tris, True, gamma) is None
    assert topo_disk_2(p, tris, True, set()) is not None


def test_topo_disk_2_nonmanifold_spoke_fails():
    p = 0
    tris = [_tri(p, 1, 2, 0.1), _tri(p, 2, 3, 0.1), _tri(p, 2, 4, 0.7)]
    got = topo_disk_2(p, tris, True, {(0, 1), (0, 3), (0, 4)})
    assert got is tris[2]


def test_topo_disk_2_off_surface_vertex_fails():
    tris = [_tri(0, 1, 2, 0.2)]
    assert topo_disk_2(0, tris, False, set()) is tris[0]
    assert topo_disk_2(0, [], False, set()) is None


@st.composite
def fans(draw):
    """(p, up to 7 triangles at p, on_surface, gamma_edges): one or two
    chains, open or closed, over spokes 1..8 and a few stray triangles, so
    that closed and open umbrellas, pinched fans and spokes on three or
    more triangles all occur."""
    p = draw(st.sampled_from([0, 9]))
    labels = draw(st.permutations(range(1, 9)))
    pairs = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(2, 6))
        start = draw(st.integers(0, 8 - n))
        ring = labels[start:start + n]
        pairs += zip(ring, ring[1:])
        if n > 2 and draw(st.booleans()):
            pairs.append((ring[-1], ring[0]))
    pairs += draw(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)),
                           max_size=1))
    keys = list(dict.fromkeys(tuple(sorted((p, a, b)))
                              for a, b in pairs if a != b))[:7]
    assume(keys)
    tris = [Restricted(k, (0, 0, 0), draw(st.sampled_from([0.1, 0.2, 0.3])),
                       0.0, 0, 1.0, 1.0) for k in keys]
    ends = draw(st.one_of(st.just(range(1, 9)), st.sets(st.integers(1, 8))))
    gamma = {(min(p, q), max(p, q)) for q in ends}
    return p, tris, draw(st.booleans()), gamma


@settings(max_examples=400, deadline=None)
@given(fans())
# a closed umbrella beside an open one whose ends follow curve edges
@example((0, [_tri(0, 1, 2, 0.1), _tri(0, 2, 3, 0.1), _tri(0, 3, 1, 0.1),
              _tri(0, 4, 5, 0.2)], True, {(0, 4), (0, 5)}))
def test_topo_disk_2_matches_a_search_over_fan_orderings(fan):
    assert topo_disk_2(*fan) is umbrella_reference(*fan)
