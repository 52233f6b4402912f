import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pscmesh.config import RefineConfig, SizingField
from pscmesh.delaunay import (_FACES, SHELL, TetMesh, circumcentre_triangle,
                              circumsphere_tet)
from pscmesh.errors import MeshError
from pscmesh.models import icosphere, wedge
from pscmesh.predicates import orient3d_exact
from pscmesh.refine import refine

from oracles import (brute_force_delaunay, holder, holders,
                     rational_circumball, rational_insphere,
                     rational_orient3d, shell_reference)
from test_golden import _workloads
from test_restricted import lattice_case

UNIT = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def kernel_tets(mesh, ghost=False):
    out = set()
    for t in mesh.alive_tets():
        if ghost or min(mesh.tets[t]) >= SHELL:
            out.add(tuple(sorted(mesh.tets[t])))
    return out


def full_oracle(mesh):
    """Brute-force Delaunay over every alive point, shell included."""
    alive = [v for v in range(len(mesh.points)) if mesh.meta[v].alive]
    P = [mesh.points[v] for v in alive]
    raw = brute_force_delaunay(P)
    back = {i: v for i, v in enumerate(alive)}
    return {tuple(sorted(back[i] for i in quad)) for quad in raw}


def test_insert_star_counts():
    m = TetMesh(UNIT, seed=1)
    for p in [(0.2, 0.2, 0.2), (0.8, 0.2, 0.3), (0.5, 0.8, 0.25),
              (0.5, 0.4, 0.9)]:
        m.insert_point(p)
    assert len(kernel_tets(m)) == 1
    m.insert_point((0.5, 0.4, 0.4))  # interior of the single tet
    assert len(kernel_tets(m)) == 4


def test_duplicate_insert_is_flagged():
    m = TetMesh(UNIT, seed=1)
    r1 = m.insert_point((0.5, 0.5, 0.5))
    r2 = m.insert_point((0.5, 0.5, 0.5))
    assert not r1.duplicate
    assert r2.duplicate
    assert r2.vid == r1.vid


def test_insert_on_shared_facet_keeps_adjacency_symmetric():
    m = TetMesh(UNIT, seed=3)
    rng = np.random.default_rng(0)
    for p in rng.uniform(0.1, 0.9, (6, 3)):
        m.insert_point(tuple(p))
    # pick an interior facet and insert its barycentre
    for t in m.alive_tets():
        quad = m.tets[t]
        n = m.neigh[t][0]
        if n != -1:
            f = [quad[i] for i in (1, 3, 2)]
            p = tuple(sum(m.points[v][k] for v in f) / 3.0 for k in range(3))
            m.insert_point(p)
            break
    _assert_involution(m)


def _assert_involution(m):
    # slot i of t faces the facet opposite tets[t][i]: its neighbour holds
    # exactly that facet of t and points back at t across it, and only the
    # hull facets face nothing (-1): three shell corners on one box face,
    # i.e. sharing a bit of their corner index
    for t in m.alive_tets():
        quad = m.tets[t]
        for i in range(4):
            n = m.neigh[t][i]
            facet = set(quad) - {quad[i]}
            assert n != -2, (t, i)
            if n == -1:
                assert all(v < 8 for v in facet), (t, i)
                assert any(len({v >> k & 1 for v in facet}) == 1
                           for k in range(3)), (t, i)
                continue
            nquad = m.tets[n]
            assert nquad is not None, (t, i, n)
            assert set(nquad) & set(quad) == facet, (t, i, n)
            back = m.neigh[n].index(t)
            assert set(nquad) - {nquad[back]} == facet, (t, i, n)


def test_fresh_mesh_adjacency():
    m = TetMesh(UNIT, seed=0)
    _assert_involution(m)
    # the box hull: two triangles on each of its six faces
    assert sum(n.count(-1) for n in m.neigh) == 12


def _shell_box(extent, shift, k):
    """A box of the given extent, its lower corner ``shift`` diagonals
    from the origin, both scaled by 2**k."""
    diag = math.sqrt(sum(e * e for e in extent))
    lo = tuple(math.ldexp(s * diag, k) for s in shift)
    return lo, tuple(x + math.ldexp(e, k) for x, e in zip(lo, extent))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from([(1.0, 1.0, 1.0), (1.0, 1.0, 0.05), (0.05, 1.0, 1.0),
                        (1.0, 0.3, 0.7)]),
       st.tuples(*[st.floats(-1e3, 1e3)] * 3), st.integers(-20, 20))
@example(0, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 0)
@example(7, (1.0, 1.0, 0.05), (0.0, 0.0, 0.0), -20)
@example(3, (1.0, 1.0, 1.0), (1e3, 1e3, 1e3), 20)
@example(5, (1.0, 1.0, 0.05), (-1e3, 1e3, -1e3), 0)
def test_shell_equals_the_filtered_loop_and_is_exactly_delaunay(
        seed, extent, shift, k):
    # the shell decided on corners scaled once is the one the filtered
    # predicates build call by call, and it is checked apart in Fractions
    bounds = _shell_box(extent, shift, k)
    try:
        want = shell_reference(bounds, seed)
    except MeshError as exc:
        with pytest.raises(MeshError, match=str(exc)):
            TetMesh(bounds, seed)
        return
    m = TetMesh(bounds, seed)
    assert (m.tets, m.neigh, m.circum) == want
    corners = m.points
    assert len(corners) == SHELL
    for t in m.alive_tets():
        quad = m.tets[t]
        pts = [corners[v] for v in quad]
        assert rational_orient3d(*pts) == 1, quad
        for v in range(SHELL):
            if v not in quad:
                assert rational_insphere(*pts, corners[v]) <= 0, (quad, v)
        for i in range(4):
            if m.neigh[t][i] != -1:
                continue
            facet = [quad[j] for j in _FACES[i]]
            for v in range(SHELL):
                if v not in facet:
                    assert rational_orient3d(
                        *(corners[f] for f in facet), corners[v]) == 1, (
                        facet, v)
    _assert_involution(m)


@pytest.mark.parametrize("at", [1e4, 1e6])
def test_a_unit_box_far_from_the_origin_raises_degenerate_shell(at):
    # the jitter (1e-12 diag) falls below a float step there and four
    # corners of a box face come out exactly coplanar.  This pins today's
    # typed error, not a goal: ROADMAP item 11 meshes in a shifted local
    # frame, where these boxes build their shell
    with pytest.raises(MeshError, match="degenerate shell corners"):
        TetMesh(((at,) * 3, (at + 1,) * 3))


def test_a_unit_box_at_1e3_builds_the_shell():
    assert len(TetMesh(((1e3,) * 3, (1e3 + 1,) * 3)).tets) == 10


def test_random_insertions_match_bruteforce():
    rng = np.random.default_rng(42)
    m = TetMesh(UNIT, seed=7)
    for p in rng.uniform(0, 1, (60, 3)):
        m.insert_point(tuple(p))
    _assert_involution(m)
    assert kernel_tets(m, ghost=True) == full_oracle(m)


def _mesh_state(m):
    # the fourth item lists the dead tet slots, whose ids are never reused
    return (list(m.tets), [None if n is None else list(n) for n in m.neigh],
            list(m.circum), [t for t, q in enumerate(m.tets) if q is None],
            m._last_tet)


def test_insert_remove_roundtrip_restores_state():
    rng = np.random.default_rng(1)
    m = TetMesh(UNIT, seed=2)
    for p in rng.uniform(0, 1, (20, 3)):
        m.insert_point(tuple(p))
    before = _mesh_state(m)
    rec = m.insert_point((0.41, 0.52, 0.63))
    m.remove_point(rec)
    assert _mesh_state(m) == before
    assert not m.meta[rec.vid].alive
    # the dead vertex keeps its id: the next insertion takes the one after
    assert m.insert_point((0.3, 0.3, 0.3)).vid == rec.vid + 1


def test_star_queries_find_every_incident_tet():
    # edge_exists against the live tets that hold both vertices, also
    # after an undo, which leaves a dead vertex behind
    rng = np.random.default_rng(5)
    m = TetMesh(UNIT, seed=6)
    for p in rng.uniform(0, 1, (60, 3)):
        m.insert_point(tuple(p))
    rec = m.insert_point((0.47, 0.51, 0.53))
    m.remove_point(rec)
    live = [v for v in range(len(m.points)) if m.meta[v].alive]
    assert len(live) == len(m.points) - 1
    assert not any(m.edge_exists(rec.vid, v) for v in live)
    for u, w in rng.choice(live, (200, 2)):
        u, w = int(u), int(w)
        if u != w:
            assert m.edge_exists(u, w) == bool(holders(m, u, w)), (u, w)


@pytest.mark.parametrize("model, h", [(wedge, 0.35),
                                      (lambda: icosphere(2), 0.4)],
                         ids=["wedge", "icosphere2"])
def test_edge_rings_of_refined_meshes(model, h):
    # from every tet on an interior edge, the ring is every tet on it,
    # each the neighbour of the one before it; a hull edge raises from
    # every tet on it
    m = refine(model(), RefineConfig(sizing=SizingField(h0=h), seed=0)).mesh
    on_edge, hull = {}, set()
    for t in m.alive_tets():
        quad = m.tets[t]
        for e in combinations(sorted(quad), 2):
            on_edge.setdefault(e, set()).add(t)
        for i in range(4):
            if m.neigh[t][i] == -1:
                hull.update(combinations(sorted(quad[k] for k in _FACES[i]),
                                         2))
    assert hull and all(w < 8 for _u, w in hull)
    for (u, w), tets in on_edge.items():
        for t0 in tets:
            if (u, w) in hull:
                with pytest.raises(MeshError, match="hull"):
                    m.edge_ring(u, w, t0)
                continue
            ring = m.edge_ring(u, w, t0)
            assert ring[0] == t0 and len(ring) == len(tets), (u, w)
            assert set(ring) == tets, (u, w)
            assert all(b in m.neigh[a]
                       for a, b in zip(ring, ring[1:] + ring[:1])), (u, w)


def test_remove_back_to_single_star():
    m = TetMesh(UNIT, seed=5)
    for p in [(0.2, 0.2, 0.2), (0.8, 0.2, 0.3), (0.5, 0.8, 0.25),
              (0.5, 0.4, 0.9)]:
        m.insert_point(p)
    rec = m.insert_point((0.5, 0.4, 0.4))
    assert len(kernel_tets(m)) == 4
    m.remove_point(rec)
    assert len(kernel_tets(m)) == 1


def test_only_the_latest_insertion_can_be_undone():
    m = TetMesh(UNIT, seed=1)
    first = m.insert_point((0.2, 0.3, 0.4))
    latest = m.insert_point((0.6, 0.5, 0.4))
    with pytest.raises(MeshError):
        m.remove_point(first)
    dup = m.insert_point((0.6, 0.5, 0.4))
    assert dup.duplicate
    with pytest.raises(MeshError):
        m.remove_point(dup)
    m.remove_point(latest)
    with pytest.raises(MeshError):
        m.remove_point(latest)


def test_randomized_insert_remove_sequences_stay_delaunay():
    rng = np.random.default_rng(2024)
    m = TetMesh(UNIT, seed=11)
    ops = 0
    undone = 0
    while ops < 120:
        rec = m.insert_point(tuple(rng.uniform(0, 1, 3)))
        if not rec.duplicate and rng.random() < 0.35:
            m.remove_point(rec)
            undone += 1
        ops += 1
        _assert_involution(m)
        if ops % 30 == 0:
            assert kernel_tets(m, ghost=True) == full_oracle(m)
    assert undone > 30


def test_orientation_always_positive():
    # every stored quad is its sorted key, the last two swapped exactly
    # when sorting it is an odd permutation, and exactly positive: on
    # random points, and on the unjittered lattice, whose cells' corners
    # tie, so the strict cavity rule keeps the cospherical tets outside
    rng = np.random.default_rng(3)
    m = TetMesh(UNIT, seed=4)
    for p in rng.uniform(0, 1, (40, 3)):
        m.insert_point(tuple(p))
    for mesh in (m, _lattice_mesh()):
        for t in mesh.alive_tets():
            quad = mesh.tets[t]
            w, x, y, z = sorted(quad)
            odd = sum(a > b for a, b in combinations(quad, 2)) % 2
            assert quad == ((w, x, z, y) if odd else (w, x, y, z))
            assert orient3d_exact(*(mesh.points[v] for v in quad)) > 0


@pytest.mark.parametrize("name", ["crease", "sphere", "dense_surface"])
def test_every_allocated_tet_is_stored_in_its_exact_canonical_form(
        name, monkeypatch):
    # every tet the first benchmark mesh allocates, shell and created: the
    # stored quad is the sorted quad, its last two swapped exactly when the
    # sorted quad is negatively oriented, and no quad is flat
    wl = _workloads()
    workload = wl.WORKLOADS[name]
    made = []
    alloc = TetMesh._alloc_tet

    def recording(self, quad):
        t = alloc(self, quad)
        made.append((self.points, tuple(quad), self.tets[t]))
        return t

    monkeypatch.setattr(TetMesh, "_alloc_tet", recording)
    result = refine(wl.build_input(workload),
                    wl.make_config(workload.h, 0))
    assert result.status == "converged" and len(made) > 500
    for points, quad, stored in made:
        key = sorted(quad)
        o = orient3d_exact(*(points[v] for v in key))
        assert o != 0, quad
        if o < 0:
            key[2], key[3] = key[3], key[2]
        assert stored == tuple(key), quad


def test_probe_cavity_holds_exactly_the_conflicting_tets():
    from pscmesh.predicates import insphere
    m = TetMesh(UNIT, seed=9)
    rng = np.random.default_rng(4)
    for p in rng.uniform(0, 1, (30, 3)):
        probe = m.probe_insert(tuple(p))
        pj, cav, boundary, _dup = probe
        assert all(insphere(*m.tet_points(t), pj) > 0 for t in cav)
        assert all(n == -1 or insphere(*m.tet_points(n), pj) <= 0
                   for _face, n in boundary)
        m.insert_point(tuple(p), probe=probe)


def test_insert_with_an_unpaired_facet_raises():
    # a cavity boundary with one facet missing leaves the new tets on that
    # facet's edges without a partner across their side facets
    m = TetMesh(UNIT, seed=16)
    rng = np.random.default_rng(8)
    for p in rng.uniform(0, 1, (10, 3)):
        m.insert_point(tuple(p))
    before = _mesh_state(m)
    pj, cav, boundary, dup = m.probe_insert((0.5, 0.5, 0.5))
    assert dup is None and len(boundary) > 4
    with pytest.raises(MeshError, match="unpaired internal facet"):
        m.insert_point(None, probe=(pj, cav, boundary[1:], dup))
    # the failed carve is rolled back: the mesh is as it was, the new
    # vertex is dead and the next insertion goes through
    assert _mesh_state(m) == before
    _assert_involution(m)
    assert not m.meta[-1].alive
    rec = m.insert_point((0.3, 0.3, 0.3))
    assert not rec.duplicate and rec.created
    _assert_involution(m)


def _random_mesh(seed, n):
    m = TetMesh(UNIT, seed=seed)
    for p in np.random.default_rng(seed).uniform(0, 1, (n, 3)):
        m.insert_point(tuple(p))
    return m


# ----------------------------------------------------------------------
# point location


def _locate_queries(m, rng):
    """Random points inside the shell, every live vertex, and every edge
    midpoint and facet centroid of the live tets but those of the shell
    corners alone, which rounding can put outside the shell."""
    quads = [m.tets[t] for t in m.alive_tets()]
    edges = {e for q in quads for e in combinations(sorted(q), 2)
             if e[-1] >= SHELL}
    facets = {f for q in quads for f in combinations(sorted(q), 3)
              if f[-1] >= SHELL}
    pts = m.points
    lo, hi = np.asarray(m.box_lo), np.asarray(m.box_hi)
    mid, half = (lo + hi) / 2.0, 0.45 * (hi - lo)
    return ([tuple(p) for p in rng.uniform(mid - half, mid + half, (40, 3))]
            + [pts[v] for v in range(len(pts)) if m.meta[v].alive]
            + [tuple((pts[u][i] + pts[w][i]) / 2.0 for i in range(3))
               for u, w in sorted(edges)]
            + [tuple(sum(pts[v][i] for v in f) / 3.0 for i in range(3))
               for f in sorted(facets)])


def _lattice_mesh():
    _geom, bounds, points = lattice_case()
    m = TetMesh(bounds, seed=2)
    m.jitter_scale = 0.0  # exact ties: each cell's corners are cospherical
    for p in points:
        m.insert_point(p)
    return m


@pytest.mark.parametrize("seed", [0, 1, 2, "lattice"])
def test_locate_returns_a_live_tet_whose_closure_holds_the_point(seed):
    m = _lattice_mesh() if seed == "lattice" else _random_mesh(seed, 50)
    rng = np.random.default_rng(5)
    live = sorted(m.alive_tets())
    for p in _locate_queries(m, rng):
        m._last_tet = int(rng.choice(live))  # walk from anywhere
        quad = m.tets[m.locate(p)]
        assert quad is not None
        for f in _FACES:
            assert rational_orient3d(*(m.points[quad[i]] for i in f), p) >= 0


def test_a_walk_that_does_not_end_raises():
    # a neighbour slot pointing back at its own tet makes the walk cycle,
    # as only a mesh that is not Delaunay can; no scan hides it
    m = _random_mesh(0, 30)
    t = m._last_tet
    quad = m.tets[t]
    far = next(u for u in m.alive_tets() if not set(m.tets[u]) & set(quad))
    p = tuple(sum(x) / 4.0 for x in zip(*m.tet_points(far)))
    i = next(i for i, f in enumerate(_FACES)
             if rational_orient3d(*(m.points[quad[j]] for j in f), p) < 0)
    m.neigh[t][i] = t
    with pytest.raises(MeshError, match="point location did not end"):
        m.locate(p)


# ----------------------------------------------------------------------
# circumcentres and Voronoi duals


def test_circumsphere_unit_right_tet():
    c, r2 = circumsphere_tet((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert np.allclose(c, (0.5, 0.5, 0.5), atol=1e-12)
    assert abs(r2 - 0.75) < 1e-12


def test_circumsphere_regular_tet_is_centroid():
    pts = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    c, _r2 = circumsphere_tet(*pts)
    assert np.allclose(c, (0, 0, 0), atol=1e-12)


def test_circumsphere_equidistance_randomized():
    rng = np.random.default_rng(12)
    for _ in range(300):
        pts = rng.uniform(-1, 1, (4, 3))
        c, r2 = circumsphere_tet(*(tuple(p) for p in pts))
        r = math.sqrt(r2)
        for p in pts:
            assert abs(math.dist(c, p) - r) <= 1e-9 * max(r, 1.0)


_COORD = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_POINT = st.tuples(_COORD, _COORD, _COORD)


@st.composite
def ill_conditioned_tets(draw):
    """Four points whose circumradius exceeds 1e6 shortest edges: a fat
    triangle abc plus d, either about 1e-9 from a (one short edge) or
    within 1e-12 of the plane of abc, inside the triangle (so far from
    cocircular: the centre lies more than 1e7 away)."""
    a, b, c = draw(_POINT), draw(_POINT), draw(_POINT)
    e1 = np.subtract(b, a)
    e2 = np.subtract(c, a)
    n = np.cross(e1, e2)
    assume(min(np.linalg.norm(e1), np.linalg.norm(e2),
               math.dist(b, c)) >= 0.2)
    assume(np.linalg.norm(n) >= 0.05)
    if draw(st.booleans()):
        off = draw(_POINT)
        d = tuple(a[i] + 1e-9 * off[i] for i in range(3))
    else:
        s = draw(st.floats(0.1, 0.45))
        t = draw(st.floats(0.1, 0.45))
        h = draw(st.floats(-1e-12, 1e-12))
        n = n / np.linalg.norm(n)
        d = tuple(float(a[i] + s * e1[i] + t * e2[i] + h * n[i])
                  for i in range(3))
    return a, b, c, d


_UNDERFLOW = ((0.0, 0.0, 0.0), (1e-170, 0.0, 0.0), (0.0, 1.0, 0.0),
              (0.0, 0.0, 1e-170))


@settings(max_examples=300, deadline=None)
@given(ill_conditioned_tets(), st.integers(-60, 60))
@example(_UNDERFLOW, 0)
@example(_UNDERFLOW, -40)
@example(_UNDERFLOW, 40)
@example(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
          (0.5, 0.5, 1e-9)), 0)
@example(((0.2, 0.2, 0.2), (0.2, 0.1, 0.2), (0.1, 0.2, 0.2),
          (0.2 + 3e-9, 0.2 + 2e-9, 0.2 + 1e-9)), 0)
def test_ill_conditioned_circumsphere_is_the_rounded_exact_one(pts, k):
    # where the float solve is ill-conditioned, the centre and the squared
    # radius are the exact ones, each correctly rounded, at every
    # power-of-two scale.  The underflow tet's float determinant is 0
    # although its exact one is not; an exactly coplanar draw gives the
    # centroid
    pts = [tuple(math.ldexp(x, k) for x in p) for p in pts]
    centre, r2 = circumsphere_tet(*pts)
    ball = rational_circumball(*pts)
    if ball is None:
        assert r2 == math.inf
        assert centre == tuple(sum(p[i] for p in pts) / 4.0 for i in range(3))
        return
    want_centre, want_r2 = ball
    min_e2 = min(math.dist(p, q) ** 2 for p, q in combinations(pts, 2))
    assert _rounded(want_r2) > 1e12 * min_e2  # the float solve stands down
    assert centre == tuple(_rounded(x) for x in want_centre)
    assert r2 == _rounded(want_r2)


def _rounded(x):
    """float(x) for a Fraction, saturating to +-inf past the doubles."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def test_voronoi_edges_orthogonal_to_facets():
    m = TetMesh(UNIT, seed=8)
    rng = np.random.default_rng(7)
    for p in rng.uniform(0, 1, (40, 3)):
        m.insert_point(tuple(p))
    from pscmesh.delaunay import _FACES
    for t in m.alive_tets():
        quad = m.tets[t]
        for i in range(4):
            n = m.neigh[t][i]
            if n == -1:
                continue
            # the dual edge classify_facet intersects with the surface
            p1 = m.circum[t][0]
            p2 = m.circum[n][0]
            seg = np.subtract(p2, p1)
            f = _FACES[i]
            for (x, y) in ((f[0], f[1]), (f[0], f[2])):
                e = np.subtract(m.points[quad[y]], m.points[quad[x]])
                # in-plane component of the dual segment stays at noise level
                assert abs(np.dot(seg, e)) <= 1e-9 * np.linalg.norm(e) \
                    * max(1.0, np.linalg.norm(seg))


def dual_face(m, u, w):
    # the dual polygon of edge (u, w) as restricted._face_crossings builds
    # it: the circumcentres of the ring of tets around the edge, in order
    return [m.circum[t][0] for t in m.edge_ring(u, w, holder(m, u, w))]


def test_voronoi_face_pentagon_ring():
    # five points around the z axis plus the axis pair: the axis edge has a
    # pentagonal dual face orthogonal to it
    m = TetMesh(((-1, -1, -1), (1, 1, 1)), seed=10)
    ring_angles = [0.1, 1.4, 2.6, 3.9, 5.2]
    for a in ring_angles:
        m.insert_point((0.7 * math.cos(a), 0.7 * math.sin(a), 0.01 * a))
    ra = m.insert_point((0.0, 0.0, -0.6))
    rb = m.insert_point((0.0, 0.0, 0.6))
    polygon = dual_face(m, ra.vid, rb.vid)
    assert len(polygon) == 5
    axis = np.subtract(m.points[rb.vid], m.points[ra.vid])
    axis = axis / np.linalg.norm(axis)
    poly = np.asarray(polygon)
    spread = poly - poly.mean(axis=0)
    assert np.abs(spread @ axis).max() <= 1e-9


def test_voronoi_face_normals_parallel_to_edges():
    m = TetMesh(UNIT, seed=12)
    rng = np.random.default_rng(13)
    for p in rng.uniform(0, 1, (30, 3)):
        m.insert_point(tuple(p))
    seen = set()
    for t in m.alive_tets():
        quad = m.tets[t]
        for a in range(4):
            for b in range(a + 1, 4):
                u, w = sorted((quad[a], quad[b]))
                if (u, w) in seen or w < 8:
                    continue
                seen.add((u, w))
                if u < 8:
                    continue
                polygon = dual_face(m, u, w)
                if len(polygon) < 3:
                    continue
                d = np.subtract(m.points[w], m.points[u])
                d = d / np.linalg.norm(d)
                poly = np.asarray(polygon)
                spread = poly - poly.mean(axis=0)
                assert np.abs(spread @ d).max() <= 1e-9 * max(
                    1.0, np.abs(spread).max())


def test_voronoi_face_hull_edge_marked_unbounded():
    m = TetMesh(UNIT, seed=14)
    m.insert_point((0.5, 0.5, 0.5))
    # a box edge: two shell corners differing in one coordinate.  Its
    # ring is open, so its dual face is unbounded and the walk raises
    with pytest.raises(MeshError, match=r"edge \(0, 1\) lies on the hull"):
        dual_face(m, 0, 1)


def test_nearest_vertex():
    m = TetMesh(UNIT, seed=15)
    rng = np.random.default_rng(21)
    pts = rng.uniform(0, 1, (50, 3))
    vids = [m.insert_point(tuple(p)).vid for p in pts]
    for q in rng.uniform(0, 1, (100, 3)):
        got = m.nearest_vertex(tuple(q))
        best = min(range(len(m.points)),
                   key=lambda v: math.dist(m.points[v], q))
        assert math.dist(m.points[got], q) <= math.dist(m.points[best], q) + 1e-15


def test_nearest_vertex_never_returns_an_undone_vertex():
    # remove_point keeps the undone vertex in points, marked dead
    m = TetMesh(UNIT, seed=17)
    rng = np.random.default_rng(22)
    for p in rng.uniform(0, 1, (20, 3)):
        m.insert_point(tuple(p))
    rec = m.insert_point((0.45, 0.55, 0.5))
    m.remove_point(rec)
    got = m.nearest_vertex(m.points[rec.vid])
    assert got != rec.vid and m.meta[got].alive
    live = [v for v in range(len(m.points)) if m.meta[v].alive]
    assert got == min(live, key=lambda v: math.dist(m.points[v],
                                                    m.points[rec.vid]))


def test_triangle_circumcentre():
    c, r2 = circumcentre_triangle((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert np.allclose(c, (0.5, 0.5, 0.0), atol=1e-14)
    assert abs(r2 - 0.5) < 1e-14
