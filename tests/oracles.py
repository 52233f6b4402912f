"""Independent reference computations used to check the package.

Everything here is written from first principles and deliberately avoids
the library's own code paths: exact rational arithmetic for predicate
signs, literal all-pairs enumeration for the Delaunay property and the
intersection queries, generalized winding numbers for volume
membership and the triangles that a symbolically shifted segment
crosses (``crossings_reference``, whose parity is ``parity_reference``).
``holders`` finds the tets on a set of vertices by a scan of the live
tets, and ``adjacency_errors`` checks every neighbour slot of the live
tets against the facets the tets hold.  The exceptions are differential
references that run an older or unfiltered rule on the mesh's own queries:
``shell_reference`` (the bounding shell decided by the filtered
predicates, one call at a time),
``face_crossings_reference`` (curve-edge classification),
``containing_ball_scan`` (encroachment over every ball) and
``cavity_locks_ring_walk`` (collar locks by walking edge rings) and
``cavity_change_reference`` (an insertion's killed and kept faces from the
faces of the killed and created tets), ``umbrella_reference`` (the 2-disk
test by a search over the orderings of a fan), and those that keep the
input layer's earlier loops: ``box_tree_reference`` (the recursive
median-split build), ``box_tree_lexsort_reference`` (the level-wise build
with one float lexsort per level), ``query_box_reference`` (the box query
that returned whole leaves), ``validate_reference`` (the record by record
input checks), ``curve_census_reference`` (the curve incidence, feature
vertices and embedded curves by the numpy passes the constructor once
ran), ``parse_lines_reference`` (the line by line parser),
``initial_sampling_reference`` (the greedy seed pick by brute force),
``report_reference`` (the quality report by one scalar call per triangle,
tet and edge, by ``triangle_angles_scalar`` and ``dihedral_angles_scalar``)
and ``radius_edge_reference``, ``area_length_reference`` and
``volume_length_reference`` (a record's radius-edge ratio and shape
measure, one element at a time, as the classifiers computed them before
their shape kernels), and ``function_table_reference`` (the line trace's
table of functions, compiled from the source file as the trace once read
it).
"""

import inspect
import math
import types
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

# the one copy, which the hard-input corpus of tools/ rotates its inputs by
from hard_corpus import random_rotation  # noqa: F401


# ----------------------------------------------------------------------
# exact rational predicates


def _frac(p):
    return [Fraction(float(x)) for x in p]


def rational_volume(a, b, c, d):
    """det[b - a, c - a, d - a], exactly, as a Fraction."""
    a, b, c, d = _frac(a), _frac(b), _frac(c), _frac(d)
    u = [b[i] - a[i] for i in range(3)]
    v = [c[i] - a[i] for i in range(3)]
    w = [d[i] - a[i] for i in range(3)]
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def rational_orient3d(a, b, c, d):
    det = rational_volume(a, b, c, d)
    return (det > 0) - (det < 0)


def rational_circumball(a, b, c, d):
    """Exact circumcentre and squared radius, or None when coplanar."""
    a, b, c, d = _frac(a), _frac(b), _frac(c), _frac(d)
    rows = []
    rhs = []
    for p in (b, c, d):
        rows.append([2 * (p[i] - a[i]) for i in range(3)])
        rhs.append(sum(p[i] * p[i] for i in range(3))
                   - sum(a[i] * a[i] for i in range(3)))

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    den = det3(rows)
    if den == 0:
        return None
    centre = []
    for col in range(3):
        m = [row[:] for row in rows]
        for r in range(3):
            m[r][col] = rhs[r]
        centre.append(det3(m) / den)
    r2 = sum((centre[i] - a[i]) ** 2 for i in range(3))
    return centre, r2


def rational_insphere(a, b, c, d, e):
    """+1 inside / -1 outside / 0 on, via the exact circumball."""
    ball = rational_circumball(a, b, c, d)
    if ball is None:
        raise ValueError("coplanar tetrahedron")
    centre, r2 = ball
    ef = _frac(e)
    d2 = sum((ef[i] - centre[i]) ** 2 for i in range(3))
    return (r2 > d2) - (r2 < d2)


# ----------------------------------------------------------------------
# all-quadruple Delaunay enumeration


def brute_force_delaunay(points, chunk=60000):
    """Every vertex quadruple with positive volume and an empty open
    circumball; floating-point evaluation with exact rational fallback for
    margins too close to call."""
    P = np.asarray(points, dtype=np.float64)
    n = len(P)
    norms = (P * P).sum(axis=1)
    scale = float(norms.max()) + 1.0
    tol = 1e-10 * scale
    out = set()
    if n < 4:
        return out
    triples = np.array(list(combinations(range(n), 3)), dtype=np.int64)
    first = triples[:, 0]
    rows_idx = np.arange(n)
    for i in range(n - 3):
        sel = triples[np.searchsorted(first, i + 1):]
        for s in range(0, len(sel), chunk):
            tri = sel[s:s + chunk]
            m = len(tri)
            quads = np.empty((m, 4), dtype=np.int64)
            quads[:, 0] = i
            quads[:, 1:] = tri
            A = 2.0 * (P[quads[:, 1:]] - P[quads[:, 0], None, :])
            bvec = norms[quads[:, 1:]] - norms[quads[:, 0], None]
            det = np.linalg.det(A)
            rn = np.sqrt((A * A).sum(axis=2)).prod(axis=1)
            okrow = np.abs(det) > 1e-9 * rn
            hard = np.nonzero(~okrow)[0]
            for h in hard:
                _exact_quad(P, quads[h], out)
            idx = np.nonzero(okrow)[0]
            if not len(idx):
                continue
            centres = np.linalg.solve(A[idx], bvec[idx][..., None])[..., 0]
            r2 = ((centres - P[quads[idx, 0]]) ** 2).sum(axis=1)
            M = centres @ (-2.0 * P.T)
            M += norms[None, :]
            M += ((centres * centres).sum(axis=1) - r2)[:, None]
            M[np.arange(len(idx))[:, None], quads[idx]] = np.inf
            mn = M.min(axis=1)
            empty = mn > tol
            for k in np.nonzero(empty)[0]:
                out.add(tuple(quads[idx[k]]))
            close = np.nonzero(np.abs(mn) <= tol)[0]
            for k in close:
                q = quads[idx[k]]
                suspects = rows_idx[np.abs(M[k]) <= tol]
                if _exact_empty(P, q, suspects):
                    out.add(tuple(q))
    return out


def _exact_quad(P, quad, out):
    pts = [tuple(P[x]) for x in quad]
    if rational_orient3d(*pts) == 0:
        return
    ball = rational_circumball(*pts)
    centre, r2 = ball
    for j in range(len(P)):
        if j in quad:
            continue
        pf = _frac(P[j])
        d2 = sum((pf[i] - centre[i]) ** 2 for i in range(3))
        if d2 < r2:
            return
    out.add(tuple(quad))


def _exact_empty(P, quad, suspects):
    pts = [tuple(P[x]) for x in quad]
    ball = rational_circumball(*pts)
    if ball is None:
        return False
    centre, r2 = ball
    for j in suspects:
        if j in quad:
            continue
        pf = _frac(P[j])
        d2 = sum((pf[i] - centre[i]) ** 2 for i in range(3))
        if d2 < r2:
            return False
    return True


# ----------------------------------------------------------------------
# generalized winding number


def winding_numbers(query_points, vertices, triangles):
    """Sum of signed solid angles over the triangle soup, over 4*pi."""
    V = np.asarray(vertices, dtype=np.float64)
    T = np.asarray([t[:3] for t in triangles], dtype=np.intp)
    Q = np.atleast_2d(np.asarray(query_points, dtype=np.float64))
    out = np.empty(len(Q))
    for qi, q in enumerate(Q):
        a = V[T[:, 0]] - q
        b = V[T[:, 1]] - q
        c = V[T[:, 2]] - q
        la = np.linalg.norm(a, axis=1)
        lb = np.linalg.norm(b, axis=1)
        lc = np.linalg.norm(c, axis=1)
        det = np.einsum("ij,ij->i", a, np.cross(b, c))
        den = (la * lb * lc + np.einsum("ij,ij->i", a, b) * lc
               + np.einsum("ij,ij->i", b, c) * la
               + np.einsum("ij,ij->i", c, a) * lb)
        out[qi] = np.arctan2(det, den).sum() / (2.0 * math.pi)
    return out


# ----------------------------------------------------------------------
# exhaustive intersection references


def plane_of_polygon(poly):
    """Best-fit plane (unit normal, offset) via the covariance method."""
    P = np.asarray(poly, dtype=np.float64)
    centroid = P.mean(axis=0)
    _u, _s, vh = np.linalg.svd(P - centroid)
    n = vh[2]
    return n, float(n @ centroid)


def polygon_curve_hits(poly, vertices, segments, eps=1e-12):
    """All transversal polygon/segment crossings by direct enumeration."""
    n, off = plane_of_polygon(poly)
    P = np.asarray(poly, dtype=np.float64)
    centroid = P.mean(axis=0)
    hits = []
    for (i, j, cid) in segments:
        a = np.asarray(vertices[i], dtype=np.float64)
        b = np.asarray(vertices[j], dtype=np.float64)
        da = float(n @ a) - off
        db = float(n @ b) - off
        if da == db:
            continue
        t = -da / (db - da)
        if t < -1e-12 or t > 1 + 1e-12:
            continue
        x = a + min(max(t, 0.0), 1.0) * (b - a)
        # interior test by angle sum around the loop
        total = 0.0
        for k in range(len(P)):
            u = P[k] - x
            v = P[(k + 1) % len(P)] - x
            lu = np.linalg.norm(u)
            lv = np.linalg.norm(v)
            if lu <= eps or lv <= eps:
                total = 2.0 * math.pi
                break
            total += math.atan2(np.linalg.norm(np.cross(u, v)),
                                float(u @ v))
        if total >= 2.0 * math.pi - 1e-6:
            hits.append((tuple(x), cid))
    return hits


def adjacency_errors(mesh):
    """The (tet, slot) pairs of the live tets whose neighbour is wrong.

    Slot i of t faces the facet opposite ``tets[t][i]``.  Its neighbour n
    is a live tet that points back at t from exactly one slot and holds
    exactly that facet opposite that slot; only a hull facet (three shell
    corners on one box face, i.e. sharing a bit of their corner index)
    faces nothing (-1).
    """
    bad = []
    for t, quad in enumerate(mesh.tets):
        if quad is None:
            continue
        for i, n in enumerate(mesh.neigh[t]):
            facet = set(quad) - {quad[i]}
            if n == -1:
                ok = (all(v < 8 for v in facet)
                      and any(len({v >> k & 1 for v in facet}) == 1
                              for k in range(3)))
            else:
                nquad = mesh.tets[n] if 0 <= n < len(mesh.tets) else None
                back = [j for j in range(4)
                        if nquad is not None and mesh.neigh[n][j] == t]
                ok = (len(back) == 1 and set(nquad) & set(quad) == facet
                      and set(nquad) - {nquad[back[0]]} == facet)
            if not ok:
                bad.append((t, i))
    return bad


def holders(mesh, *vertices):
    """The live tets that have every one of ``vertices`` as a corner, by a
    scan of the live tets: the tets an edge or star query should find."""
    return {t for t in mesh.alive_tets()
            if all(v in mesh.tets[t] for v in vertices)}


def holder(mesh, *vertices):
    """The lowest-id tet of ``holders``: a start for an edge query from a
    test that holds no tet, as refinement holds one of its cavity."""
    return min(holders(mesh, *vertices))


def shell_reference(bounds, seed):
    """``TetMesh(bounds, seed)``'s bounding shell as ``(tets, neigh,
    circum)``, its brute-force loop over the 70 corner quads deciding
    every sign by the filtered ``orient3d`` and ``insphere``, each call
    scaling its own coordinates: the loop as it ran before the shell was
    decided on corners scaled once, kept verbatim."""
    from pscmesh.delaunay import SHELL, TetMesh, VertexMeta
    from pscmesh.errors import MeshError
    from pscmesh.predicates import insphere, orient3d

    class FilteredShell(TetMesh):
        def _init_shell(self):
            lo = self.box_lo
            hi = self.box_hi
            corners = [(x, y, z) for x in (lo[0], hi[0])
                       for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
            for i, c in enumerate(corners):
                self.points.append(self._jitter(c, i))
                self.meta.append(VertexMeta("shell"))
            quads = []
            for quad in combinations(range(SHELL), 4):
                pa, pb, pc, pd = (self.points[q] for q in quad)
                o = orient3d(pa, pb, pc, pd)
                if o == 0:
                    raise MeshError("degenerate shell corners")
                others = [q for q in range(SHELL) if q not in quad]
                tup = quad if o > 0 else (quad[0], quad[1], quad[3], quad[2])
                pts = [self.points[q] for q in tup]
                if all(insphere(*pts, self.points[q]) <= 0 for q in others):
                    quads.append(tup)
            for t, i in self._glue([self._alloc_tet(tup) for tup in quads]):
                self.neigh[t][i] = -1
            self._last_tet = 0

    mesh = FilteredShell(bounds, seed)
    return mesh.tets, mesh.neigh, mesh.circum


def face_crossings_reference(mesh, geom, u, w, t0, nearest_among):
    """Crossings of the dual face of mesh edge (u, w), its ring walked
    from the tet t0, with the curve network, [(point, curve_id), ...],
    with every bisector-plane candidate
    confirmed by ``nearest_among`` (``nearest_among_reference``: a scan of
    every live vertex, ties going to the edge) and none rejected
    beforehand.

    Apart from the confirmation, this is the classification before the
    star test, kept verbatim (same candidates, same float expressions) so
    that the production path must agree with it bit for bit.
    """
    ring = mesh.edge_ring(u, w, t0)
    pu = mesh.points[u]
    pw = mesh.points[w]
    poly = [mesh.circum[t][0] for t in ring]
    pad = geom.eps
    lo = (min(p[0] for p in poly) - pad, min(p[1] for p in poly) - pad,
          min(p[2] for p in poly) - pad)
    hi = (max(p[0] for p in poly) + pad, max(p[1] for p in poly) + pad,
          max(p[2] for p in poly) + pad)
    cands = geom.seg_tree.query_box(lo, hi)
    nx = pw[0] - pu[0]
    ny = pw[1] - pu[1]
    nz = pw[2] - pu[2]
    offset = ((pu[0] + pw[0]) * nx + (pu[1] + pw[1]) * ny
              + (pu[2] + pw[2]) * nz) / 2.0
    hits = []
    for sid in sorted(cands):
        i, j, cid = geom.segments[sid]
        a = geom.pts[i]
        b = geom.pts[j]
        da = a[0] * nx + a[1] * ny + a[2] * nz - offset
        db = b[0] * nx + b[1] * ny + b[2] * nz - offset
        dn = db - da
        if abs(dn) <= 1e-300:
            continue
        t = -da / dn
        if t < -1e-12 or t > 1.0 + 1e-12:
            continue
        t = min(max(t, 0.0), 1.0)
        y = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]),
             a[2] + t * (b[2] - a[2]))
        if nearest_among(y, (u, w)):
            hits.append((y, cid))
    return hits


def nearest_among_reference(mesh):
    """Brute-force stand-in for the star test that confirms dual hits.

    Returns f(y, own): true when some vertex of ``own`` is at least as near
    to y as every other live vertex of the mesh, by one numpy scan of all
    of ``mesh.points`` (squared distances summed in the library's order,
    so that exact float ties are seen as ties).
    """
    pts = np.asarray(mesh.points, dtype=np.float64)
    dead = ~np.array([m.alive for m in mesh.meta])

    def nearest_among(y, own):
        d = pts - np.asarray(y, dtype=np.float64)
        d2 = d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2
        d2[dead] = np.inf
        mine = d2[list(own)].min()
        d2[list(own)] = np.inf
        return bool(mine <= d2.min())

    return nearest_among


def containing_ball_scan(table, p):
    """Key of the largest surface ball in ``table`` that strictly contains
    p, of equal radii the smaller key, or None.

    One numpy scan over every ball of the restricted table, blocked ones
    included, with the squared distances summed as ``((c - p)**2).sum()``.
    """
    if not table:
        return None
    keys = list(table)
    c = np.array([table[k].centre for k in keys], dtype=np.float64)
    r = np.array([table[k].radius for k in keys], dtype=np.float64)
    inside = np.nonzero(((c - p) ** 2).sum(axis=1) < r ** 2)[0]
    if not len(inside):
        return None
    return min((-r[i], keys[i]) for i in inside)[1]


def cavity_locks_ring_walk(mesh, protected_edges, probe):
    """Whether a ``probe_insert`` cavity holds every tet of the ring around
    some protected edge, found by walking each ring from a cavity tet."""
    _pj, cav, _boundary, dup = probe
    if dup is not None:
        return False
    for a, b in protected_edges:
        start = next((t for t in cav
                      if a in mesh.tets[t] and b in mesh.tets[t]), None)
        if start is None:
            continue
        ring = mesh.edge_ring(a, b, start)
        if all(t in cav for t in ring):
            return True
    return False


def tet_faces(quads, n):
    """The sorted n-vertex faces of the tets ``quads``."""
    return {k for q in quads for k in combinations(sorted(q), n)}


def cavity_change_reference(killed_quads, created_quads):
    """What an insertion kills and keeps, derived from the tets it kills
    and creates: ``(killed, kept, dirty)``, where ``killed[d]`` are the
    d-faces (d = 1, 2, 3) of the killed tets that no created tet has,
    ``kept[d]`` those that one has, and ``dirty`` the killed tets'
    vertices, whose restricted stars the insertion can change."""
    old = [None] + [tet_faces(killed_quads, d + 1) for d in (1, 2, 3)]
    new = [None] + [tet_faces(created_quads, d + 1) for d in (1, 2, 3)]
    return ([None] + [old[d] - new[d] for d in (1, 2, 3)],
            [None] + [old[d] & new[d] for d in (1, 2, 3)],
            {v for q in killed_quads for v in q})


def _shifted_coords(p):
    """Point p translated by the infinitesimal (e, e^2, e^3): per axis, its
    coordinate as the coefficient list of a polynomial in e."""
    x, y, z = _frac(p)
    return [[x, 1], [y, 0, 1], [z, 0, 0, 1]]


def _poly_add(p, q, sign=1):
    """p + sign q, for polynomials as coefficient lists."""
    n = max(len(p), len(q))
    p = p + [0] * (n - len(p))
    q = q + [0] * (n - len(q))
    return [x + sign * y for x, y in zip(p, q)]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _limit_orient(a, b, c, d):
    """Sign of det[b - a, c - a, d - a] as e -> 0+, for points whose
    coordinates are polynomials in e: the sign of its lowest nonzero
    coefficient, 0 when it vanishes identically."""
    s = rational_orient3d(*([x[0] for x in p] for p in (a, b, c, d)))
    if s:
        return s
    u, v, w = ([_poly_add(p[i], a[i], -1) for i in range(3)]
               for p in (b, c, d))
    det = [0]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        minor = _poly_add(_poly_mul(v[j], w[k]), _poly_mul(v[k], w[j]), -1)
        det = _poly_add(det, _poly_mul(u[i], minor))
    for x in det:
        if x:
            return 1 if x > 0 else -1
    return 0


def crossings_reference(a, b, vertices, triangles):
    """Ids of the triangles that segment a-b, translated by (e, e^2, e^3)
    for an infinitely small e > 0, crosses.

    Every triangle whose bounding box meets the segment's is tested, in
    rational arithmetic on polynomials in e: a triangle is crossed when the
    shifted a and b lie strictly on opposite sides of its plane and the
    shifted line passes its three edges on one side.  As e -> 0 such a
    crossing tends to a point of both the closed segment and the closed
    triangle, so of both boxes, whose float comparisons are exact.
    """
    corners = np.asarray(vertices, dtype=np.float64)[
        np.asarray(triangles, dtype=np.int64).reshape(-1, 4)[:, :3]]
    near = ((corners.max(axis=1) >= np.minimum(a, b))
            & (corners.min(axis=1) <= np.maximum(a, b))).all(axis=1)
    a, b = _shifted_coords(a), _shifted_coords(b)
    crossed = []
    for tid in np.flatnonzero(near).tolist():
        i, j, k, _pid = triangles[tid]
        p = [[[x] for x in _frac(vertices[v])] for v in (i, j, k)]
        if _limit_orient(*p, a) == _limit_orient(*p, b):
            continue
        sides = {_limit_orient(a, b, p[q], p[(q + 1) % 3]) for q in range(3)}
        if len(sides) == 1:
            crossed.append(tid)
    return crossed


def parity_reference(a, b, vertices, triangles):
    """Whether segment a-b, shifted as in ``crossings_reference``, crosses
    the triangles an odd number of times."""
    return len(crossings_reference(a, b, vertices, triangles)) % 2 == 1


def crossing_point_reference(a, b, p0, p1, p2):
    """Where the line of segment a-b meets the plane of triangle p0 p1 p2,
    exactly, rounded to floats: a + t (b - a) for t = V(a) / (V(a) - V(b)),
    V(x) the volume of (p0, p1, p2, x).  A crossed triangle (see
    ``crossings_reference``) has V(a) != V(b), and t in [0, 1]."""
    va, vb = (rational_volume(p0, p1, p2, x) for x in (a, b))
    t = va / (va - vb)
    a, b = _frac(a), _frac(b)
    return tuple(float(a[m] + t * (b[m] - a[m])) for m in range(3))


def segment_surface_hits(a, b, vertices, triangles, eps=1e-12):
    """All segment/triangle crossings via per-triangle linear solves."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = b - a
    hits = []
    for (i, j, k, pid) in triangles:
        p0 = np.asarray(vertices[i], dtype=np.float64)
        e1 = np.asarray(vertices[j], dtype=np.float64) - p0
        e2 = np.asarray(vertices[k], dtype=np.float64) - p0
        M = np.column_stack([-d, e1, e2])
        if abs(np.linalg.det(M)) <= 1e-14 * (np.linalg.norm(d)
                                             * np.linalg.norm(e1)
                                             * np.linalg.norm(e2)):
            continue
        t, u, v = np.linalg.solve(M, a - p0)
        if -1e-10 <= u and -1e-10 <= v and u + v <= 1 + 1e-10 \
                and -1e-12 <= t <= 1 + 1e-12:
            hits.append((tuple(a + min(max(t, 0.0), 1.0) * d), pid))
    uniq = []
    for h in hits:
        if not any(max(abs(h[0][m] - g[0][m]) for m in range(3)) <= eps
                   for g in uniq):
            uniq.append(h)
    return uniq


def sphere_curve_hits(centre, radius, vertices, segments, eps=1e-12):
    """Exact-distance points on the curve network via per-segment roots."""
    c = np.asarray(centre, dtype=np.float64)
    hits = []
    for (i, j, _cid) in segments:
        p = np.asarray(vertices[i], dtype=np.float64)
        q = np.asarray(vertices[j], dtype=np.float64)
        d = q - p
        m = p - c
        coeffs = [float(d @ d), 2.0 * float(m @ d),
                  float(m @ m) - radius * radius]
        disc = coeffs[1] ** 2 - 4 * coeffs[0] * coeffs[2]
        if disc < 0:
            continue
        for t in ((-coeffs[1] - math.sqrt(disc)) / (2 * coeffs[0]),
                  (-coeffs[1] + math.sqrt(disc)) / (2 * coeffs[0])):
            if -1e-12 <= t <= 1 + 1e-12:
                hits.append(tuple(p + min(max(t, 0.0), 1.0) * d))
    uniq = []
    for h in hits:
        if not any(max(abs(h[m] - g[m]) for m in range(3)) <= eps
                   for g in uniq):
            uniq.append(h)
    return uniq


def circle_surface_hits(centre, normal, radius, vertices, triangles,
                        eps=1e-12, samples=4096):
    """Disk boundary-circle / triangle-soup crossings.

    Works by intersecting each triangle's plane with the circle's plane
    through a least-squares point and testing the two circle points; the
    formulation is deliberately different from the library's basis
    construction.
    """
    c = np.asarray(centre, dtype=np.float64)
    n1 = np.asarray(normal, dtype=np.float64)
    n1 = n1 / np.linalg.norm(n1)
    hits = []
    for (i, j, k, _pid) in triangles:
        p0 = np.asarray(vertices[i], dtype=np.float64)
        p1 = np.asarray(vertices[j], dtype=np.float64)
        p2 = np.asarray(vertices[k], dtype=np.float64)
        n2 = np.cross(p1 - p0, p2 - p0)
        ln2 = np.linalg.norm(n2)
        if ln2 == 0:
            continue
        n2 = n2 / ln2
        axis = np.cross(n1, n2)
        la = np.linalg.norm(axis)
        if la <= 1e-12:
            continue
        axis = axis / la
        # least-squares point on both planes, then circle-line pierce
        A = np.vstack([n1, n2])
        rhs = np.array([float(n1 @ c), float(n2 @ p0)])
        p_line, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        rel = p_line - c
        along = float(rel @ axis)
        perp = rel - along * axis
        rho2 = float(perp @ perp)
        if rho2 > radius * radius:
            continue
        s = math.sqrt(radius * radius - rho2)
        base = c + perp
        for sgn in (-s, s):
            x = base + sgn * axis
            v0 = p2 - p0
            v1 = p1 - p0
            v2 = x - p0
            d00 = float(v0 @ v0)
            d01 = float(v0 @ v1)
            d11 = float(v1 @ v1)
            d20 = float(v2 @ v0)
            d21 = float(v2 @ v1)
            den = d00 * d11 - d01 * d01
            if den == 0:
                continue
            uu = (d11 * d20 - d01 * d21) / den
            vv = (d00 * d21 - d01 * d20) / den
            if uu >= -1e-10 and vv >= -1e-10 and uu + vv <= 1 + 1e-10:
                hits.append(tuple(x))
    uniq = []
    for h in hits:
        if not any(max(abs(h[m] - g[m]) for m in range(3)) <= eps
                   for g in uniq):
            uniq.append(h)
    return uniq


def radius_edge_reference(r2, pts):
    """Circumradius over shortest edge from the squared circumradius r2,
    one squared distance per pair of ``pts``: the rule the classifiers ran
    per element before their shape kernels (``restricted._triangle_shape``,
    ``_tet_shape``), which keep its float operations."""
    le = min((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2
             for p, q in combinations(pts, 2))
    if le == 0.0:
        return math.inf
    return math.sqrt(r2 / le)


def circumradius_triangle(pa, pb, pc):
    """Closed form R = abc / 4A."""
    a = math.dist(pb, pc)
    b = math.dist(pa, pc)
    c = math.dist(pa, pb)
    s = 0.5 * (a + b + c)
    area2 = s * (s - a) * (s - b) * (s - c)
    if area2 <= 0:
        return math.inf
    return a * b * c / (4.0 * math.sqrt(area2))


# ----------------------------------------------------------------------
# distances to the input (audit helpers)


def distance_to_surface(geom, points):
    """Min distance from each query point to the complex's triangle soup."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tris = np.asarray([t[:3] for t in geom.triangles], dtype=np.intp)
    a = geom.vertices[tris[:, 0]]
    b = geom.vertices[tris[:, 1]]
    c = geom.vertices[tris[:, 2]]
    out = np.empty(len(pts))
    for idx, p in enumerate(pts):
        out[idx] = math.sqrt(_point_tris_d2(p, a, b, c).min())
    return out


def distance_to_curves(geom, points, curve=None):
    """Min distance from each query point to the complex's curve network,
    or to its curve of id ``curve`` alone."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    segs = np.asarray([s[:2] for s in geom.segments
                       if curve is None or s[2] == curve], dtype=np.intp)
    a = geom.vertices[segs[:, 0]]
    d = geom.vertices[segs[:, 1]] - a
    dd = (d * d).sum(axis=1)
    out = np.empty(len(pts))
    for idx, p in enumerate(pts):
        t = np.clip(((p - a) * d).sum(axis=1) / dd, 0.0, 1.0)
        q = a + t[:, None] * d
        out[idx] = math.sqrt(((q - p) ** 2).sum(axis=1).min())
    return out


def _point_tris_d2(p, a, b, c):
    # Squared point-triangle distances, vectorised over triangles
    # (Ericson's barycentric-region walk).
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = (ab * ap).sum(axis=1)
    d2 = (ac * ap).sum(axis=1)
    bp = p - b
    d3 = (ab * bp).sum(axis=1)
    d4 = (ac * bp).sum(axis=1)
    cp = p - c
    d5 = (ab * cp).sum(axis=1)
    d6 = (ac * cp).sum(axis=1)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    denom = va + vb + vc
    v = np.where(denom != 0, vb / np.where(denom == 0, 1, denom), 0.0)
    w = np.where(denom != 0, vc / np.where(denom == 0, 1, denom), 0.0)
    q = a + v[:, None] * ab + w[:, None] * ac
    # clamp to the nearest feature when outside
    t_ab = np.clip(d1 / np.where(d1 - d3 == 0, 1, d1 - d3), 0, 1)
    t_ac = np.clip(d2 / np.where(d2 - d6 == 0, 1, d2 - d6), 0, 1)
    t_bc = np.clip((d4 - d3) / np.where((d4 - d3) + (d5 - d6) == 0, 1,
                                        (d4 - d3) + (d5 - d6)), 0, 1)
    q_ab = a + t_ab[:, None] * ab
    q_ac = a + t_ac[:, None] * ac
    q_bc = b + t_bc[:, None] * (c - b)
    inside = (v >= 0) & (w >= 0) & (v + w <= 1)
    d_face = ((q - p) ** 2).sum(axis=1)
    d_edges = np.minimum(((q_ab - p) ** 2).sum(axis=1),
                         np.minimum(((q_ac - p) ** 2).sum(axis=1),
                                    ((q_bc - p) ** 2).sum(axis=1)))
    return np.where(inside, d_face, d_edges)


# ----------------------------------------------------------------------
# input layer: the recursive box tree build, its leaf-level walk and
# the input checks


def box_tree_reference(boxes, leaf_size=8, cover_boxes=512):
    """(nodes, perm, cover) of the recursive median-split tree over the
    (n, 6) ``boxes``: depth-first preorder nodes ``(lox, loy, loz, hix, hiy,
    hiz, left, right, first, count)`` (leaves have left == -1), the
    primitive permutation as Python ints, and the cover as (lo, hi), each
    (3, K): the primitive boxes up to ``cover_boxes`` of them, else the
    deepest full cut of the tree with at most ``cover_boxes`` nodes."""
    boxes = np.asarray(boxes, dtype=np.float64)
    n = len(boxes)
    nodes = []
    perm = np.arange(n)
    centres = 0.5 * (boxes[:, :3] + boxes[:, 3:]) if n else None

    def build(lo, hi):
        idx = perm[lo:hi]
        blo = boxes[idx, :3].min(axis=0)
        bhi = boxes[idx, 3:].max(axis=0)
        box = tuple(map(float, (*blo, *bhi)))
        node = len(nodes)
        nodes.append(None)
        if hi - lo <= leaf_size:
            nodes[node] = (*box, -1, -1, lo, hi - lo)
            return node
        axis = int(np.argmax(bhi - blo))
        order = np.argsort(centres[idx, axis], kind="stable")
        perm[lo:hi] = idx[order]
        mid = lo + (hi - lo) // 2
        left = build(lo, mid)
        right = build(mid, hi)
        nodes[node] = (*box, left, right, 0, 0)
        return node

    if n:
        build(0, n)
    if n <= cover_boxes:
        cover = boxes.reshape(-1, 6)
    else:
        cut = [0]
        while True:
            nxt = [c for nd in cut for c in (
                (nd,) if nodes[nd][6] < 0 else nodes[nd][6:8])]
            if len(nxt) > cover_boxes or len(nxt) == len(cut):
                break
            cut = nxt
        cover = np.array([nodes[nd][:6] for nd in cut])
    return nodes, perm.tolist(), (np.ascontiguousarray(cover[:, :3].T),
                                  np.ascontiguousarray(cover[:, 3:].T))


def box_tree_lexsort_reference(boxes, leaf_size=8):
    """(perm, walk) of ``AABBTree`` over the (n, 6) ``boxes`` as the
    level-wise build made them when each level sorted its split ranges by
    one stable ``np.lexsort((centre along the range's axis, range))``."""
    from pscmesh.aabb import _interleave
    boxes = np.asarray(boxes, dtype=np.float64)
    n = len(boxes)
    if not n:
        return [], []
    centres = 0.5 * (boxes[:, :3] + boxes[:, 3:])
    padded = np.vstack((boxes, boxes[:1]))
    perm = np.arange(n + 1)
    levels = []
    lo, hi = np.zeros(1, dtype=np.intp), np.full(1, n, dtype=np.intp)
    while True:
        ranged = padded[perm]
        bounds = _interleave(lo, hi)
        box = np.hstack((np.minimum.reduceat(ranged[:, :3], bounds),
                         np.maximum.reduceat(ranged[:, 3:], bounds)))[::2]
        split = hi - lo > leaf_size
        levels.append((lo, hi, box, split))
        if not split.any():
            break
        lo, hi, box = lo[split], hi[split], box[split]
        axis = np.argmax(box[:, 3:] - box[:, :3], axis=1)
        size = hi - lo
        rid = np.repeat(np.arange(len(lo)), size)
        pos = np.arange(len(rid)) + np.repeat(lo - np.cumsum(size) + size,
                                              size)
        ids = perm[pos]
        perm[pos] = ids[np.lexsort((centres[ids, axis[rid]], rid))]
        mid = lo + size // 2
        lo, hi = _interleave(lo, mid), _interleave(mid, hi)
    lo, hi, box, split = (np.concatenate(x) for x in zip(*levels))
    order = np.lexsort((lo - hi, lo))
    pre = np.empty_like(order)
    pre[order] = np.arange(len(order))
    left = np.full(len(pre), -1)
    right = left.copy()
    left[split], right[split] = pre[1::2], pre[2::2]
    links = np.column_stack((left, right, np.where(split, 0, lo),
                             np.where(split, 0, hi - lo)))
    box = box[order]
    ch = np.hstack((0.5 * (box[:, :3] + box[:, 3:]),
                    0.5 * (box[:, 3:] - box[:, :3])))
    walk = [tuple(b + k + c) for b, k, c in zip(
        box.tolist(), links[order].tolist(), ch.tolist())]
    return perm[:n].tolist(), walk + ranged[:n].tolist()


def tree_nodes(tree):
    """``AABBTree``'s nodes in preorder, as ``box_tree_reference`` gives
    them: the first ten fields of each node entry of ``_walk``."""
    return [e[:10] for e in tree._walk[:len(tree._walk) - tree.n]]


def query_box_reference(tree, lo, hi, pad=0.0, seg=None, plane=None,
                        ball=None):
    """The leaf-level walk of ``AABBTree.query_box`` that the per-primitive
    tests replaced, with its one ``pad``: every primitive of each leaf whose
    node box, grown by ``pad``, passes the box test and the ``seg``,
    ``plane`` and ``ball`` clips, in tree order, whether or not its own box
    passes them."""
    if not tree.n:
        return []
    qx0 = lo[0] - pad; qy0 = lo[1] - pad; qz0 = lo[2] - pad
    qx1 = hi[0] + pad; qy1 = hi[1] + pad; qz1 = hi[2] + pad
    if seg is not None:
        (px, py, pz), (qx, qy, qz) = seg
        dx, dy, dz = qx - px, qy - py, qz - pz
        ax, ay, az = abs(dx), abs(dy), abs(dz)
        rx, ry, rz = pad * (ay + az), pad * (az + ax), pad * (ax + ay)
    if plane is not None:
        o, (nx, ny, nz) = plane
        off = nx * o[0] + ny * o[1] + nz * o[2]
        anx, any_, anz = abs(nx), abs(ny), abs(nz)
        rn = pad * (anx + any_ + anz)
    if ball is not None:
        (bx, by, bz), br = ball
        rin2 = (br - pad) ** 2 if br > pad else -1.0
    out = []
    stack = [0]
    nodes = tree_nodes(tree)
    perm = tree._perm
    while stack:
        nd = nodes[stack.pop()]
        if (nd[3] < qx0 or nd[0] > qx1 or nd[4] < qy0 or
                nd[1] > qy1 or nd[5] < qz0 or nd[2] > qz1):
            continue
        if ball is not None and (max(bx - nd[0], nd[3] - bx) ** 2
                                 + max(by - nd[1], nd[4] - by) ** 2
                                 + max(bz - nd[2], nd[5] - bz) ** 2 < rin2):
            continue
        if seg is not None or plane is not None:
            # box centre c and half extents h
            cx = 0.5 * (nd[0] + nd[3])
            cy = 0.5 * (nd[1] + nd[4])
            cz = 0.5 * (nd[2] + nd[5])
            hx = 0.5 * (nd[3] - nd[0])
            hy = 0.5 * (nd[4] - nd[1])
            hz = 0.5 * (nd[5] - nd[2])
            if plane is not None and (abs(nx * cx + ny * cy + nz * cz - off)
                                      > hx * anx + hy * any_ + hz * anz + rn):
                continue
            if seg is not None:
                cx -= px
                cy -= py
                cz -= pz
                if (abs(dz * cy - dy * cz) > hy * az + hz * ay + rx or
                        abs(dx * cz - dz * cx) > hx * az + hz * ax + ry or
                        abs(dy * cx - dx * cy) > hx * ay + hy * ax + rz):
                    continue
        if nd[6] < 0:
            first, count = nd[8], nd[9]
            out.extend(perm[first:first + count])
        else:
            stack.append(nd[7])
            stack.append(nd[6])
    return out


def validate_reference(vertices, segments, triangles):
    """Raise the ``ValidationError`` that the record-by-record checks raise
    first for an (n, 3) vertex array and lists of int tuples ``(i, j,
    curve)`` and ``(i, j, k, patch)``: segments before triangles, each
    record in id order, its checks in a fixed order; then the bounding box
    diagonal, then every pair of vertices in turn."""
    from pscmesh.errors import ValidationError
    nv = len(vertices)
    seen_pairs = set()
    per_curve_degree = {}
    for sid, (i, j, cid) in enumerate(segments):
        if not (0 <= i < nv and 0 <= j < nv):
            raise ValidationError(f"segment {sid} references missing vertex")
        if i == j:
            raise ValidationError(f"segment {sid} is degenerate")
        x, y, z = (float(b) - float(a) for a, b in zip(vertices[i],
                                                       vertices[j]))
        if x * x + y * y + z * z == 0.0:
            raise ValidationError(f"segment {sid} has zero length")
        key = (min(i, j), max(i, j))
        if key in seen_pairs:
            raise ValidationError(f"duplicate segment {key}")
        seen_pairs.add(key)
        for v in (i, j):
            d = per_curve_degree.setdefault((cid, v), 0) + 1
            per_curve_degree[(cid, v)] = d
            if d > 2:
                raise ValidationError(
                    f"curve {cid} branches at vertex {v}; polylines must be simple")
    seen_tris = set()
    patch_edge_use = {}
    for tid, (i, j, k, pid) in enumerate(triangles):
        if not (0 <= i < nv and 0 <= j < nv and 0 <= k < nv):
            raise ValidationError(f"triangle {tid} references missing vertex")
        if len({i, j, k}) != 3:
            raise ValidationError(f"triangle {tid} is degenerate")
        key = tuple(sorted((i, j, k)))
        if key in seen_tris:
            raise ValidationError(f"duplicate triangle {key}")
        seen_tris.add(key)
        v = np.asarray(vertices, dtype=np.float64)[[i, j, k]]
        if np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0])) == 0.0:
            raise ValidationError(f"triangle {tid} has zero area")
        for e in ((i, j), (j, k), (i, k)):
            ekey = (pid, min(e), max(e))
            c = patch_edge_use.setdefault(ekey, 0) + 1
            patch_edge_use[ekey] = c
            if c > 2:
                raise ValidationError(
                    f"patch {pid} edge {(min(e), max(e))} used by >2 triangles")
    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    diag = (float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
            if nv else 0.0) or 1.0
    if not 1e-50 <= diag <= 1e50:
        size = ("exceeds 1e+50" if math.isinf(diag) else
                f"{diag:.3g} is outside [1e-50, 1e+50]")
        raise ValidationError(f"bounding box diagonal {size}; rescale the "
                              "input")
    # the kernel's duplicate snap (1e-11 diag) plus two jitters (1e-12 diag)
    reach = 1.2e-11 * diag
    for j in range(nv):
        for i in range(j):
            if max(abs(float(a) - float(b))
                   for a, b in zip(vertices[i], vertices[j])) <= reach:
                raise ValidationError(f"vertex {j} lies within {reach:.3g} "
                                      f"of vertex {i}; the mesh would merge "
                                      "them")


def curve_census_reference(nv, segments, triangles):
    """``(segs_at_vertex, on_curve, feature_vertices, embedded_curves,
    open_edge)`` of a valid complex with ``nv`` vertices, by the numpy
    passes of the constructor that the segment loop replaced: a stable
    argsort of the segment ends for the incidence, a comparison of each
    vertex's first two segments' curves for the features, and a
    ``searchsorted`` / ``unique`` / ``bincount`` census of the segment
    edges among the surface edges."""
    seg = np.asarray(segments, dtype=np.int64).reshape(-1, 3)
    tri = np.asarray(triangles, dtype=np.int64).reshape(-1, 4)

    def edge_key(i, j):
        return (np.minimum(i, j) + 1) * (nv + 1) + np.maximum(i, j) + 1

    def run_starts(keys):
        start = np.zeros(len(keys), dtype=bool)
        start[:1] = True
        start[1:] = keys[1:] != keys[:-1]
        return start

    # each vertex's segment ids ascending, the vertices in the order the
    # segments first reach them
    ends = seg[:, :2].ravel()
    order = np.argsort(ends, kind="stable")
    starts = np.flatnonzero(run_starts(ends[order]))
    bounds = starts.tolist() + [len(ends)]
    sids = (order // 2).tolist()
    at = ends[order[starts]].tolist()
    first = np.argsort(order[starts]).tolist()
    segs_at_vertex = {at[g]: sids[bounds[g]:bounds[g + 1]] for g in first}
    on_curve = np.zeros(nv, dtype=bool)
    on_curve[ends] = True
    degree = np.diff(bounds)
    cid = seg[:, 2]
    pair = np.minimum(starts + 1, len(ends) - 1)
    feature = (degree != 2) | (cid[order[starts] // 2]
                               != cid[order[pair] // 2])
    feature_vertices = set(at[g] for g in first if feature[g])

    e = tri[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2)
    edge_keys, edge_uses = np.unique(edge_key(e[:, 0], e[:, 1]),
                                     return_counts=True)
    seg_keys = edge_key(seg[:, 0], seg[:, 1])
    # edge keys are >= 0: the appended -1 matches no segment
    found = np.append(edge_keys, -1)[
        np.searchsorted(edge_keys, seg_keys)] == seg_keys
    curves, first_seg, inverse = np.unique(cid, return_index=True,
                                           return_inverse=True)
    whole = np.bincount(inverse, weights=~found,
                        minlength=len(curves)) == 0
    embedded_curves = set(
        curves[whole][np.argsort(first_seg[whole])].tolist())
    rim = edge_keys[edge_uses == 1]
    rim = rim[~np.isin(rim, seg_keys)][:1].tolist()
    open_edge = ((rim[0] // (nv + 1) - 1, rim[0] % (nv + 1) - 1)
                 if rim else None)
    return (segs_at_vertex, on_curve, feature_vertices, embedded_curves,
            open_edge)


def parse_lines_reference(text):
    """``geometry.parse_complex`` as the line by line loop that the
    one-pass read replaced."""
    from pscmesh.errors import ParseError
    from pscmesh.geometry import PiecewiseComplex
    verts = []
    segs = []
    tris = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 4:
                verts.append(tuple(float(x) for x in parts[1:]))
            elif parts[0] == "e" and len(parts) == 4:
                segs.append(tuple(int(x) for x in parts[1:]))
            elif parts[0] == "t" and len(parts) == 5:
                tris.append(tuple(int(x) for x in parts[1:]))
            else:
                raise ParseError(f"line {ln}: unrecognised record {parts[0]!r}")
        except ValueError as exc:
            raise ParseError(f"line {ln}: {exc}") from exc
    return PiecewiseComplex(verts, segs, tris)


def initial_sampling_reference(geom, n, forced=()):
    """``PiecewiseComplex.initial_sampling`` by brute force: the first pick
    is the pool vertex nearest the low bounding box corner, and each greedy
    pick recomputes every free stage vertex's squared distance to the
    nearest earlier pick and takes the largest, the lowest id of equals."""
    pts = [tuple(map(float, p)) for p in geom.vertices]
    nv = len(pts)

    def d2(a, b):
        dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
        return dx * dx + dy * dy + dz * dz

    if nv <= n:
        chosen = list(range(nv))
    else:
        curve = [v for v in range(nv) if geom.on_curve[v]]
        rest = [v for v in range(nv) if not geom.on_curve[v]]
        corner = tuple(map(float, geom.bounds[0]))
        # min picks the first, the lowest id, of equal distances
        chosen = [min(curve or rest, key=lambda v: d2(pts[v], corner))]
        for stage in (curve, rest):
            while len(chosen) < n:
                free = [v for v in stage if v not in chosen]
                if not free:
                    break
                gap = [min(d2(pts[v], pts[c]) for c in chosen) for v in free]
                chosen.append(free[gap.index(max(gap))])
    for v in sorted(set(geom.feature_vertices) | set(forced)):
        if v not in chosen:
            chosen.append(v)
    return chosen


# ----------------------------------------------------------------------
# topological disks


def umbrella_reference(p, tris, on_surface, gamma_edges):
    """``restricted.topo_disk_2`` by brute force: None when ``tris`` is
    empty, or when p lies on the surface and some ordering of the triangles
    chains them into one umbrella, each sharing a spoke (an edge at p) with
    the one before and no spoke visited twice, except that the last
    triangle may close the chain back onto the first spoke; an open chain
    must end on two spokes in ``gamma_edges``.  Otherwise the triangle with
    the largest (radius, key)."""
    if not tris:
        return None
    links = [tuple(q for q in f.key if q != p) for f in tris]

    def umbrella():
        for order in permutations(links):
            for chain in (list(order[0]), list(order[0][::-1])):
                for x, y in order[1:]:
                    if chain[-1] not in (x, y):
                        break
                    chain.append(y if chain[-1] == x else x)
                else:
                    if len(set(chain)) == len(chain):
                        ends = (chain[0], chain[-1])
                        if all((min(p, q), max(p, q)) in gamma_edges
                               for q in ends):
                            return True
                    elif (chain[0] == chain[-1]
                          and len(set(chain)) == len(chain) - 1):
                        return True
        return False

    if on_surface and umbrella():
        return None
    return max(tris, key=lambda f: (f.radius, f.key))


# ----------------------------------------------------------------------
# the quality report, element by element


def _sub3(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm3(a):
    return math.sqrt(_dot3(a, a))


def area_length_reference(pa, pb, pc):
    """Normalised area-length ratio ``(4/sqrt(3)) A / rms(e)^2``; 1 for
    equilateral, 0 for collinear.  The second value of
    ``restricted._triangle_shape`` keeps its float operations."""
    ab = _sub3(pb, pa)
    ac = _sub3(pc, pa)
    bc = _sub3(pc, pb)
    area = 0.5 * _norm3(_cross3(ab, ac))
    ms = (_dot3(ab, ab) + _dot3(ac, ac) + _dot3(bc, bc)) / 3.0
    if ms == 0.0:
        return 0.0
    return 4.0 / math.sqrt(3.0) * area / ms


def volume_length_reference(pa, pb, pc, pd):
    """Normalised volume-length ratio ``6 sqrt(2) V / rms(e)^3``; 1 for
    regular, 0 for coplanar and for edges so short (below about 1e-108)
    that rms(e)^3 underflows.  The second value of ``restricted._tet_shape``
    keeps its float operations."""
    ab = _sub3(pb, pa)
    ac = _sub3(pc, pa)
    ad = _sub3(pd, pa)
    bc = _sub3(pc, pb)
    bd = _sub3(pd, pb)
    cd = _sub3(pd, pc)
    vol = abs(_dot3(ab, _cross3(ac, ad))) / 6.0
    ms = (_dot3(ab, ab) + _dot3(ac, ac) + _dot3(ad, ad)
          + _dot3(bc, bc) + _dot3(bd, bd) + _dot3(cd, cd)) / 6.0
    den = ms ** 1.5
    return 6.0 * math.sqrt(2.0) * vol / den if den else 0.0


def triangle_angles_scalar(pa, pb, pc):
    """Interior angles in degrees, corners 0, 1, 2."""
    out = []
    pts = (pa, pb, pc)
    for i in range(3):
        u = _sub3(pts[(i + 1) % 3], pts[i])
        v = _sub3(pts[(i + 2) % 3], pts[i])
        out.append(math.degrees(math.atan2(_norm3(_cross3(u, v)),
                                           _dot3(u, v))))
    return out


def dihedral_angles_scalar(pa, pb, pc, pd):
    """The six interior dihedral angles of a tetrahedron, in degrees, at
    the edges (0,1), (0,2), (0,3), (1,2), (1,3), (2,3); NaN at an edge of
    length 0."""
    pts = (pa, pb, pc, pd)
    out = []
    for (i, j) in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        k, l = (x for x in range(4) if x not in (i, j))
        d = _sub3(pts[j], pts[i])
        dn = _dot3(d, d)
        if dn == 0.0:
            out.append(float("nan"))
            continue

        def perp(x):
            w = _sub3(pts[x], pts[i])
            s = _dot3(w, d) / dn
            return (w[0] - s * d[0], w[1] - s * d[1], w[2] - s * d[2])

        u = perp(k)
        v = perp(l)
        out.append(math.degrees(math.atan2(_norm3(_cross3(u, v)),
                                           _dot3(u, v))))
    return out


def _relative_edge_length_scalar(pa, pb, sizing):
    mid = ((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0,
           (pa[2] + pb[2]) / 2.0)
    return _norm3(_sub3(pb, pa)) / sizing.value(mid)


def report_reference(mesh, rs, sizing):
    """``quality.build_report(mesh, rs, sizing)`` by one Python call per
    triangle, tet and edge: the per-element loop the numpy passes
    replaced."""
    from pscmesh.quality import QualityReport

    rep = QualityReport()
    pts = mesh.points
    rep.counts["curve_edges"] = len(rs.edges)
    rep.counts["surface_tris"] = len(rs.tris)
    rep.counts["volume_tets"] = len(rs.tets)
    used = set()
    for table in (rs.edges, rs.tris, rs.tets):
        for key in table:
            used.update(key)
    rep.counts["points"] = len(used)
    a_vals = [f.quality for f in rs.tris.values()]
    v_vals = [t.quality for t in rs.tets.values()]
    tri_angs = []
    for key in rs.tris:
        tri_angs.extend(triangle_angles_scalar(*(pts[v] for v in key)))
    dih_angs = []
    for key in rs.tets:
        angs = dihedral_angles_scalar(*(pts[v] for v in key))
        if all(math.isfinite(x) for x in angs):
            dih_angs.extend(angs)
    edges = set(rs.edges)
    for a, b, c in rs.tris:
        edges.update(((a, b), (b, c), (a, c)))
    for a, b, c, d in rs.tets:
        edges.update(((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))
    h_r = [_relative_edge_length_scalar(pts[u], pts[w], sizing)
           for (u, w) in sorted(edges)]
    rep._add_metric("area_length", a_vals)
    rep._add_metric("volume_length", v_vals)
    rep._add_metric("tri_angle", tri_angs)
    rep._add_metric("dihedral_angle", dih_angs)
    rep._add_metric("rel_edge_length", h_r)
    return rep


# ----------------------------------------------------------------------
# the line trace's function table


def function_table_reference(path):
    """``tools/line_trace.py::functions`` of the module at ``path``, from
    the code compiled afresh from the file: {(first line, qualified name):
    line numbers} of its functions, lambdas and comprehensions."""
    out = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:
            key = (code.co_firstlineno,
                   getattr(code, "co_qualname", code.co_name))
            out.setdefault(key, set()).update(
                line for _start, _end, line in code.co_lines()
                if line is not None)
    return out
