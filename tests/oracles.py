"""Independent reference computations used to check the package.

Everything here is written from first principles and deliberately avoids
the library's own code paths: exact rational arithmetic for predicate
signs, literal all-pairs enumeration for the Delaunay property and the
intersection queries, and generalized winding numbers for volume
membership.  The exceptions are differential references that run an
older or unfiltered rule on the mesh's own queries:
``face_crossings_reference`` (curve-edge classification),
``containing_ball_scan`` (encroachment over every ball) and
``cavity_locks_ring_walk`` (collar locks by walking edge rings).
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


# ----------------------------------------------------------------------
# exact rational predicates


def _frac(p):
    return [Fraction(float(x)) for x in p]


def rational_orient3d(a, b, c, d):
    a, b, c, d = _frac(a), _frac(b), _frac(c), _frac(d)
    u = [b[i] - a[i] for i in range(3)]
    v = [c[i] - a[i] for i in range(3)]
    w = [d[i] - a[i] for i in range(3)]
    det = (u[0] * (v[1] * w[2] - v[2] * w[1])
           - u[1] * (v[0] * w[2] - v[2] * w[0])
           + u[2] * (v[0] * w[1] - v[1] * w[0]))
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


def face_crossings_reference(mesh, geom, u, w):
    """Crossings of the dual face of mesh edge (u, w) with the curve
    network, [(point, curve_id), ...], with every bisector-plane candidate
    confirmed by ``mesh.nearest_vertex`` and none rejected beforehand.

    This is the classification before the link-vertex rejection, kept
    verbatim (same candidates, same float expressions) so that the
    production path must agree with it bit for bit.
    """
    ring, closed = mesh.edge_ring(u, w)
    if not closed:
        return []
    pu = mesh.points[u]
    pw = mesh.points[w]
    reliable = True
    poly = []
    for t in ring:
        c, ok = mesh.voronoi_vertex(t)
        reliable = reliable and ok
        poly.append(c)
    if reliable and len(poly) >= 3:
        pad = geom.eps
        lo = (min(p[0] for p in poly) - pad, min(p[1] for p in poly) - pad,
              min(p[2] for p in poly) - pad)
        hi = (max(p[0] for p in poly) + pad, max(p[1] for p in poly) + pad,
              max(p[2] for p in poly) + pad)
        cands = geom.seg_tree.query_box(lo, hi)
    else:
        cands = range(len(geom.segments))
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
        if mesh.nearest_vertex(y) in (u, w):
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
        ring, _closed = mesh.edge_ring(a, b, t0=start)
        if all(t in cav for t in ring):
            return True
    return False


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


def random_rotation(rng):
    """Haar-ish random rotation from a QR decomposition."""
    M = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


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


def distance_to_curves(geom, points):
    """Min distance from each query point to the complex's curve network."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    segs = np.asarray([s[:2] for s in geom.segments], dtype=np.intp)
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
