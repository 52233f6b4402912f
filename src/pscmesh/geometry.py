"""Discrete piecewise-smooth geometry and its intersection oracle.

The input domain is a curve network (polyline segments tagged by curve
id), a surface given as a triangle soup (tagged by patch id) and the
volume the surface encloses.  Everything downstream is geometry-agnostic
and interacts with the domain only through the query methods here:
segment/surface, sphere/curve and disk/surface intersections plus
point-in-volume membership, and the curve segment tree that the dual-face
query of ``restricted`` scans.

A ``PiecewiseComplex`` is immutable after construction and safe for
concurrent read-only queries; both acceleration trees are built in the
constructor.  The constructor checks the segments in one loop, which also
builds the curve incidence, and then the triangles in numpy passes over
their int array: the lowest failing triangle is an argmax over
per-triangle failure masks, and one sort of the triangle edges by (edge,
patch) gives both the patch edge use counts that the checks bound and the
surface edge census behind ``surface_closed``, ``embedded_curves`` and
``open_edge``.  Either way a record's checks run in a fixed order.  The
Python tuples that the queries' loops read (``pts``, ``segments``,
``triangles``) are grouped from the float64 and int64 arrays that the
numpy passes and the trees read.
"""

import math
from bisect import bisect_left
from itertools import combinations
from operator import itemgetter

import numpy as np

from .aabb import AABBTree, boxes_for_segments, boxes_for_triangles
from .errors import GeometryError, ParseError, ValidationError
from .predicates import _scaled_ints, orient3d

# An irrational-looking direction, along which axis-aligned layouts rarely
# put two points level (``point_in_volume``, ``_near_lower``).
_RAY_DIR = (0.540302305868, 0.642092615934, 0.543838457147)

# Barycentric slack of the disk hit test.  Barycentrics >= -s span the
# triangle scaled by 1 + 3s about its centroid, so a hit lies within 3s x
# the diagonal of its triangle (``hit_pad`` covers it).
_HIT_SLACK = 1e-10

# Slack of the triangle-tree walks' pad, ten times ``_HIT_SLACK``.
_PAD_SLACK = 1e-9


def _unit(v):
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (v[0] / n, v[1] / n, v[2] / n)


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a):
    return math.sqrt(_dot(a, a))


def _plane_basis(normal):
    # Orthonormal pair spanning the plane orthogonal to ``normal``.
    ax = abs(normal[0]); ay = abs(normal[1]); az = abs(normal[2])
    seed = (1.0, 0.0, 0.0) if ax <= min(ay, az) else (
        (0.0, 1.0, 0.0) if ay <= az else (0.0, 0.0, 1.0))
    e1 = _unit(_cross(normal, seed))
    e2 = _cross(normal, e1)
    return e1, e2


class PiecewiseComplex:
    """Vertices + tagged curve segments + tagged surface triangles."""

    def __init__(self, vertices, segments, triangles):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        if self.vertices.shape == (0,):
            self.vertices = self.vertices.reshape(0, 3)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValidationError("vertex array must be (n, 3)")
        if not np.isfinite(self.vertices).all():
            raise ValidationError("non-finite vertex coordinate")
        self.pts = _tuples(self.vertices)
        seg = _records(segments, 3, "segment")
        tri = _records(triangles, 4, "triangle")
        self.segments = _tuples(seg)
        self.triangles = _tuples(tri)
        nv = len(self.vertices)

        # the segment checks, each segment's in the order of the messages,
        # and the curve incidence: each vertex's segment ids ascending, the
        # vertices in the order the segments first reach them
        self.segs_at_vertex = at = {}
        pairs = set()
        curve_degree = {}
        for sid, (i, j, cid) in enumerate(self.segments):
            if not (0 <= i < nv and 0 <= j < nv):
                raise ValidationError(f"segment {sid} references missing vertex")
            if i == j:
                raise ValidationError(f"segment {sid} is degenerate")
            # a squared length that underflows to 0 is as fatal as equal
            # ends: the direction of such a segment divides by its length
            # (one that overflows fails the extent check of ``_validate``)
            x, y, z = _sub(self.pts[j], self.pts[i])
            if x * x + y * y + z * z == 0.0:
                raise ValidationError(f"segment {sid} has zero length")
            pair = (min(i, j), max(i, j))
            if pair in pairs:
                raise ValidationError(f"duplicate segment {pair}")
            pairs.add(pair)
            for v in (i, j):
                degree = curve_degree.get((cid, v), 0)
                if degree == 2:
                    raise ValidationError(f"curve {cid} branches at vertex "
                                          f"{v}; polylines must be simple")
                curve_degree[(cid, v)] = degree + 1
                at.setdefault(v, []).append(sid)
        self.on_curve = np.zeros(nv, dtype=bool)
        self.on_curve[list(at)] = True
        # corner-style feature vertices: endpoints and junctions of curves,
        # and vertices where two curves meet
        self.feature_vertices = {
            v for v, sids in at.items() if len(sids) != 2
            or self.segments[sids[0]][2] != self.segments[sids[1]][2]}

        if nv:
            lo = self.vertices.min(axis=0)
            hi = self.vertices.max(axis=0)
        else:
            lo = hi = np.zeros(3)
        self.bounds = (tuple(lo), tuple(hi))
        # an extent near the float range overflows to inf, which
        # ``_validate`` rejects
        with np.errstate(over="ignore"):
            self.diag = float(np.linalg.norm(hi - lo)) or 1.0
        self.eps = 1e-12 * self.diag
        edge_keys, edge_uses = self._validate(tri)
        self.on_surface = np.zeros(nv, dtype=bool)
        self.on_surface[tri[:, :3].ravel()] = True

        # closed-surface census for the volume oracle: every edge used twice
        self.surface_closed = bool(len(tri)) and bool((edge_uses == 2).all())
        # curves whose every segment is also a surface edge ("embedded"),
        # in the order of their first segment
        seg_keys = _edge_key(seg[:, 0], seg[:, 1], nv)
        # whether each segment is a surface edge, by bisecting the sorted
        # edge keys (no key is -1)
        follows = np.append(edge_keys, -1)[edge_keys.searchsorted(seg_keys)]
        whole = {}
        for (_i, _j, cid), ok in zip(self.segments,
                                     (follows == seg_keys).tolist()):
            whole[cid] = whole.get(cid, True) and ok
        self.embedded_curves = {cid for cid, ok in whole.items() if ok}
        # the lowest edge of one triangle that no segment follows, or None:
        # an open boundary that no restricted curve edge bounds, where the
        # 2-disk condition never holds (``Refiner.setup`` rejects it)
        rim = edge_keys[edge_uses == 1]
        rim = rim[~np.isin(rim, seg_keys)][:1].tolist()
        self.open_edge = ((rim[0] // (nv + 1) - 1, rim[0] % (nv + 1) - 1)
                          if rim else None)

        self.seg_tree = AABBTree(
            boxes_for_segments(self.vertices, seg, pad=self.eps))
        self.tri_tree = AABBTree(
            boxes_for_triangles(self.vertices, tri, pad=self.eps))
        # every triangle-tree query grows its boxes by it, so the walk keeps
        # every triangle that an exact crossing touches (at distance 0) or
        # the disk test accepts, up to 3 _HIT_SLACK diag away (``aabb``);
        # the tenfold margin costs candidates, never an answer
        self.hit_pad = self.eps + 3.0 * _PAD_SLACK * self.diag

    def _validate(self, tri):
        """Raise the ``ValidationError`` of the lowest failing triangle, its
        first failing check in the order of the messages below, else of an
        extent outside the float kernels' range, else of the lowest vertex
        that the mesh would merge with a lower one; else return the surface
        edge census: the sorted distinct edge keys and each one's triangle
        count.

        A triangle's check counts the earlier triangles alike, failing or
        not: an earlier failing triangle is reported first anyway.
        """
        nv = len(self.vertices)
        # a zero row stands in for a missing vertex
        verts = np.vstack((self.vertices, np.zeros((1, 3))))
        ok = (tri[:, :3] >= 0) & (tri[:, :3] < nv)
        corners = np.where(ok, tri[:, :3], -1)
        # the cross product as np.cross computes it, and its squared norm is
        # 0 exactly when np.linalg.norm's is
        v = verts[corners]
        with np.errstate(over="ignore", invalid="ignore"):
            (x1, y1, z1), (x2, y2, z2) = ((v[:, 1] - v[:, 0]).T,
                                          (v[:, 2] - v[:, 0]).T)
            nx, ny, nz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
            zero_area = nx * nx + ny * ny + nz * nz == 0.0
        # the corners sorted: least, middle and greatest
        c0, c1, c2 = corners.T
        least = np.minimum(np.minimum(c0, c1), c2)
        most = np.maximum(np.maximum(c0, c1), c2)
        middle = c0 + c1 + c2 - least - most
        # the edges (i, j), (j, k), (i, k) of each triangle in turn, sorted
        # by edge and then patch: one census for the patch edge uses and
        # for the surface edge counts
        e = corners[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 3, 2)
        edges = _edge_key(e[:, :, 0].ravel(), e[:, :, 1].ravel(), nv)
        patch = np.repeat(tri[:, 3], 3)
        order = np.lexsort((patch, edges))
        uses = np.empty(len(order), dtype=np.intp)
        uses[order] = _run_ranks(_run_starts(edges[order], patch[order]))
        uses = uses.reshape(-1, 3)

        def edge_message(t):
            i, j, k, pid = tri[t].tolist()
            a, b = ((i, j), (j, k), (i, k))[int(np.argmax(uses[t] > 1))]
            return f"patch {pid} edge {(min(a, b), max(a, b))} used by >2 triangles"

        _raise_first([
            (~ok.all(axis=1),
             lambda t: f"triangle {t} references missing vertex"),
            ((least == middle) | (middle == most),
             lambda t: f"triangle {t} is degenerate"),
            (_ranks(least, middle, most) > 0,
             lambda t: "duplicate triangle "
                       f"{tuple(sorted(tri[t, :3].tolist()))}"),
            (zero_area, lambda t: f"triangle {t} has zero area"),
            ((uses > 1).any(axis=1), edge_message),
        ])
        # the float kernels overflow or underflow well outside this range
        # (insphere multiplies five coordinate differences): models scaled
        # by 2^+-160 mesh bit for bit as unscaled, by 2^+-233 they degrade
        if not 1e-50 <= self.diag <= 1e50:
            size = ("exceeds 1e+50" if math.isinf(self.diag) else
                    f"{self.diag:.3g} is outside [1e-50, 1e+50]")
            raise ValidationError(f"bounding box diagonal {size}; "
                                  "rescale the input")
        # the kernel snaps a point within snap_tol (1e-11 diag, max norm) of
        # a vertex onto it after jittering both by up to 1e-12 diag per axis
        reach = 1.2e-11 * self.diag
        near = _near_lower(self.vertices, self.bounds[0], reach)
        if near.any():
            v = int(np.argmax(near))
            dist = np.abs(self.vertices[:v] - self.vertices[v]).max(axis=1)
            raise ValidationError(
                f"vertex {v} lies within {reach:.3g} of vertex "
                f"{int(np.argmax(dist <= reach))}; the mesh would merge them")
        firsts = np.flatnonzero(_run_starts(edges[order]))
        return edges[order[firsts]], np.diff(firsts, append=len(order))

    # ------------------------------------------------------------------
    # feature detection

    def detect_sharp_features(self):
        """Acute curve-curve apexes of the input: ``[(vertex, (seg_i,
        seg_j), angle), ...]``.

        An apex is a vertex where two curve segments subtend an angle of at
        most 60 degrees; those need collar protection before refinement.
        """
        apexes = []
        for v in sorted(self.segs_at_vertex):
            p = self.pts[v]
            for pair in combinations(self.segs_at_vertex[v], 2):
                u1, u2 = (self._away_dir(sid, v, p) for sid in pair)
                ang = math.atan2(_norm(_cross(u1, u2)), _dot(u1, u2))
                if ang <= math.pi / 3.0 + 1e-12:
                    apexes.append((v, pair, ang))
        return apexes

    def _away_dir(self, sid, v, p):
        i, j, _c = self.segments[sid]
        other = self.pts[j] if i == v else self.pts[i]
        return _unit(_sub(other, p))

    # ------------------------------------------------------------------
    # intersection oracle

    def surface_candidates(self, a, b, tube=0.0):
        """Ids of the triangles the tree walk of segment a-b keeps, its
        boxes grown by ``hit_pad`` plus ``tube``."""
        return self.tri_tree.query_segment(a, b, self.hit_pad + tube)

    def intersect_segment_surface(self, a, b, cands=None):
        """Hits ``[(point, patch_id), ...]`` of segment a-b with the surface:
        one per triangle it crosses (``_crosses``), in ascending triangle
        id, at the point ``_segment_triangle_point`` gives.  So the hits
        are the crossings that ``_ray_parity`` counts, and two sides of a
        thin fold give two.  ``cands`` replaces the tree walk
        (``surface_candidates``) by a list that holds every triangle the
        walk keeps (``restricted.Restricted.walk``): a crossing lies in its
        triangle, at distance 0, so the hits are the walk's."""
        if cands is None:
            cands = self.surface_candidates(a, b)
        return [(self._segment_triangle_point(a, b, tid),
                 self.triangles[tid][3])
                for tid in sorted(cands) if self._crosses(a, b, tid)]

    def _segment_triangle_point(self, a, b, tid):
        """The point where segment a-b crosses triangle tid: by the float
        Moeller-Trumbore parameter t, clamped, where its rounding moves the
        point less than 1e-10 diag; else (a segment all but parallel to the
        triangle) by the exact t = V(a) / (V(a) - V(b)), V the volume over
        the triangle, which a crossing puts in [0, 1]."""
        # the vector helpers written out, in their operation order
        i, j, k, _p = self.triangles[tid]
        p0 = self.pts[i]; p1 = self.pts[j]; p2 = self.pts[k]
        dx = b[0] - a[0]; dy = b[1] - a[1]; dz = b[2] - a[2]
        e1x = p1[0] - p0[0]; e1y = p1[1] - p0[1]; e1z = p1[2] - p0[2]
        e2x = p2[0] - p0[0]; e2y = p2[1] - p0[1]; e2z = p2[2] - p0[2]
        px = dy * e1z - dz * e1y
        py = dz * e1x - dx * e1z
        pz = dx * e1y - dy * e1x
        det = px * e2x + py * e2y + pz * e2z
        tx = a[0] - p0[0]; ty = a[1] - p0[1]; tz = a[2] - p0[2]
        qx = ty * e2z - tz * e2y
        qy = tz * e2x - tx * e2z
        qz = tx * e2y - ty * e2x
        # |t - exact t| |d| is below 1e-15 (9 unit roundoffs) times the
        # permanents of e1.q and det times |d| over |det|; 1-norms bound them
        dn = abs(dx) + abs(dy) + abs(dz)
        if 1e-15 * dn * (dn + abs(tx) + abs(ty) + abs(tz)) * (
                abs(e1x) + abs(e1y) + abs(e1z)) * (
                abs(e2x) + abs(e2y) + abs(e2z)) < 1e-10 * self.diag * abs(det):
            t = min(max((e1x * qx + e1y * qy + e1z * qz) * (1.0 / det), 0.0),
                    1.0)
        else:
            ints = _scaled_ints([*a, *b, *p0, *p1, *p2])
            ia, ib, i0, i1, i2 = (ints[m:m + 3] for m in range(0, 15, 3))
            n = _cross(_sub(i1, i0), _sub(i2, i0))
            va = _dot(n, _sub(ia, i0))
            t = va / (va - _dot(n, _sub(ib, i0)))
        return (a[0] + t * dx, a[1] + t * dy, a[2] + t * dz)

    def point_in_volume(self, p):
        """Whether p lies in the enclosed volume (a closed surface's): the
        crossing parity from p to a point beyond the input's box.  A point
        on the surface takes the side ``_crosses``'s shift moves it to.
        """
        if not self.surface_closed:
            raise GeometryError("surface is not closed; volume undefined")
        p = (float(p[0]), float(p[1]), float(p[2]))
        span = 3.0 * self.diag + _norm(_sub(p, self.bounds[0]))
        d = _RAY_DIR
        return self._ray_parity(p, (p[0] + span * d[0], p[1] + span * d[1],
                                    p[2] + span * d[2]))

    def _ray_parity(self, a, b):
        """Whether segment a-b crosses the surface an odd number of times
        (``_crosses``)."""
        return sum(self._crosses(a, b, tid) for tid in
                   self.tri_tree.query_segment(a, b, self.hit_pad)) % 2 == 1

    def _crosses(self, a, b, tid):
        """Whether segment a-b crosses triangle tid, exactly, with a and b
        translated by the infinitesimal (e, e^2, e^3) (Simulation of
        Simplicity; Edelsbrunner & Muecke, ACM TOG 1990): when the
        ``orient3d(a, b, p_i, p_j)`` of its edges agree and a and b lie on
        opposite sides of its plane.  The shift breaks every tie
        (``_tie``): a crossing through a shared edge or vertex counts once,
        and nothing grazes.  The edge tests go first: most triangles of a
        walk that a-b misses still have a and b on opposite sides."""
        i, j, k, _p = self.triangles[tid]
        p0 = self.pts[i]; p1 = self.pts[j]; p2 = self.pts[k]
        s0 = orient3d(a, b, p0, p1) or _tie(a, b, p0, p1)
        if ((orient3d(a, b, p1, p2) or _tie(a, b, p1, p2)) != s0
                or (orient3d(a, b, p2, p0) or _tie(a, b, p2, p0)) != s0):
            return False
        return ((orient3d(p0, p1, p2, a) or _tie(p0, p1, p0, p2))
                != (orient3d(p0, p1, p2, b) or _tie(p0, p1, p0, p2)))

    def intersect_sphere_curve(self, centre, radius):
        """Points of the curve network at exact distance ``radius`` from
        ``centre``, as [(point, curve_id), ...] in segment order.  A point
        that several segments share (within eps) is reported once, with the
        curve id of the first of them."""
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        cands = self.seg_tree.query_sphere(centre, radius, self.eps)
        hits = []
        for sid in sorted(cands):
            i, j, cid = self.segments[sid]
            p = self.pts[i]; q = self.pts[j]
            d = _sub(q, p)
            m = _sub(p, centre)
            a = _dot(d, d)
            b = 2.0 * _dot(m, d)
            c = _dot(m, m) - radius * radius
            disc = b * b - 4.0 * a * c
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            for t in ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)):
                if -1e-12 <= t <= 1.0 + 1e-12:
                    t = min(max(t, 0.0), 1.0)
                    x = (p[0] + t * d[0], p[1] + t * d[1], p[2] + t * d[2])
                    hits.append((x, cid))
        return _dedupe_tagged(hits, self.eps)

    def intersect_disk_surface(self, centre, normal, radius):
        """Hits of the boundary circle of an oriented disk with the surface."""
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        nrm = _unit(normal)
        e1, e2 = _plane_basis(nrm)
        cands = self.tri_tree.query_sphere(centre, radius, self.hit_pad,
                                           plane=(centre, nrm),
                                           ball=(centre, radius))
        hits = []
        for tid in sorted(cands):
            i, j, k, _pid = self.triangles[tid]
            p0 = self.pts[i]; p1 = self.pts[j]; p2 = self.pts[k]
            n2 = _cross(_sub(p1, p0), _sub(p2, p0))
            n2n = _norm(n2)
            h = _dot(n2, _sub(p0, centre))
            A = _dot(e1, n2)
            B = _dot(e2, n2)
            den = A * A + B * B
            if den <= (1e-12 * n2n) ** 2:
                continue  # disk plane parallel to triangle plane
            foot = h / den
            fx = A * foot
            fy = B * foot
            rho2 = fx * fx + fy * fy
            s2 = radius * radius - rho2
            if s2 < 0.0:
                continue
            s = math.sqrt(s2)
            inv = 1.0 / math.sqrt(den)
            ux = -B * inv
            uy = A * inv
            for sgn in (-s, s):
                ax = fx + sgn * ux
                ay = fy + sgn * uy
                x = (centre[0] + ax * e1[0] + ay * e2[0],
                     centre[1] + ax * e1[1] + ay * e2[1],
                     centre[2] + ax * e1[2] + ay * e2[2])
                if _point_in_triangle3(x, p0, p1, p2, _HIT_SLACK):
                    hits.append((x, 0))
        return [h[0] for h in _dedupe_tagged(hits, self.eps)]

    # ------------------------------------------------------------------
    # sampling

    def initial_sampling(self, n, forced=()):
        """Well-separated subset of input vertices to seed refinement.

        Greedy farthest-point selection starting from the vertex nearest
        the low bounding-box corner (the lowest id of the nearest);
        curve vertices are exhausted before surface-only vertices.  Each
        pick is the vertex of the stage farthest from those picked so far,
        the lowest id of the farthest: an argmax over the stage's free
        vertices in id order.  Every curve feature vertex (endpoint,
        junction) and every ``forced`` vertex (the acute apexes of
        ``detect_sharp_features``) is always included on top of the greedy
        picks, in ascending id order: a restricted curve chain can only
        terminate consistently at a vertex that actually exists in the
        mesh.
        """
        if n < 4:
            raise ValueError("need at least 4 seed points")
        nv = len(self.vertices)
        if nv == 0:
            raise ValidationError("empty complex")
        if nv <= n:
            chosen = list(range(nv))
        else:
            stages = (self.on_curve, ~self.on_curve)
            pool = np.flatnonzero(stages[0] if stages[0].any() else stages[1])
            corner = np.asarray(self.bounds[0])
            d2 = ((self.vertices[pool] - corner) ** 2).sum(axis=1)
            chosen = [int(pool[np.argmin(d2)])]
            mind = ((self.vertices - self.vertices[chosen[0]]) ** 2).sum(axis=1)
            for stage in stages:
                free = stage.copy()
                free[chosen] = False
                while len(chosen) < n and free.any():
                    best = int(np.argmax(np.where(free, mind, -np.inf)))
                    chosen.append(best)
                    free[best] = False
                    dd = ((self.vertices - self.vertices[best]) ** 2).sum(axis=1)
                    np.minimum(mind, dd, out=mind)
        for v in sorted(self.feature_vertices.union(forced)):
            if v not in chosen:
                chosen.append(v)
        return chosen


def _tie(a, b, c, d):
    """The sign of the e-term of an ``orient3d`` that is exactly 0, under
    the shift of ``_crosses``: that of the first nonzero component of the
    exact (b - a) x (d - c), or 0 when that vanishes."""
    ax, ay, az, bx, by, bz, cx, cy, cz, dx, dy, dz = _scaled_ints(
        [*a, *b, *c, *d])
    n = _cross((bx - ax, by - ay, bz - az), (dx - cx, dy - cy, dz - cz))
    first = next((x for x in n if x), 0)
    return (first > 0) - (first < 0)


def _point_in_triangle3(x, p0, p1, p2, slack):
    v0 = _sub(p2, p0)
    v1 = _sub(p1, p0)
    v2 = _sub(x, p0)
    d00 = _dot(v0, v0)
    d01 = _dot(v0, v1)
    d11 = _dot(v1, v1)
    d20 = _dot(v2, v0)
    d21 = _dot(v2, v1)
    den = d00 * d11 - d01 * d01
    if abs(den) <= 1e-300:
        return False
    u = (d11 * d20 - d01 * d21) / den
    v = (d00 * d21 - d01 * d20) / den
    return u >= -slack and v >= -slack and u + v <= 1.0 + slack


def _dedupe_tagged(hits, eps):
    out = []
    for x, tag in hits:
        dup = False
        for y, _t in out:
            if (abs(x[0] - y[0]) <= eps and abs(x[1] - y[1]) <= eps
                    and abs(x[2] - y[2]) <= eps):
                dup = True
                break
        if not dup:
            out.append((x, tag))
    return out


def _near_lower(pts, lo, reach):
    """Whether each row of ``pts`` lies within max-norm distance ``reach``
    of an earlier row; ``lo`` is the rows' lower bounds."""
    near = np.zeros(len(pts), dtype=bool)
    # rows within reach lie within reach x |u|_1 of each other along a ray
    # direction u, a sort key on which axis-aligned layouts rarely put two
    # rows level; twice that covers the rounding of the key
    u = np.asarray(_RAY_DIR)
    key = (pts - lo) @ u
    order = np.argsort(key)
    key = key[order]
    width = 2.0 * reach * np.abs(u).sum()
    # the pairs m apart in key order, while any of them is that close
    m = 1
    while (key[m:] - key[:-m] <= width).any():
        a, b = order[:-m], order[m:]
        hit = np.abs(pts[a] - pts[b]).max(axis=1) <= reach
        near[np.maximum(a, b)[hit]] = True
        m += 1
    return near


def _records(rows, width, name):
    """``rows`` as an (n, width) int64 array."""
    try:
        out = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        raise ValidationError(
            f"{name} ids must fit in 64-bit integers") from None
    if out.shape == (0,):
        out = out.reshape(0, width)
    if out.ndim != 2 or out.shape[1] != width:
        raise ValidationError(f"{name} records must have {width} fields")
    return out


def _tuples(rows):
    """The rows of a 2-d array as tuples of Python scalars, grouped from
    one flat list: no list is built per row."""
    flat = iter(rows.ravel().tolist())
    return list(zip(*[flat] * rows.shape[1]))


def _edge_key(i, j, nv):
    """One int per unordered vertex pair, -1 standing for a missing one."""
    return (np.minimum(i, j) + 1) * (nv + 1) + np.maximum(i, j) + 1


def _run_starts(*keys):
    """Where each run of equal rows of the sorted ``keys`` begins."""
    start = np.zeros(len(keys[0]), dtype=bool)
    start[:1] = True
    for k in keys:
        start[1:] |= k[1:] != k[:-1]
    return start


def _run_ranks(start):
    """Position of each sorted row within its run, given where runs begin."""
    pos = np.arange(len(start))
    return pos - np.maximum.accumulate(np.where(start, pos, 0))


def _ranks(*keys):
    """How many earlier rows have the same keys as each row."""
    order = np.lexsort(keys[::-1])
    out = np.empty(len(order), dtype=np.intp)
    out[order] = _run_ranks(_run_starts(*(k[order] for k in keys)))
    return out


def _raise_first(checks):
    """Raise the message of the lowest failing record, of its first failing
    check: ``checks`` pairs a failure mask over the records with a
    function from record id to message, in check order."""
    fails = np.array([mask for mask, _message in checks])
    failing = fails.any(axis=0)
    if failing.any():
        rid = int(np.argmax(failing))
        raise ValidationError(checks[int(np.argmax(fails[:, rid]))][1](rid))


# ----------------------------------------------------------------------
# .psc text format


# the records by tag, in file order: fields after the tag and their cast
_RECORDS = {"v": (3, float), "e": (3, int), "t": (4, int)}


def parse_complex(text):
    """Parse the line-oriented geometry format.

    Records: ``v x y z``, ``e i j curveId``, ``t i j k patchId``; ``#``
    starts a comment; indices are 0-based.  The records are read in one
    pass (``_read_records``); a text that is not all records raises the
    ``ParseError`` of its first bad line (``_raise_parse_error``).
    """
    records = _read_records(text)
    if records is None:
        _raise_parse_error(text)
    return PiecewiseComplex(*records)


def _read_records(text):
    """The vertex, segment and triangle records of ``text`` as (n, 3)
    float64, (n, 3) and (n, 4) int arrays, or None when a line that is not
    blank once its comment is cut is not a record.

    The lines end at ``"\\n"`` alone (``read_text`` maps ``"\\r\\n"``
    and ``"\\r"`` to it); every other break that ``str.splitlines`` knows is
    whitespace within a line, as ``str.split`` has it.  The lines, comments
    cut and leading whitespace stripped, are grouped by their first
    character in one stable sort, so each tag's lines form one run in file
    order after the blank ones.  Each run is joined and split into one token
    list.  It holds one record per line when its length is the line count
    times the record's width (tag included), the tag sits at every width-th
    token and every other token casts: no value casts from a token that
    starts with the tag's letter, so no line can start between two tags.
    The casts are ``_raise_parse_error``'s ``float`` and ``int``, and all
    of them run before any array is built; an id beyond int64 stays a
    Python int for the constructor to report after the checks that precede
    it.
    """
    lines = text.split("\n")
    if "#" in text:
        lines = [ln.split("#", 1)[0] for ln in lines]
    # sorted by first character ("" for a blank line), stably; a
    # one-character probe compares with a line as with its first character,
    # so bisection finds where each run begins: the blank lines are those
    # below "\0", a tag's below the next character
    lines = sorted(map(str.lstrip, lines), key=itemgetter(slice(1)))
    groups = [lines[bisect_left(lines, tag):
                    bisect_left(lines, chr(ord(tag) + 1))] for tag in _RECORDS]
    if bisect_left(lines, "\0") + sum(map(len, groups)) != len(lines):
        return None
    del lines
    values = []
    for tag, (fields, cast) in _RECORDS.items():
        rows = groups.pop(0)
        tokens = " ".join(rows).split()
        if (len(tokens) != (fields + 1) * len(rows)
                or tokens[::fields + 1].count(tag) != len(rows)):
            return None
        del rows, tokens[::fields + 1]
        try:
            values.append(list(map(cast, tokens)))
        except ValueError:
            return None
    verts, segs, tris = values
    return (np.array(verts, dtype=np.float64).reshape(-1, 3),
            _id_rows(segs, 3), _id_rows(tris, 4))


def _id_rows(ids, width):
    """The ints ``ids`` as rows of ``width``: int64, or Python ints when
    one does not fit."""
    try:
        out = np.array(ids, dtype=np.int64)
    except OverflowError:
        out = np.array(ids, dtype=object)
    return out.reshape(-1, width)


def _raise_parse_error(text):
    """Raise the ``ParseError`` of the first line that is not a record:
    ``line N: unrecognised record 'tag'`` for an unknown tag or field
    count, else ``line N:`` and the message of the failing cast."""
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tag, *values = line.split()
        if tag not in _RECORDS or len(values) != _RECORDS[tag][0]:
            raise ParseError(f"line {ln}: unrecognised record {tag!r}")
        try:
            list(map(_RECORDS[tag][1], values))
        except ValueError as exc:
            raise ParseError(f"line {ln}: {exc}") from exc


def load_complex(path):
    """Read and validate a geometry file; builds the spatial index."""
    return parse_complex(read_text(path, "input"))


def read_text(path, what):
    """A UTF-8 file's text as text mode reads it, less one leading
    byte-order mark; a byte that does not decode is a ``ParseError`` naming
    ``what``, the path and its offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {str(path)!r}: byte 0x{data[exc.start]:02x}"
                         f" at offset {exc.start} is not UTF-8") from None
    # dropped after a plain decode, so that an error's offset counts the
    # mark's three bytes
    text = text.removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_complex(cplx, path):
    """Write a complex back out in the text format."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in cplx.pts:
            fh.write(f"v {p[0]!r} {p[1]!r} {p[2]!r}\n")
        for i, j, c in cplx.segments:
            fh.write(f"e {i} {j} {c}\n")
        for i, j, k, p in cplx.triangles:
            fh.write(f"t {i} {j} {k} {p}\n")
