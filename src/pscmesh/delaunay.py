"""Incremental Delaunay tetrahedralisation with undo and Voronoi duals.

The triangulation always tessellates a large bounding box (10x the
geometry's bounding-box diagonal, carried by 8 shell corner vertices);
every real point is inserted strictly inside it, so there is no infinite
ghost logic: no simplex touching a shell corner is restricted, and the
restricted classification rejects them all by one rule (``restricted``
gives its proof).

Degeneracy policy: every stored point receives a deterministic jitter of
``jitter_scale`` (1e-12 x geometry diagonal), keyed on (seed, vertex
index), which with the exact predicates keeps the point set in general
position.  The kernel does not rely on it: its cavity rule is strict and
a created tet takes its orientation from the cavity (``_alloc_tet``), so
a mesh with ``jitter_scale`` 0 stays valid through cospherical ties.
``TetMesh.points`` holds the jittered coordinates and is the
authoritative vertex data for every downstream consumer.

The mesh keeps no side index from vertices to tets and answers no vertex
query: every edge query starts from a tet its caller holds (refinement
holds one of the cavity it has just carved), and point location (a
visibility walk) serves insertion alone.

Single-writer: mutating calls are strictly sequential; read accessors are
safe between mutations.
"""

import math
from itertools import combinations

from .errors import MeshError
from .predicates import (_insphere_int, _orient3d_int, _scaled_ints,
                         insphere, orient3d)

# Face i is opposite vertex i and wound so that, for a positively oriented
# tet (v0, v1, v2, v3), orient3d(face_i, v_i) > 0.
_FACES = ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2))

# The shell's corner count: vertex ids below it are the box corners.
SHELL = 8

_M64 = (1 << 64) - 1
_WALK_CAP = 20000


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def circumsphere_tet(pa, pb, pc, pd):
    """Circumcentre and squared radius of a tet: the float solve when its
    determinant is finite and nonzero and the circumradius is within 1e6
    shortest edges (a screen for nearly flat tets, not an error bound),
    else the exact solve, each value correctly rounded.  Exactly coplanar
    points give the centroid and an infinite radius."""
    ux = pb[0] - pa[0]; uy = pb[1] - pa[1]; uz = pb[2] - pa[2]
    vx = pc[0] - pa[0]; vy = pc[1] - pa[1]; vz = pc[2] - pa[2]
    wx = pd[0] - pa[0]; wy = pd[1] - pa[1]; wz = pd[2] - pa[2]
    uu = ux * ux + uy * uy + uz * uz
    vv = vx * vx + vy * vy + vz * vz
    ww = wx * wx + wy * wy + wz * wz
    vwx = vy * wz - vz * wy
    vwy = vz * wx - vx * wz
    vwz = vx * wy - vy * wx
    wux = wy * uz - wz * uy
    wuy = wz * ux - wx * uz
    wuz = wx * uy - wy * ux
    uvx = uy * vz - uz * vy
    uvy = uz * vx - ux * vz
    uvz = ux * vy - uy * vx
    den = 2.0 * (ux * vwx + uy * vwy + uz * vwz)
    if den == 0.0 or not math.isfinite(den):
        return _circumsphere_exact(pa, pb, pc, pd)
    xx = (uu * vwx + vv * wux + ww * uvx) / den
    xy = (uu * vwy + vv * wuy + ww * uvy) / den
    xz = (uu * vwz + vv * wuz + ww * uvz) / den
    r2 = xx * xx + xy * xy + xz * xz
    min_e2 = min(uu, vv, ww,
                 (vx - ux) ** 2 + (vy - uy) ** 2 + (vz - uz) ** 2,
                 (wx - ux) ** 2 + (wy - uy) ** 2 + (wz - uz) ** 2,
                 (wx - vx) ** 2 + (wy - vy) ** 2 + (wz - vz) ** 2)
    if r2 <= (1e6 ** 2) * min_e2 and math.isfinite(r2):
        return (pa[0] + xx, pa[1] + xy, pa[2] + xz), r2
    return _circumsphere_exact(pa, pb, pc, pd)


def _circumsphere_exact(*pts):
    """``circumsphere_tet`` on integers: the same solve, rounded once."""
    # 1.0 rides along to read off the common scale 2**k of the lift
    (ax, ay, az, bx, by, bz, cx, cy, cz,
     dx, dy, dz, scale) = _scaled_ints([x for p in pts for x in p] + [1.0])
    ux = bx - ax; uy = by - ay; uz = bz - az
    vx = cx - ax; vy = cy - ay; vz = cz - az
    wx = dx - ax; wy = dy - ay; wz = dz - az
    vwx = vy * wz - vz * wy; vwy = vz * wx - vx * wz; vwz = vx * wy - vy * wx
    den = 2 * (ux * vwx + uy * vwy + uz * vwz)
    if den == 0:
        return tuple(sum(p[i] for p in pts) / 4.0 for i in range(3)), math.inf
    uu = ux * ux + uy * uy + uz * uz
    vv = vx * vx + vy * vy + vz * vz
    ww = wx * wx + wy * wy + wz * wz
    # the centre's offset from pa is (nx, ny, nz) / (den * scale)
    nx = uu * vwx + vv * (wy * uz - wz * uy) + ww * (uy * vz - uz * vy)
    ny = uu * vwy + vv * (wz * ux - wx * uz) + ww * (uz * vx - ux * vz)
    nz = uu * vwz + vv * (wx * uy - wy * ux) + ww * (ux * vy - uy * vx)
    q = den * scale
    return ((_round(ax * den + nx, q), _round(ay * den + ny, q),
             _round(az * den + nz, q)),
            _round(nx * nx + ny * ny + nz * nz, q * q))


def _round(num, den):
    try:
        return num / den  # correctly rounded
    except OverflowError:  # beyond the doubles
        return math.inf if (num > 0) == (den > 0) else -math.inf


def circumcentre_triangle(pa, pb, pc):
    """In-plane circumcentre and squared circumradius of a 3D triangle."""
    a2 = ((pb[0] - pc[0]) ** 2 + (pb[1] - pc[1]) ** 2 + (pb[2] - pc[2]) ** 2)
    b2 = ((pa[0] - pc[0]) ** 2 + (pa[1] - pc[1]) ** 2 + (pa[2] - pc[2]) ** 2)
    c2 = ((pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2 + (pa[2] - pb[2]) ** 2)
    wa = a2 * (b2 + c2 - a2)
    wb = b2 * (c2 + a2 - b2)
    wc = c2 * (a2 + b2 - c2)
    s = wa + wb + wc
    if s == 0.0 or not math.isfinite(s):
        cx = (pa[0] + pb[0] + pc[0]) / 3.0
        cy = (pa[1] + pb[1] + pc[1]) / 3.0
        cz = (pa[2] + pb[2] + pc[2]) / 3.0
        return (cx, cy, cz), math.inf
    cx = (wa * pa[0] + wb * pb[0] + wc * pc[0]) / s
    cy = (wa * pa[1] + wb * pb[1] + wc * pc[1]) / s
    cz = (wa * pa[2] + wb * pb[2] + wc * pc[2]) / s
    r2 = (cx - pa[0]) ** 2 + (cy - pa[1]) ** 2 + (cz - pa[2]) ** 2
    return (cx, cy, cz), r2


class VertexMeta:
    """Provenance of a mesh vertex (drives the topological-disk rules)."""

    __slots__ = ("kind", "ref", "alive")

    def __init__(self, kind, ref=-1):
        self.kind = kind  # shell | input | curve | surface | interior
        self.ref = ref    # input vertex id / curve id / patch id
        self.alive = True


class InsertRecord:
    """What one insertion changed.  The created tets take fresh ids at the
    end of ``tets``, which never reuses an id.  ``journal`` undoes it: the
    killed tets as (id, quad, neighbours, circumsphere), the overwritten
    outer slots as (tet, slot, old), ``_last_tet`` and ``len(tets)``; it
    is the one record of the killed tets (``refine.Census`` holds their
    faces)."""

    __slots__ = ("vid", "duplicate", "created", "journal")

    def __init__(self, vid, duplicate, created, journal=None):
        self.vid = vid
        self.duplicate = duplicate
        self.created = created
        self.journal = journal


class TetMesh:
    def __init__(self, bounds, seed=0):
        lo, hi = bounds
        cx = (lo[0] + hi[0]) / 2.0
        cy = (lo[1] + hi[1]) / 2.0
        cz = (lo[2] + hi[2]) / 2.0
        diag = math.sqrt((hi[0] - lo[0]) ** 2 + (hi[1] - lo[1]) ** 2
                         + (hi[2] - lo[2]) ** 2) or 1.0
        half = 5.0 * diag
        self.box_lo = (cx - half, cy - half, cz - half)
        self.box_hi = (cx + half, cy + half, cz + half)
        # snap must dominate jitter, or re-inserting the same raw point can
        # slip past the duplicate check under a fresh jitter draw
        self.snap_tol = 1e-11 * diag
        self.jitter_scale = 1e-12 * diag
        self.seed = seed

        self.points = []
        self.meta = []
        # append-only: a killed tet leaves None behind, ids are never reused
        self.tets = []      # tuple4 or None
        self.neigh = []     # list4 of tet ids, -1 at the outer hull
        self.circum = []    # (centre, r2)
        self._last_tet = -1
        self._last_insert = None

        self._init_shell()

    # ------------------------------------------------------------------
    # construction helpers

    def _jitter(self, p, idx):
        s = self.jitter_scale
        out = []
        for axis in range(3):
            h = _splitmix64((self.seed << 32) ^ (idx * 3 + axis))
            u = (h / _M64) * 2.0 - 1.0
            out.append(float(p[axis]) + s * u)
        return tuple(out)

    def _init_shell(self):
        """The 8 jittered box corners and their Delaunay tets, by brute
        force over the 70 quads.  The corners are cospherical up to the
        jitter, so nearly every ``insphere`` filter would fail: the shell
        is decided on the corners scaled to integers once, every sign by
        the exact integer cores of ``predicates``."""
        lo = self.box_lo
        hi = self.box_hi
        corners = [(x, y, z) for x in (lo[0], hi[0])
                   for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
        for i, c in enumerate(corners):
            self.points.append(self._jitter(c, i))
            self.meta.append(VertexMeta("shell"))
        flat = _scaled_ints([x for p in self.points for x in p])
        ints = [flat[m:m + 3] for m in range(0, 3 * SHELL, 3)]
        quads = []
        for quad in combinations(range(SHELL), 4):
            o = _orient3d_int(*(ints[q] for q in quad))
            if o == 0:
                # far from the origin the jitter falls below a float step
                # and four corners of a box face can come out coplanar
                # (FOUND 52 of CHANGES.md); ROADMAP item 11 removes the cause,
                # and this raise stays its typed error
                raise MeshError("degenerate shell corners")
            tup = quad if o > 0 else (quad[0], quad[1], quad[3], quad[2])
            pts = [ints[q] for q in tup]
            if all(_insphere_int(*pts, ints[q]) <= 0
                   for q in range(SHELL) if q not in quad):
                quads.append(tup)
        for t, i in self._glue([self._alloc_tet(tup) for tup in quads]):
            self.neigh[t][i] = -1
        self._last_tet = 0

    def _alloc_tet(self, quad):
        """Store a positively oriented quad under a fresh id: sorted, the
        last two swapped when sorting is odd.  No predicate runs: the shell
        quads are oriented exactly, and a created tet (f, p) is positive.
        ``_FACES`` winds f towards the apex a of the killed tet K, and p is
        strictly inside K's circumball (by the strict rule, or in the
        located tet and no duplicate) but, unless f is on the hull (then p
        is inside the shell), not strictly inside the outer tet's.  The two
        balls differ and pass through f, so the difference of the powers
        to them is affine, zero exactly on f's plane and negative at p and
        at a (the mesh is Delaunay, a is off the plane), jitter or not."""
        a, b, c, d = quad
        w, x, y, z = sorted(quad)
        odd = (a > b) ^ (a > c) ^ (a > d) ^ (b > c) ^ (b > d) ^ (c > d)
        quad = (w, x, z, y) if odd else (w, x, y, z)
        t = len(self.tets)
        self.tets.append(quad)
        self.neigh.append([-2, -2, -2, -2])
        self.circum.append(circumsphere_tet(*(self.points[v] for v in quad)))
        self._last_tet = t
        return t

    def _glue(self, new):
        """Pair the unset (-2) neighbour slots of the tets ``new`` across
        their shared facets; returns the (tet, slot) pairs left unpaired."""
        open_facets = {}
        for t in new:
            quad = self.tets[t]
            nb = self.neigh[t]
            for i in range(4):
                if nb[i] != -2:
                    continue
                key = tuple(sorted(quad[j] for j in _FACES[i]))
                other = open_facets.pop(key, None)
                if other is None:
                    open_facets[key] = (t, i)
                else:
                    nb[i] = other[0]
                    self.neigh[other[0]][other[1]] = t
        return list(open_facets.values())

    # ------------------------------------------------------------------
    # queries

    def alive_tets(self):
        return (t for t, q in enumerate(self.tets) if q is not None)

    def tet_points(self, t):
        return tuple(self.points[v] for v in self.tets[t])

    def _contains(self, t, p):
        """Whether tet t's closure holds p.  Kept only for the benchmark
        tracer, which wraps it by name (ROADMAP item 8 deletes both)."""
        quad = self.tets[t]
        for i in range(4):
            f = _FACES[i]
            if orient3d(self.points[quad[f[0]]], self.points[quad[f[1]]],
                        self.points[quad[f[2]]], p) < 0:
                return False
        return True

    def locate(self, p):
        """Tet containing p, by a visibility walk.  In a Delaunay mesh it
        never visits a tet twice (Edelsbrunner 1990), so it ends; a walk
        that outruns ``_WALK_CAP`` steps raises ``MeshError``."""
        t = self._last_tet
        for _step in range(_WALK_CAP):
            quad = self.tets[t]
            moved = False
            for i in range(4):
                f = _FACES[i]
                if orient3d(self.points[quad[f[0]]], self.points[quad[f[1]]],
                            self.points[quad[f[2]]], p) < 0:
                    nt = self.neigh[t][i]
                    if nt == -1:
                        raise MeshError("point outside the bounding shell")
                    t = nt
                    moved = True
                    break
            if not moved:
                return t
        raise MeshError("point location did not end: the mesh is not Delaunay")

    # ------------------------------------------------------------------
    # insertion

    def probe_insert(self, p):
        """Jitter p as the next vertex and find its cavity; mutates nothing.

        Returns (pj, cavity dict, boundary facets, duplicate vertex id).
        """
        pj = self._jitter(p, len(self.points))
        t0 = self.locate(pj)
        cav = {t0: None}
        stack = [t0]
        while stack:
            t = stack.pop()
            for i in range(4):
                n = self.neigh[t][i]
                if n == -1 or n in cav:
                    continue
                if insphere(*self.tet_points(n), pj) > 0:
                    cav[n] = None
                    stack.append(n)
        # duplicate snap against cavity vertices
        best = None
        for t in cav:
            for v in self.tets[t]:
                q = self.points[v]
                d = max(abs(q[0] - pj[0]), abs(q[1] - pj[1]), abs(q[2] - pj[2]))
                if d <= self.snap_tol and (best is None or d < best[0]):
                    best = (d, v)
        if best is not None:
            return pj, cav, [], best[1]
        boundary = []
        for t in cav:
            quad = self.tets[t]
            for i in range(4):
                n = self.neigh[t][i]
                if n == -1 or n not in cav:
                    f = _FACES[i]
                    boundary.append(((quad[f[0]], quad[f[1]], quad[f[2]]), n))
        return pj, cav, boundary, None

    def insert_point(self, p, kind="interior", ref=-1, probe=None):
        """Bowyer-Watson insertion of p, jittered as ``probe_insert`` does
        (``probe`` is its result, if taken); returns an InsertRecord.

        A point within snap tolerance of an existing vertex is not
        inserted; the record flags the duplicate and carries its id.
        """
        if probe is None:
            probe = self.probe_insert(p)
        pj, cav, boundary, dup = probe
        if dup is not None:
            return InsertRecord(dup, True, [])
        vid = len(self.points)
        self.points.append(pj)
        self.meta.append(VertexMeta(kind, ref))
        killed = [(t, self.tets[t], self.neigh[t], self.circum[t]) for t in cav]
        outer_slots = []
        journal = (killed, outer_slots, self._last_tet, len(self.tets))
        for t in cav:
            self.tets[t] = self.neigh[t] = self.circum[t] = None
        created = []
        try:
            for (fverts, outer) in boundary:
                nt = self._alloc_tet((fverts[0], fverts[1], fverts[2], vid))
                created.append(nt)
                self.neigh[nt][self.tets[nt].index(vid)] = outer
                if outer != -1:
                    oquad = self.tets[outer]
                    ooi = next(i for i in range(4) if oquad[i] not in fverts)
                    outer_slots.append((outer, ooi, self.neigh[outer][ooi]))
                    self.neigh[outer][ooi] = nt
            if self._glue(created):
                raise MeshError("unpaired internal facet after insertion")
        except MeshError:
            # a failed carve leaves the mesh as it was before it
            self._restore(vid, journal)
            raise
        rec = InsertRecord(vid, False, created, journal)
        self._last_insert = rec
        return rec

    # ------------------------------------------------------------------
    # undo

    def remove_point(self, rec):
        """Undo the latest insertion from its record's journal.

        The created tets all lie past the journaled length of ``tets``, so
        truncating the arrays to it drops them; the killed tets come back
        under their old ids with their old neighbours and circumspheres, so
        the mesh equals its state before the insertion.  The vertex stays in
        ``points`` as dead, which keeps later vertex ids and jitter draws
        unchanged.
        """
        if rec is not self._last_insert:
            raise MeshError("only the latest insertion can be undone")
        self._last_insert = None
        self._restore(rec.vid, rec.journal)

    def _restore(self, vid, journal):
        """Roll the arrays back by an insertion's journal; vertex vid dies."""
        killed, outer_slots, last_tet, n_tets = journal
        del self.tets[n_tets:], self.neigh[n_tets:], self.circum[n_tets:]
        for (t, quad, neigh, circum) in killed:
            self.tets[t] = quad
            self.neigh[t] = neigh
            self.circum[t] = circum
        for (outer, slot, old) in outer_slots:
            self.neigh[outer][slot] = old
        self.meta[vid].alive = False
        self._last_tet = last_tet

    # ------------------------------------------------------------------
    # Voronoi duals

    def edge_ring(self, u, w, t0):
        """Ordered tets around edge (u, w), from t0, a tet on the edge.

        Consecutive ring tets share a face {u, w, pivot}; the walk crosses
        the face opposite the entry pivot each step until it is back at t0.
        An interior edge's ring is a closed cycle, so a walk that reaches
        the hull (a hull edge joins two shell corners) raises ``MeshError``.
        """
        quad0 = self.tets[t0]
        oa, entry = (x for x in quad0 if x != u and x != w)
        ring = [t0]
        t = self.neigh[t0][quad0.index(oa)]
        while t != t0:
            if t == -1:
                raise MeshError(f"edge ({u}, {w}) lies on the hull")
            ring.append(t)
            quad = self.tets[t]
            o1, o2 = (x for x in quad if x != u and x != w)
            nxt = self.neigh[t][quad.index(entry)]
            entry = o2 if o1 == entry else o1
            t = nxt
            if len(ring) > len(self.tets) + 8:
                raise MeshError("broken ring adjacency")
        return ring

    def edge_exists(self, u, w):
        """Whether a live tet has corners u and w: one scan, no walk."""
        return any(q is not None and u in q and w in q for q in self.tets)

    def nearest_vertex(self, p):
        """Live vertex nearest to p, the lowest id on ties (a scan).  Kept
        only for the benchmark tracer, which wraps it by name (ROADMAP item
        8 deletes both)."""
        return min((v for v, meta in enumerate(self.meta) if meta.alive),
                   key=lambda v: math.dist(self.points[v], p))
