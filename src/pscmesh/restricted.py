"""Classification of Delaunay simplexes against the input geometry.

An edge / triangle / tet of the ambient tetrahedralisation belongs to the
restricted curve / surface / volume complex when its Voronoi dual (face /
edge / vertex) meets the curve network / surface patches / enclosed
volume.  Every restricted simplex, whatever its dimension, is one
``Restricted`` record.  Restricted edges and triangles carry a surface
ball centred on that dual intersection: when the dual crosses the
geometry several times, the ball of maximum radius is kept.  A tet
carries its circumball.

Classification reads the mesh and geometry and returns fresh records,
so re-running it over an unchanged mesh reproduces identical restricted
sets.  It writes only into a ``DistanceCertificate`` passed to it:
``classify_tet`` stores the tet's volume status in ``cert.inside[t]``,
and all three classifiers count into ``cert.stats``.  A record depends on its simplex alone, not on the tet
or tet id that hands the simplex over: every float operation runs in an
order fixed by the simplex's vertex ids.  Duals are closed (Edelsbrunner
& Shah, 1997): a point where a star vertex ties the simplex belongs to
the dual, so every hit is confirmed from the Delaunay star of the simplex
alone, with no point-location walk (``_nearest_among``).  With a
``DistanceCertificate``, the facet and tet classifiers skip queries that
provably find nothing; it changes no result.

Inserting a vertex only cuts the Voronoi cells of the vertices already
there (Cheng, Dey & Shewchuk, *Delaunay Mesh Generation*, 2012, ch. 4):
the dual of an edge or facet that survives an insertion is a subset of
its dual before.  A surviving simplex whose dual missed the input still
misses it, so ``Refiner`` reclassifies only the new simplexes and the
surviving restricted ones, whose dual may have shrunk off the input and
whose surface ball moves with it.

A restricted triangle's record keeps its last surface walk (``walk``):
the dual segment s and the triangles that the tree walk of s keeps with
its pad grown by a tube of eps + 1e-9 |s| (``_WALK_TUBE``; eps keeps a
short segment's tube above the walk's rounding).  When the facet
survives an insertion and both ends of its new dual segment s' lie
within half that tube of s, ``classify_facet`` tests the stored
triangles instead of walking again (``stats.walks_reused``); a fresh
classification tests its own tube-grown walk alike.  Every point of s'
then lies within half the tube of s, so the stored triangles hold all
that the walk of s' keeps, with half a tube to spare for rounding.  An
extra one reports no hit: a triangle that s' crosses holds a point of
s', an exact crossing at distance 0, so the walk of s' keeps it.  So the
hits, their order and the record are those of a fresh walk.
Shrinking duals make reuse common; the tube check alone makes it exact.
"""

import math
from itertools import combinations

from .delaunay import _FACES, SHELL, circumcentre_triangle
from .quality import area_length, volume_length

_SQRT3 = math.sqrt(3.0)
_SQRT83 = math.sqrt(8.0 / 3.0)
# a stored surface walk's tube, relative to its dual segment's length
_WALK_TUBE = 1e-9


class Restricted:
    """One restricted d-simplex: a curve edge (d = 1), a surface triangle
    (d = 2) or a volume tet (d = 3), with the values the mesh criteria
    (``refine.violations``) and the writers read.

    - ``key``: the sorted vertex tuple;
    - ``centre``, ``radius``: the surface ball, centred where the Voronoi
      dual meets the feature (a tet's circumball);
    - ``err``: distance from ``centre`` to the edge midpoint or the
      triangle's in-plane circumcentre, 0 for a tet;
    - ``ref``: curve or patch id, -1 for a tet;
    - ``rho``: circumradius over shortest edge, 1/2 for an edge;
    - ``quality``: area-length of a triangle, volume-length of a tet, 0 for
      an edge;
    - ``tet_id``: a tet's id in the mesh, -1 below d = 3;
    - ``walk``: a triangle's last surface walk (a, b, r2, ids), None for an
      edge or a tet: the dual segment a-b it walked, the squared half tube
      r2 and the ids the walk kept with its pad grown by the tube (see the
      module docstring);
    - ``bad``: whether it fails a refinement bound (``violations`` at tol
      0), set by the refiner when it stores the record;
    - ``blocked``: set when a refinement of it was rejected.
    """

    __slots__ = ("key", "centre", "radius", "err", "ref", "rho", "quality",
                 "tet_id", "walk", "bad", "blocked")

    def __init__(self, key, centre, radius, err, ref, rho, quality,
                 tet_id=-1, walk=None):
        self.key = key
        self.centre = centre
        self.radius = radius
        self.err = err
        self.ref = ref
        self.rho = rho
        self.quality = quality
        self.tet_id = tet_id
        self.walk = walk
        self.blocked = False


def element_size(kind, radius):
    """Mean element size from a circumball radius (1=edge, 2=tri, 3=tet).

    The coefficients map radii to edge length for equilateral elements.
    """
    if kind == 1:
        return 2.0 * radius
    if kind == 2:
        return _SQRT3 * radius
    if kind == 3:
        return _SQRT83 * radius
    raise ValueError(f"bad simplex kind {kind}")


def _radius_edge(r2, pts):
    le = min(_d2(p, q) for p, q in combinations(pts, 2))
    if le == 0.0:
        return math.inf
    return math.sqrt(r2 / le)


def _d2(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2


def _dist(a, b):
    return math.sqrt(_d2(a, b))


# ----------------------------------------------------------------------
# distance certificates


class DistanceCertificate:
    """Cached distance bounds that prove a dual query cannot hit.

    ``bound[t]`` holds, for every live tet t, a lower bound l(t) on the
    distance d(c) from its circumcentre c to the surface: the distance to
    the nearest box of the surface tree's cover
    (``AABBTree.lower_distances``).  For two tets sharing a facet, when

        l(t1) + l(t2) > (1 + 2e-12) |c1 c2| + 2 pad              (*)

    no point of the dual edge c1-c2 lies within pad + 1e-12 |c1 c2| of the
    surface: such a point x would give d(c1) + d(c2) <= |c1 x| + |x c2| +
    2 (pad + 1e-12 |c1 c2|), which (*) exceeds.  The pad is
    ``geom.hit_pad`` = eps + 3e-9 diag, the one pad by which every
    triangle-tree walk grows its boxes.  Both queries of the dual edge
    count exact crossings (``_crosses``): ``intersect_segment_surface``
    reports the crossed triangles and ``_ray_parity`` the parity of their
    count.  An exact crossing lies in its triangle, at distance 0, so under
    (*) the facet's query returns no hit and the parity is 0: a tet takes
    its neighbour's volume status.

    ``bound[t]`` and ``inside[t]``, t's volume status (None until
    ``classify_tet`` settles it; a ghost's never is), are lists indexed by
    tet id like ``mesh.circum``.  A killed tet keeps its entries for an
    undo that restores it, and ``update`` overwrites the ids an undone
    insertion created.  ``stats`` counts what the certificate skipped
    (``dual_certified``, ``volume_inherited``) and the facet walks reused
    (``walks_reused``).  c1 and c2 are the stored circumcentres, usable
    for every tet (``circumsphere_tet``), and c1-c2 is what both query.
    """

    def __init__(self, geom, stats):
        self.tree = geom.tri_tree
        self.pad = geom.hit_pad
        self.bound = []
        self.inside = []
        self.stats = stats

    def update(self, mesh, created):
        """Bound the created tets, in one numpy batch, and unsettle them."""
        grow = len(mesh.tets) - len(self.bound)
        self.bound += [0.0] * grow
        self.inside += [None] * grow
        d = self.tree.lower_distances([mesh.circum[t][0] for t in created])
        for t, b in zip(created, d.tolist()):
            self.bound[t], self.inside[t] = b, None

    def clears(self, t1, c1, t2, c2):
        """True when (*) holds for tets t1, t2 with circumcentres c1, c2."""
        return (self.bound[t1] + self.bound[t2]
                > (1.0 + 2e-12) * math.dist(c1, c2) + 2.0 * self.pad)

    def inherited(self, mesh, geom, t, centre):
        """Volume status of tet t taken from a settled neighbour, or None
        when none is settled.  Across a facet where (*) holds the status
        carries over; else the first settled neighbour's is flipped when
        their dual edge crosses the surface an odd number of times."""
        settled = [n for n in mesh.neigh[t]
                   if n != -1 and self.inside[n] is not None]
        for n in settled:
            if self.clears(t, centre, n, mesh.circum[n][0]):
                self.stats["volume_inherited"] += 1
                return self.inside[n]
        if not settled:
            return None
        n = settled[0]
        return self.inside[n] != geom._ray_parity(mesh.circum[n][0], centre)


# ----------------------------------------------------------------------
# per-simplex classification


def _nearest_among(mesh, y, own, rivals):
    """True when no point of ``rivals`` (the simplex's link vertices or
    apexes) is strictly nearer to y than every vertex of ``own``.  A tie
    is a hit: y lies on the closed dual, whose boundary is where a rival
    ties the simplex."""
    return (min(_d2(y, x) for x in rivals)
            >= min(_d2(y, mesh.points[v]) for v in own))


def _face_crossings(mesh, geom, u, w, t0):
    """Verified intersections of the dual face of edge (u, w) with the
    curve network: [(point, curve_id), ...].

    Candidate points come from bisector-plane crossings of nearby curve
    segments.  The Voronoi face of a Delaunay edge with a closed ring is
    the part of its bisector plane that no link vertex (a ring-tet vertex
    other than u and w) is nearer to: each side of the face lies on the
    bisector of u and one link vertex.  So a candidate is a hit when no
    link vertex is strictly nearer to it than both u and w
    (``_nearest_among``; a tie lies on the closed face): exact in exact
    arithmetic, local to the edge's star and free of circumcentres; the
    ring's circumcentres (the face's corners) only bound the query box.
    """
    ring, closed = mesh.edge_ring(u, w, t0=t0)
    if not closed:
        return []
    pu = mesh.points[u]
    pw = mesh.points[w]
    poly = list(zip(*(mesh.circum[t][0] for t in ring)))
    cands = geom.seg_tree.query_box(tuple(map(min, poly)),
                                    tuple(map(max, poly)), geom.eps)
    nx = pw[0] - pu[0]
    ny = pw[1] - pu[1]
    nz = pw[2] - pu[2]
    offset = ((pu[0] + pw[0]) * nx + (pu[1] + pw[1]) * ny
              + (pu[2] + pw[2]) * nz) / 2.0
    hits = []
    link = None     # built for the first bisector crossing
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
        if link is None:
            link = [mesh.points[x]
                    for x in {x for r in ring for x in mesh.tets[r]}
                    if x != u and x != w]
        if _nearest_among(mesh, y, (u, w), link):
            hits.append((y, cid))
    return hits


def classify_edge(mesh, geom, u, w, t0=None):
    """Restricted edge when the dual Voronoi face meets the curve network;
    ``t0``, a tet on the edge, starts its ring walk."""
    if not geom.segments:
        return None
    if u < SHELL and w < SHELL:
        return None  # dual faces of pure-shell edges cannot reach the input
    hits = _face_crossings(mesh, geom, u, w, t0)
    if not hits:
        return None
    pu = mesh.points[u]
    pw = mesh.points[w]
    best = max(hits, key=lambda h: _d2(h[0], pu))
    centre, curve_id = best
    radius = _dist(centre, pu)
    mid = ((pu[0] + pw[0]) / 2.0, (pu[1] + pw[1]) / 2.0, (pu[2] + pw[2]) / 2.0)
    return Restricted((u, w) if u < w else (w, u), centre, radius,
                      _dist(centre, mid), curve_id, 0.5, 0.0)


def _walk(geom, a, b):
    """A fresh surface walk of segment a-b (``Restricted.walk``)."""
    tube = geom.eps + _WALK_TUBE * math.dist(a, b)
    return (a, b, 0.25 * tube * tube, geom.surface_candidates(a, b, tube))


def _in_tube(x, walk):
    """Whether point x lies within half the tube of a stored walk's
    segment a-b (``Restricted.walk``)."""
    a, b, r2, _ids = walk
    dx = b[0] - a[0]; dy = b[1] - a[1]; dz = b[2] - a[2]
    wx = x[0] - a[0]; wy = x[1] - a[1]; wz = x[2] - a[2]
    dd = dx * dx + dy * dy + dz * dz
    s = min(max((wx * dx + wy * dy + wz * dz) / dd, 0.0), 1.0) if dd else 0.0
    wx -= s * dx
    wy -= s * dy
    wz -= s * dz
    return wx * wx + wy * wy + wz * wz <= r2


def classify_facet(mesh, geom, t, i, cert=None, rec=None):
    """Restricted triangle when the dual Voronoi edge of facet i of tet t
    crosses the surface.

    The record depends on the facet alone, not on which of its two tets
    hands it over: the vertices are sorted first, and the dual edge c1-c2
    runs from the circumcentre of the tet whose apex (its vertex off the
    facet) has the smaller id.  A crossing y counts when neither apex is
    strictly nearer to y than every facet vertex (``_nearest_among``).  A
    point of c1-c2 centres a ball through the facet inside the union of
    the two empty Delaunay balls, so it passes; beyond c1 or c2 on the
    axis line, that side's apex is nearer.  So on the axis line exactly
    c1-c2 passes, in exact arithmetic, and c1-c2 is the query.  With
    ``cert``, a dual edge it proves clear of the surface is not queried.
    ``rec``, the facet's current record, lends its stored walk when the
    new dual segment lies within its tube (see the module docstring).
    """
    if not geom.triangles:
        return None
    quad = mesh.tets[t]
    f = _FACES[i]
    tri = tuple(sorted((quad[f[0]], quad[f[1]], quad[f[2]])))
    if tri[2] < SHELL:
        return None
    t2 = mesh.neigh[t][i]
    if t2 == -1:
        return None  # outer-box hull facet
    p1 = mesh.circum[t][0]
    p2 = mesh.circum[t2][0]
    if cert is not None and cert.clears(t, p1, t2, p2):
        cert.stats["dual_certified"] += 1
        return None
    a1 = quad[i]
    a2 = next(x for x in mesh.tets[t2] if x not in tri)
    pa, pb, pc = (mesh.points[v] for v in tri)
    if a2 < a1:
        p1, p2 = p2, p1
    walk = None if rec is None else rec.walk
    if walk is not None and _in_tube(p1, walk) and _in_tube(p2, walk):
        if cert is not None:
            cert.stats["walks_reused"] += 1
    else:
        walk = _walk(geom, p1, p2)
    apexes = (mesh.points[a1], mesh.points[a2])
    hits = [h for h in geom.intersect_segment_surface(p1, p2, walk[3])
            if _nearest_among(mesh, h[0], tri, apexes)]
    if not hits:
        return None
    centre, patch_id = max(hits, key=lambda h: _d2(h[0], pa))
    radius = _dist(centre, pa)
    cc, r2 = circumcentre_triangle(pa, pb, pc)
    return Restricted(tri, centre, radius, _dist(centre, cc), patch_id,
                      _radius_edge(r2, (pa, pb, pc)), area_length(pa, pb, pc),
                      walk=walk)


def classify_tet(mesh, geom, t, cert=None):
    """Restricted tet when the circumcentre lies inside the volume (None
    when the surface is not closed: then there is no volume).

    With ``cert``, a settled neighbour's status and the parity of their
    dual edge replace the membership query (``inherited``), and t's own
    status becomes settled.
    """
    if not geom.surface_closed or mesh.is_ghost(t):
        return None
    centre, r2 = mesh.circum[t]
    inside = None if cert is None else cert.inherited(mesh, geom, t, centre)
    if inside is None:
        inside = geom.point_in_volume(centre)
    if cert is not None:
        cert.inside[t] = inside
    if not inside:
        return None
    quad = mesh.tets[t]
    pts = [mesh.points[v] for v in quad]
    return Restricted(tuple(sorted(quad)), centre, math.sqrt(r2), 0.0, -1,
                      _radius_edge(r2, pts), volume_length(*pts), t)


# ----------------------------------------------------------------------
# topological disks


def topo_disk_1(edges, expected_curves):
    """Largest-ball incident edge when the 1-disk condition fails, else None.

    ``edges`` are the restricted edges incident to one vertex;
    ``expected_curves`` is the sorted tuple of curve ids the input
    prescribes there, one per incident curve edge (empty for vertices that
    do not lie on the curve network).  The condition holds when the edges'
    sorted curve ids equal it.
    """
    ids = tuple(sorted(e.ref for e in edges))
    if not edges or ids == expected_curves:
        return None
    return max(edges, key=lambda e: (e.radius, e.key))


def topo_disk_2(p, tris, on_surface, gamma_edges):
    """Largest-ball incident triangle when the 2-disk condition fails.

    ``tris`` are the restricted triangles incident to vertex ``p``,
    ``on_surface`` says whether p lies on the surface geometry, and
    ``gamma_edges`` is the current restricted curve-edge key set.  The fan
    around p must be one edge-connected umbrella: closed for an interior
    vertex, or open with both boundary spokes following restricted curve
    edges.
    """
    if not tris:
        return None
    # spoke census: neighbour vertex -> incident triangle indices
    spokes = {}
    for idx, f in enumerate(tris):
        for q in f.key:
            if q != p:
                spokes.setdefault(q, []).append(idx)
    # with no spoke on more than two triangles the fan is a path or a cycle
    # of triangles, so one walk across shared spokes tells whether it is one
    # piece; a cycle has no end spoke (on one triangle), a path two
    seen = {0}
    stack = [0]
    while stack:
        for q in tris[stack.pop()].key:
            for j in spokes.get(q, ()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    ends = [q for q, members in spokes.items() if len(members) == 1]
    if (on_surface and len(seen) == len(tris)
            and all(len(members) <= 2 for members in spokes.values())
            and (not ends or len(ends) == 2 and all(
                ((p, q) if p < q else (q, p)) in gamma_edges for q in ends))):
        return None
    return max(tris, key=lambda f: (f.radius, f.key))
