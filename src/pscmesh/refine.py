"""Hierarchical restricted Delaunay refinement driver.

One driver instance owns the tetrahedralisation and the restricted sets
exclusively (single-threaded).  The rules are written once and indexed by
simplex dimension d: 1 for curve edges, 2 for surface triangles and 3 for
volume tetrahedra.  The loop runs, in strict order of priority, the
refinement stage of d = 1, the 1-disk stage, d = 2, the 2-disk stage and
d = 3.  Every successful insertion restarts the cascade from d = 1.

A bad restricted d-simplex gets its surface-ball centre (circumcentre for
a tet) or an off-centre.  A point that falls inside the surface ball of a
restricted simplex of lower dimension goes to that ball's centre instead,
and an insertion that changes a restricted complex of lower dimension is
rolled back and deferred to the largest changed ball of that complex.

Two point-placement modes are supported: ``classical`` always inserts the
surface-ball centre / circumcentre, while ``frontal`` prefers size-optimal
off-centre candidates next to already-converged elements and falls back to
the classical point when no frontal neighbour exists.

Sharp curve-curve angles are fenced off before refinement by isosceles
collars; any Steiner point whose cavity would delete a protected collar
edge is rejected outright.

The encroachment test and the collar lock both read the candidate's own
cavity, the tets whose circumballs contain it.  The cavity deletes an
edge when the edge belongs to a cavity tet and lies on no cavity boundary
facet.  A surface ball is centred on its simplex's Voronoi dual, a convex
combination of the circumcentres of the tets around the simplex, and
passes through the simplex's vertices, so a point's power with respect to
the ball is the same combination of its powers with respect to those
circumballs.  A point strictly inside the ball is thus inside one of
them, and that tet is in the cavity: the encroachment test need only look
at the restricted faces of the cavity tets.
"""

import heapq
import math
import time
from dataclasses import dataclass
from itertools import combinations

from .config import check_termination_bounds
from .delaunay import _FACES, TetMesh, circumcentre_triangle
from .errors import ProtectionError
from .geometry import _dot, _norm, _sub, _unit
from .quality import QualityReport, build_report
from .restricted import (DistanceCertificate, classify_edge, classify_facet,
                         classify_tet, element_size, topo_disk_1, topo_disk_2)

# greedy farthest-point seeds taken from the input before refinement
_INIT_SAMPLES = 8
_DIMS = (1, 2, 3)


def bad_simplex_1(e, cfg):
    """Curve edge needs refinement: surface error or mean size too large."""
    h = cfg.sizing.value(e.centre)
    return e.err > cfg.eps_rel * h or element_size(1, e.radius) > cfg.alpha * h


def bad_simplex_2(f, cfg):
    """Surface triangle: error, size or radius-edge violation."""
    h = cfg.sizing.value(f.centre)
    return (f.err > cfg.eps_rel * h
            or element_size(2, f.radius) > cfg.alpha * h
            or f.rho > cfg.rho_surf)


def bad_simplex_3(t, cfg):
    """Tetrahedron: size, radius-edge, or sliver (volume-length) violation."""
    h = cfg.sizing.value(t.centre)
    return (element_size(3, t.radius) > cfg.alpha * h
            or t.rho > cfg.rho_vol
            or t.vlen <= cfg.vlen_min)


_BAD = (None, bad_simplex_1, bad_simplex_2, bad_simplex_3)


def _site(d, obj):
    """(kind, ref) of a Steiner point placed for a restricted d-simplex."""
    if d == 1:
        return "curve", obj.curve_id
    if d == 2:
        return "surface", obj.patch_id
    return "interior", -1


def select_refinement_point(c1, c2, c0, r0):
    """Pick between the classical point c1 and the off-centre c2.

    Distances are measured from the frontal entity's ball centre c0; the
    off-centre wins only when it is no farther than the classical point
    and clears the frontal ball radius r0 (0 for a frontal vertex).
    Returns (point, "I" | "II").
    """
    if c2 is None:
        return c1, "I"
    d1 = math.dist(c1, c0)
    d2 = math.dist(c2, c0)
    if d2 <= d1 and d2 >= r0:
        return c2, "II"
    return c1, "I"


class ProtectedFeature:
    """Isosceles collar around one acutely meeting curve pair."""

    __slots__ = ("apex_gvid", "apex_vid", "wing_points", "wing_vids",
                 "wing_curves", "radius")

    def __init__(self, apex_gvid, wing_points, wing_curves, radius):
        self.apex_gvid = apex_gvid
        self.wing_points = wing_points
        self.wing_curves = wing_curves
        self.radius = radius
        self.apex_vid = -1
        self.wing_vids = ()


def protect_sharp_angles(geom, apexes, sizing, beta):
    """Compute collar radii and wing points for every acute apex.

    ``apexes`` is the list ``detect_sharp_features`` returns.

    Starting from the local sizing value, each apex radius is halved until
    its sphere meets the curve network in exactly two points and the
    beta-scaled protecting balls are pairwise disjoint.
    """
    order = sorted({v for v, _pair, _angle in apexes})
    for v in order:
        if len(geom.segs_at_vertex.get(v, ())) != 2:
            raise ProtectionError(
                f"apex vertex {v} has curve degree != 2; collar construction "
                "needs exactly two incident segments")
    radii = {v: sizing.value(geom.pts[v]) for v in order}
    floor = 1e-9 * geom.diag
    changed = True
    while changed:
        changed = False
        for v in order:
            r = radii[v]
            hits = geom.intersect_sphere_curve(geom.pts[v], r)
            ok = len(hits) == 2
            if ok:
                for w in order:
                    if w == v:
                        continue
                    d = math.dist(geom.pts[v], geom.pts[w])
                    if d <= beta * (r + radii[w]):
                        ok = False
                        break
            if not ok:
                radii[v] = r / 2.0
                if radii[v] < floor:
                    raise ProtectionError(
                        f"collar radius underflow at apex vertex {v}")
                changed = True
    out = []
    for v in order:
        hits = geom.intersect_sphere_curve(geom.pts[v], radii[v], with_tags=True)
        hits.sort(key=lambda h: h[0])
        out.append(ProtectedFeature(v, tuple(h[0] for h in hits),
                                    tuple(h[1] for h in hits), radii[v]))
    return out


class BallRegistry:
    """Surface-ball lookup for the restricted d-simplexes of one table.

    A point is only looked up against the restricted d-faces of its own
    cavity: a ball that strictly contains it belongs to one of them (see
    the module docstring).  The class keeps its name and its
    ``find_containing`` method because the benchmark tracer wraps
    ``BallRegistry.find_containing`` on the class.
    """

    def __init__(self, d, table):
        self.d = d
        self.table = table

    def find_containing(self, p, quads):
        """Key of the largest ball strictly containing p among the restricted
        d-simplexes that are faces of the tets ``quads``, or None.  Of equal
        radii the smaller key wins."""
        table = self.table
        if not table:
            return None
        n = self.d + 1
        px, py, pz = p
        best = None     # (-radius, key) of the best ball so far
        for key in {k for q in quads for k in combinations(sorted(q), n)}:
            obj = table.get(key)
            if obj is None:
                continue
            (cx, cy, cz), r = obj.centre, obj.radius
            dx, dy, dz = cx - px, cy - py, cz - pz
            if dx * dx + dy * dy + dz * dz < r * r and (
                    best is None or (-r, key) < best):
                best = (-r, key)
        return None if best is None else best[1]


class RestrictedSets:
    """Refiner-owned restricted complexes plus their incidence maps.

    Everything is indexed by simplex dimension d (1 curve edges, 2 surface
    triangles, 3 volume tets): ``table[d]`` maps a sorted vertex tuple to
    its restricted simplex and is the same dict as ``edges`` / ``tris`` /
    ``tets``.  For d = 1 and 2, ``at_vertex[d]`` maps a vertex to the keys
    incident to it and ``balls[d]`` looks up their surface balls.
    """

    def __init__(self):
        self.edges = {}
        self.tris = {}
        self.tets = {}
        self.table = (None, self.edges, self.tris, self.tets)
        self.at_vertex = (None, {}, {})
        self.balls = (None, BallRegistry(1, self.edges),
                      BallRegistry(2, self.tris))

    def set(self, d, key, obj):
        """Store obj under key in dimension d (None deletes the entry) and
        return the entry it replaced."""
        table = self.table[d]
        if d == 3:
            # a re-classified tet keeps its place in the dict order
            if obj is None:
                return table.pop(key, None)
            old = table.get(key)
            table[key] = obj
            return old
        at_vertex = self.at_vertex[d]
        old = table.pop(key, None)
        if old is not None:
            for v in key:
                s = at_vertex[v]
                s.discard(key)
                if not s:
                    del at_vertex[v]
        if obj is not None:
            table[key] = obj
            for v in key:
                at_vertex.setdefault(v, set()).add(key)
        return old


class _Budget(Exception):
    pass


@dataclass
class RefineResult:
    """Everything one pipeline run produces."""

    mesh: TetMesh
    rs: RestrictedSets
    report: QualityReport
    status: str         # "converged" | "max-points"
    stats: dict         # the driver counters, Refiner.stats
    audit: dict         # certificate name -> bool, Refiner.audit()
    warnings: list      # termination-bound warnings
    timings: dict       # wall seconds of "setup", "refine" and each
                        # cascade stage ("stage.edges", ... "stage.tets")


def refine(geom, cfg):
    """The pipeline: protect, refine, audit and report one input.

    The report's ``converged`` flag drops when the point budget cut the
    run short.
    """
    refiner = Refiner(geom, cfg)
    t0 = time.perf_counter()
    refiner.setup()
    t1 = time.perf_counter()
    status = refiner.run()
    t2 = time.perf_counter()
    report = build_report(refiner.mesh, refiner.rs, cfg.sizing,
                          wall_time=t2 - t1, converged=status == "converged")
    timings = {"setup": t1 - t0, "refine": t2 - t1,
               **{f"stage.{k}": v for k, v in refiner.stage_s.items()}}
    return RefineResult(refiner.mesh, refiner.rs, report, status,
                        refiner.stats, refiner.audit(), refiner.warnings,
                        timings)


class Refiner:
    """Runs the full protection + refinement pipeline on one input."""

    def __init__(self, geom, cfg):
        if cfg.sizing is None:
            raise ValueError("config carries no sizing field")
        self.g = geom
        self.cfg = cfg
        self.mesh = TetMesh(geom.bounds, seed=cfg.seed)
        self.rs = RestrictedSets()
        # bad-simplex heaps and disk-check marks, indexed by dimension
        self.queues = (None, [], [], [])
        self.dirty = (None, {}, {})
        self._stamp = 0
        self.collars = []
        self.protected_edges = []
        self.warnings = []
        self.status = "new"
        self.stats = {"inserted": 0, "duplicates": 0, "rejected_protected": 0,
                      "rollback_gamma": 0, "rollback_sigma": 0,
                      "encroach_edge": 0, "encroach_tri": 0,
                      "disk1": 0, "disk2": 0, "type2": 0, "type1": 0,
                      "blocked": 0, "dual_certified": 0,
                      "volume_inherited": 0, "axis_line_scans": 0,
                      "nearest_walks": 0}
        # per-tet distance bounds that let classification skip empty queries
        self.cert = DistanceCertificate(geom, self.rs.tets, self.stats)
        # wall seconds spent in each cascade stage by run()
        self.stage_s = dict.fromkeys(("edges", "disk1", "tris", "disk2",
                                      "tets"), 0.0)

    # ------------------------------------------------------------------
    # setup

    def setup(self):
        cfg = self.cfg
        self.warnings = check_termination_bounds(cfg, self.g)
        apexes = self.g.detect_sharp_features()
        self.collars = protect_sharp_angles(self.g, apexes, cfg.sizing,
                                            cfg.collar_beta)
        gmap = {}
        forced = {v for v, _pair, _angle in apexes}
        for gv in self.g.initial_sampling(_INIT_SAMPLES, forced):
            rec = self.mesh.insert_point(self.g.pts[gv], "input", gv)
            gmap[gv] = rec.vid
        for col in self.collars:
            col.apex_vid = gmap[col.apex_gvid]
            vids = []
            for wp, wc in zip(col.wing_points, col.wing_curves):
                rec = self.mesh.insert_point(wp, "curve", wc)
                vids.append(rec.vid)
            col.wing_vids = tuple(vids)
            for wv in vids:
                pair = (col.apex_vid, wv) if col.apex_vid < wv else (wv, col.apex_vid)
                self.protected_edges.append(pair)
        alive = sorted(self.mesh.alive_tets())
        self.cert.update(self.mesh, alive)
        self._reclassify([], alive)
        self._mark_dirty(range(len(self.mesh.points)))
        self.status = "ready"

    # ------------------------------------------------------------------
    # classification bookkeeping

    def _queue(self, d, key, obj):
        if _BAD[d](obj, self.cfg):
            self._stamp += 1
            prio = -obj.radius if d == 1 else -obj.rho
            heapq.heappush(self.queues[d], (prio, self._stamp, key, obj))

    def _classify(self, d, key, handle):
        if d == 1:
            return classify_edge(self.mesh, self.g, key[0], key[1], t0=handle,
                                 cert=self.cert)
        if d == 2:
            return classify_facet(self.mesh, self.g, *handle, cert=self.cert)
        return classify_tet(self.mesh, self.g, handle, cert=self.cert)

    def _reclassify(self, destroyed_quads, created_ids):
        """Re-derive restricted membership around a mesh change.

        Simplexes of destroyed tets that did not survive are dropped;
        every simplex of a created tet is (re)classified.  The created
        tets' distance bounds must be in ``cert`` already.  Returns the
        undo list: every restricted-table write as (d, key, old), once per
        key; replaying it in reverse restores the tables.
        """
        mesh = self.mesh
        self.cert.pending = set(created_ids)
        # keys of each dimension: gone ones, and live ones with the handle
        # their classifier takes (a tet id, or a (tet, facet index) pair)
        old = (None, set(), set(), set())
        handles = (None, {}, {}, {})
        for quad in destroyed_quads:
            sq = sorted(quad)
            for d in _DIMS:
                old[d].update(combinations(sq, d + 1))
        for t in created_ids:
            quad = mesh.tets[t]
            sq = sorted(quad)
            handles[3][tuple(sq)] = t
            for pair in combinations(sq, 2):
                handles[1].setdefault(pair, t)
            for i in range(4):
                f = _FACES[i]
                key = tuple(sorted((quad[f[0]], quad[f[1]], quad[f[2]])))
                handles[2].setdefault(key, (t, i))
        rs = self.rs
        undo = []
        for d in _DIMS:
            for key in sorted(old[d].difference(handles[d])):
                obj = rs.set(d, key, None)
                if obj is not None:
                    undo.append((d, key, obj))
        for d in _DIMS:
            for key in sorted(handles[d]):
                obj = self._classify(d, key, handles[d][key])
                undo.append((d, key, rs.set(d, key, obj)))
                if obj is not None:
                    self._queue(d, key, obj)
        return undo

    def _changed(self, undo, low):
        """Restricted simplexes of dimension low that the writes in undo
        removed, or else the ones they added, as {key: simplex}."""
        table = self.rs.table[low]
        return ({k: old for d, k, old in undo
                 if d == low and old is not None and k not in table}
                or {k: table[k] for d, k, old in undo
                    if d == low and old is None and k in table})

    def _mark_dirty(self, vertices):
        """Queue the restricted stars of vertices for the disk stages."""
        for v in sorted(vertices):
            self.dirty[1][v] = None
            self.dirty[2][v] = None

    # ------------------------------------------------------------------
    # guarded insertion

    def _cavity_locks(self, probe):
        """Whether the probed insertion deletes a protected collar edge: the
        edge belongs to a cavity tet and lies on no cavity boundary facet,
        so every tet around it dies."""
        _pj, cav, boundary, dup = probe
        if dup is not None:
            return False
        tets = self.mesh.tets
        return any(any(a in tets[t] and b in tets[t] for t in cav)
                   and not any(a in f and b in f for f, _n in boundary)
                   for a, b in self.protected_edges)

    def _insert(self, point, kind, ref, gamma_guard=False, sigma_guard=False,
                probe=None):
        """Insert one Steiner point with all Algorithm guards applied.

        ``gamma_guard`` / ``sigma_guard`` roll the insertion back when it
        changes the restricted curve / surface complex.  ``probe`` is the
        point's ``probe_insert`` result when the caller has it already.
        Returns (status, vid) with status in {'inserted', 'duplicate',
        'rejected'}; 'inserted' covers rollback-then-deferred insertions.
        """
        if len(self.mesh.points) - 8 >= self.cfg.max_points:
            raise _Budget()
        if probe is None:
            probe = self.mesh.probe_insert(point)
        if probe[3] is not None:
            self.stats["duplicates"] += 1
            return "duplicate", probe[3]
        if self._cavity_locks(probe):
            self.stats["rejected_protected"] += 1
            return "rejected", None
        rec = self.mesh.insert_point(point, kind, ref, probe=probe)
        self.cert.update(self.mesh, rec.created, rec.destroyed)
        undo = self._reclassify(rec.destroyed_quads, rec.created)
        for low, guard, stat in ((1, gamma_guard, "rollback_gamma"),
                                 (2, sigma_guard, "rollback_sigma")):
            if guard and self._changed(undo, low):
                self.stats[stat] += 1
                return self._rollback(rec, undo, low)
        # every created tet is a cavity boundary facet plus the new vertex
        self._mark_dirty({rec.vid}.union(*rec.destroyed_quads))
        self.stats["inserted"] += 1
        return "inserted", rec.vid

    def _rollback(self, rec, undo, low):
        """Undo the offending insertion and defer to the largest adjacent
        surface ball of the disturbed restricted complex of dimension low.

        The mesh comes back from the record's journal and the restricted
        tables from ``undo``, so the restored objects are the same ones,
        and their queue entries are live again.
        """
        changed = self._changed(undo, low)
        self.mesh.remove_point(rec)
        self.cert.update(self.mesh, rec.destroyed, rec.created)
        for d, key, old in reversed(undo):
            self.rs.set(d, key, old)
        _key, best = max(changed.items(), key=lambda kv: (kv[1].radius, kv[0]))
        return self._insert(best.centre, *_site(low, best))

    # ------------------------------------------------------------------
    # frontal machinery

    def _frontal(self, d, token):
        """Key of the first frontal (d-1)-face of a restricted d-simplex, or
        None.

        Faces are the vertex keys (v,) of an edge, the edges (a,b), (a,c),
        (b,c) of a triangle or the facets of a tet in ``_FACES`` order.  A
        face is frontal when it is a converged restricted (d-1)-simplex
        itself or when a converged restricted d-simplex shares it.
        """
        mesh = self.mesh
        rs = self.rs
        cfg = self.cfg
        table = rs.table[d]
        if d == 3:
            quad = mesh.tets[token.tet_id]
            faces = (tuple(sorted((quad[a], quad[b], quad[c])))
                     for a, b, c in _FACES)
        else:
            key = token.edge if d == 1 else token.tri
            faces = combinations(key, d)
        for i, face in enumerate(faces):
            obj = rs.table[d - 1].get(face) if d > 1 else None
            if obj is not None and not _BAD[d - 1](obj, cfg):
                return face
            # keys of the other d-simplexes on the face
            if d == 3:
                n = mesh.neigh[token.tet_id][i]
                keys = () if n == -1 else (tuple(sorted(mesh.tets[n])),)
            else:
                keys = (k for k in sorted(rs.at_vertex[d].get(face[0], ()))
                        if k != key and face[-1] in k)
            if any(k in table and not _BAD[d](table[k], cfg) for k in keys):
                return face
        return None

    def _offcentre(self, d, token, face):
        """(off-centre or None, frontal ball centre c0, its radius r0) of a
        bad restricted d-simplex with frontal face ``face``.

        The frontal ball is the smallest ball of the face: the vertex, the
        edge's midpoint ball or the facet's circumball.  At size h the
        off-centre lies at distance h from the face's vertices on the
        face's dual, inside the d-dimensional feature: on the curves
        (d = 1), on the surface in the edge's bisector plane (d = 2) or
        on the ray from c0 towards the tet's circumcentre, no farther than
        it (d = 3).  Of several hits the one best aligned with c0 -> centre
        wins.  h solves the half-sum sizing relation h = (h(c0) + h(x)) / 2
        by fixed-point iteration: at most 8 steps, 1e-3 relative tolerance,
        clamped to [h(c0)/2, 2 h(c0)].
        """
        pts = [self.mesh.points[v] for v in face]
        if d == 1:
            c0, r0sq = pts[0], 0.0
        elif d == 2:
            pu, pw = pts
            c0 = ((pu[0] + pw[0]) / 2.0, (pu[1] + pw[1]) / 2.0,
                  (pu[2] + pw[2]) / 2.0)
            e = _sub(pw, pu)
            r0sq = 0.25 * (e[0] ** 2 + e[1] ** 2 + e[2] ** 2)
            axis = _unit(e)
        else:
            c0, r0sq = circumcentre_triangle(*pts)
            if not math.isfinite(r0sq):
                return None, c0, math.inf
        r0 = math.sqrt(r0sq)
        v = _sub(token.centre, c0)
        vn = _norm(v)
        if vn == 0.0 and d != 2:
            return None, c0, r0

        def candidate(h):
            s2 = h * h - r0sq
            if s2 <= 0.0:
                return None
            s = math.sqrt(s2)
            if d == 3:
                t = min(s, vn)
                u = _unit(v)
                return (c0[0] + t * u[0], c0[1] + t * u[1], c0[2] + t * u[2])
            if d == 1:
                hits = self.g.intersect_sphere_curve(c0, s)
            else:
                hits = self.g.intersect_disk_surface(c0, axis, s)
            if not hits:
                return None
            if vn == 0.0:
                return min(hits)  # no direction to align with
            return max(hits, key=lambda x: (_dot(_unit(_sub(x, c0)), v) / vn,
                                            (-x[0], -x[1], -x[2])))

        sizing = self.cfg.sizing
        h0 = sizing.value(c0)
        h = h0
        for _ in range(8):
            cand = candidate(h)
            if cand is None:
                return None, c0, r0
            hn = min(max(0.5 * (h0 + sizing.value(cand)), 0.5 * h0), 2.0 * h0)
            done = abs(hn - h) <= 1e-3 * h
            h = hn
            if done:
                break
        return candidate(h), c0, r0

    # ------------------------------------------------------------------
    # queue scanning

    def _pop(self, d):
        """Next bad d-simplex to refine: (key, token, frontal witness or
        None), or None when the queue holds no live entry.

        In frontal mode the scan prefers the highest-priority entry with a
        converged neighbour; when the first 64 candidates have none, the
        top entry is refined classically so progress is always possible.
        """
        heap = self.queues[d]
        table = self.rs.table[d]
        stash = []
        chosen = None
        witness = None
        while heap:
            item = heapq.heappop(heap)
            key, token = item[2], item[3]
            if table.get(key) is not token or token.blocked:
                continue
            if self.cfg.mode != "frontal":
                chosen = item
                break
            witness = self._frontal(d, token)
            if witness is not None:
                chosen = item
                break
            stash.append(item)
            if len(stash) >= 64:
                break
        if chosen is None and stash:
            chosen = stash[0]
            stash = stash[1:]
        for item in stash:
            heapq.heappush(heap, item)
        if chosen is None:
            return None
        return chosen[2], chosen[3], witness

    # ------------------------------------------------------------------
    # the cascade stages

    def _step(self, d):
        """Refine bad restricted d-simplexes until one insertion succeeds
        (True) or the queue runs dry (False)."""
        rs = self.rs
        table = rs.table[d]
        while True:
            popped = self._pop(d)
            if popped is None:
                return False
            key, token, witness = popped
            point, ptype = token.centre, "I"
            if witness is not None:
                c2, c0, r0 = self._offcentre(d, token, witness)
                point, ptype = select_refinement_point(token.centre, c2, c0,
                                                       r0)
            # a point inside a lower-dimensional surface ball goes to that
            # ball's centre instead; the balls to test are faces of the
            # point's own cavity
            probe = self.mesh.probe_insert(point)
            quads = [self.mesh.tets[t] for t in probe[1]]
            for low in range(1, d):
                lkey = rs.balls[low].find_containing(point, quads)
                if lkey is not None:
                    obj = rs.table[low][lkey]
                    self.stats[("encroach_edge", "encroach_tri")[low - 1]] += 1
                    st, _vid = self._insert(obj.centre, *_site(low, obj))
                    break
            else:
                st, _vid = self._insert(point, *_site(d, token),
                                        gamma_guard=d > 1, sigma_guard=d > 2,
                                        probe=probe)
            if st == "inserted":
                self.stats["type2" if ptype == "II" else "type1"] += 1
                # a deferred insertion may leave this simplex untouched and
                # still in violation: put it back in line
                if table.get(key) is token:
                    self._queue(d, key, token)
                return True
            # duplicate / rejected: freeze whatever classification currently
            # stands for this simplex (a deferred insertion may have
            # replaced it)
            cur = table.get(key)
            if cur is not None:
                cur.blocked = True
                self.stats["blocked"] += 1

    def _disk_target(self, d, v):
        """Largest-ball simplex of v's restricted d-star when its d-disk
        condition fails, else None."""
        keys = sorted(self.rs.at_vertex[d].get(v, ()))
        if not keys:
            return None
        objs = [self.rs.table[d][k] for k in keys]
        if d == 1:
            return topo_disk_1(objs, self._curve_ids(v))
        return topo_disk_2(v, objs, self._on_surface(v), self.rs.edges.keys())

    def _step_disk(self, d):
        """Repair one broken d-disk among the marked vertices."""
        dirty = self.dirty[d]
        while dirty:
            v = next(iter(dirty))
            del dirty[v]
            target = self._disk_target(d, v)
            if target is None:
                continue
            st, _vid = self._insert(target.centre, *_site(d, target))
            if st == "inserted":
                self.stats[f"disk{d}"] += 1
                dirty[v] = None
                return True
        return False

    # ------------------------------------------------------------------
    # vertex context

    def _curve_ids(self, v):
        """Sorted curve ids of the restricted edges the input prescribes at
        v: one per incident segment at an input vertex, (c, c) at a Steiner
        vertex on curve c and () off the curve network."""
        meta = self.mesh.meta[v]
        if meta.kind == "input":
            g = self.g
            return tuple(sorted(g.segments[sid][2]
                                for sid in g.segs_at_vertex.get(meta.ref, ())))
        if meta.kind == "curve":
            return (meta.ref, meta.ref)
        return ()

    def _on_surface(self, v):
        meta = self.mesh.meta[v]
        if meta.kind == "surface":
            return True
        if meta.kind == "input":
            return bool(self.g.on_surface[meta.ref])
        if meta.kind == "curve":
            return meta.ref in self.g.embedded_curves
        return False

    # ------------------------------------------------------------------
    # main loop

    def run(self):
        if self.status == "new":
            self.setup()
        stages = (("edges", self._step, 1), ("disk1", self._step_disk, 1),
                  ("tris", self._step, 2), ("disk2", self._step_disk, 2),
                  ("tets", self._step, 3))
        clock = time.perf_counter
        try:
            progressed = True
            while progressed:
                # the first stage that inserts a point restarts the cascade
                for name, step, d in stages:
                    t0 = clock()
                    try:
                        progressed = step(d)
                    finally:
                        self.stage_s[name] += clock() - t0
                    if progressed:
                        break
            self.status = "converged"
        except _Budget:
            self.status = "max-points"
        return self.status

    # ------------------------------------------------------------------
    # output certificates

    def audit(self):
        """Post-hoc verification of every convergence certificate."""
        cfg = self.cfg
        sizing = cfg.sizing
        tol = 1e-9
        out = {}
        out["rho_surf_ok"] = all(f.rho <= cfg.rho_surf * (1 + tol)
                                 for f in self.rs.tris.values())
        out["rho_vol_ok"] = all(t.rho <= cfg.rho_vol * (1 + tol)
                                for t in self.rs.tets.values())
        out["eps_ok"] = all(
            s.err <= cfg.eps_rel * sizing.value(s.centre) * (1 + tol)
            for d in (1, 2) for s in self.rs.table[d].values())
        out["size_ok"] = all(
            element_size(d, s.radius) <= cfg.alpha * sizing.value(s.centre) * (1 + tol)
            for d in _DIMS for s in self.rs.table[d].values())
        out["vlen_ok"] = all(t.vlen > cfg.vlen_min * (1 - tol)
                             for t in self.rs.tets.values())
        out["disks_ok"] = all(
            self._disk_target(d, v) is None
            for v in range(8, len(self.mesh.points))
            if self.mesh.meta[v].alive for d in (1, 2))
        out["protected_ok"] = all(
            self.mesh.edge_exists(a, b) and (a, b) in self.rs.edges
            for (a, b) in self.protected_edges)
        out["converged"] = self.status == "converged"
        return out
