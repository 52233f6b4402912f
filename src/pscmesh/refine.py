"""Hierarchical restricted Delaunay refinement driver.

One driver instance owns the tetrahedralisation and the restricted sets
exclusively (single-threaded).  The rules are written once and indexed by
simplex dimension d: 1 for curve edges, 2 for surface triangles and 3 for
volume tetrahedra, and run only for the complexes the input has (the d of
``Refiner.dims``).  The loop runs, by priority, the stages of d = 1, the
1-disk, d = 2, the 2-disk and d = 3; a successful insertion restarts it.

A bad restricted d-simplex gets its surface-ball centre (circumcentre for
a tet) or an off-centre.  A point that falls inside the surface ball of a
restricted simplex of lower dimension goes to that ball's centre instead,
which is placed by the same rule.  Every insertion (of a queue pop, a
redirect, a deferral or a disk repair) that changes a restricted complex
of lower dimension is rolled back and deferred to the largest changed
ball of that complex.

Two point-placement modes are supported: ``classical`` always inserts the
surface-ball centre / circumcentre, while ``frontal`` prefers size-optimal
off-centre candidates next to already-converged elements and falls back to
the classical point when no frontal neighbour exists.

Sharp curve-curve angles are fenced off before refinement by isosceles
collars; any Steiner point whose cavity would delete a protected collar
edge is rejected outright.

A probed Steiner point's ``Census`` is the one record of what its
insertion kills, keeps and creates, and the encroachment test, the collar
lock, the reclassification and the disk-check marks all read it.  A
surface ball is centred on its simplex's Voronoi dual, a convex
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
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations

from .config import check_termination_bounds
from .delaunay import SHELL, TetMesh, circumcentre_triangle
from .errors import ProtectionError, ValidationError
from .geometry import _dot, _norm, _sub, _unit
from .quality import QualityReport, build_report
from .restricted import (DistanceCertificate, classify_edge, classify_facet,
                         classify_tet, element_size, topo_disk_1, topo_disk_2)

# greedy farthest-point seeds taken from the input before refinement
_INIT_SAMPLES = 8
_DIMS = (1, 2, 3)


def violations(d, s, cfg, tol=0.0):
    """Names of the ``audit`` certificates that the restricted d-simplex s
    fails: ``eps_ok`` (surface error), ``size_ok`` (mean size against
    alpha h), ``rho_surf_ok`` / ``rho_vol_ok`` (radius-edge ratio of a
    triangle / tet) and ``vlen_ok`` (a tet's volume-length floor).

    Every bound is relaxed by the factor 1 + tol (the floor by 1 - tol):
    the refinement queue applies them at tol 0 (``Restricted.bad``), the
    certificates at 1e-9.
    """
    h = cfg.sizing.value(s.centre)
    out = []
    if s.err > cfg.eps_rel * h * (1.0 + tol):
        out.append("eps_ok")
    if element_size(d, s.radius) > cfg.alpha * h * (1.0 + tol):
        out.append("size_ok")
    if d == 2 and s.rho > cfg.rho_surf * (1.0 + tol):
        out.append("rho_surf_ok")
    if d == 3 and s.rho > cfg.rho_vol * (1.0 + tol):
        out.append("rho_vol_ok")
    if d == 3 and s.quality <= cfg.vlen_min * (1.0 - tol):
        out.append("vlen_ok")
    return out


# kind of a Steiner point placed for a restricted d-simplex
_KIND = (None, "curve", "surface", "interior")


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


# Isosceles collar around one acutely meeting curve pair: the apex's input
# vertex id, the two wing points on the curves (sorted), their curve ids and
# the collar radius.  In the mesh it is the two protected apex-wing edges.
ProtectedFeature = namedtuple(
    "ProtectedFeature", "apex_gvid wing_points wing_curves radius")


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
    hits = {}   # the hits of each apex's sphere at its current radius
    floor = 1e-9 * geom.diag
    changed = True
    while changed:
        changed = False
        for v in order:
            r = radii[v]
            hits[v] = geom.intersect_sphere_curve(geom.pts[v], r)
            ok = len(hits[v]) == 2
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
    # the wings sorted by point: their points, then their curve ids
    return [ProtectedFeature(v, *zip(*sorted(hits[v], key=lambda h: h[0])),
                             radii[v]) for v in order]


class BallRegistry:
    """Surface-ball lookup for the restricted simplexes of one table.

    A point is only looked up against the restricted faces of its own
    cavity: a ball that strictly contains it belongs to one of them (see
    the module docstring).  The class keeps its name and its
    ``find_containing`` method because the benchmark tracer wraps
    ``BallRegistry.find_containing`` on the class.
    """

    def __init__(self, table):
        self.table = table

    def find_containing(self, p, keys):
        """Key of the largest ball strictly containing p among the restricted
        simplexes of ``keys`` (a census's faces of the table's dimension),
        or None.  Of equal radii the smaller key wins."""
        table = self.table
        px, py, pz = p
        best = None     # (-radius, key) of the best ball so far
        for key in keys:
            obj = table.get(key)
            if obj is None:
                continue
            (cx, cy, cz), r = obj.centre, obj.radius
            dx, dy, dz = cx - px, cy - py, cz - pz
            if dx * dx + dy * dy + dz * dz < r * r and (
                    best is None or (-r, key) < best):
                best = (-r, key)
        return None if best is None else best[1]


class Census:
    """A probed insertion: ``probe`` is the ``probe_insert`` result; for d
    in ``dims``, ``faces[d]`` are the sorted d-faces of the cavity tets and
    ``kept[d]`` those that survive, the boundary facets and edges; every
    vertex is in ``faces[0]`` and survives (a duplicate keeps every face)."""

    __slots__ = ("probe", "faces", "kept")

    def __init__(self, mesh, probe=(None, (), (), None), dims=_DIMS):
        self.probe = probe
        _pj, cav, boundary, dup = probe
        self.faces = faces = (set(), set(), set(), set())
        for t in cav:
            q = mesh.tets[t]
            sq = q if q[2] < q[3] else (q[0], q[1], q[3], q[2])  # sorted
            faces[0].update(sq)
            for d in dims:
                faces[d].update(combinations(sq, d + 1))
        tris = {tuple(sorted(f)) for f, _n in boundary}
        self.kept = faces if dup is not None else (faces[0], {e for f in tris
            if 1 in dims for e in combinations(f, 2)}, tris, set())


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
        self.balls = (None, BallRegistry(self.edges), BallRegistry(self.tris))

    def set(self, d, key, obj):
        """Store obj under key in dimension d (None deletes the entry) and
        return the entry it replaced.  ``Refiner._reclassify`` calls it only
        for an entry that changes, and records each call as an undo entry."""
        table = self.table[d]
        old = table.pop(key, None)
        if obj is not None:
            table[key] = obj
        if d == 3:
            return old
        at_vertex = self.at_vertex[d]
        if old is not None:
            for v in key:
                s = at_vertex[v]
                s.discard(key)
                if not s:
                    del at_vertex[v]
        if obj is not None:
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
    timings: dict       # wall seconds of "setup", "refine", "report"
                        # (build_report), "audit" (Refiner.audit) and each
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
    t3 = time.perf_counter()
    audit = refiner.audit()
    t4 = time.perf_counter()
    timings = {"setup": t1 - t0, "refine": t2 - t1, "report": t3 - t2,
               "audit": t4 - t3,
               **{f"stage.{k}": v for k, v in refiner.stage_s.items()}}
    return RefineResult(refiner.mesh, refiner.rs, report, status,
                        refiner.stats, audit, refiner.warnings, timings)


class Refiner:
    """Runs the full protection + refinement pipeline on one input."""

    def __init__(self, geom, cfg):
        self.g = geom
        self.cfg = cfg
        self.stats = {"inserted": 0, "duplicates": 0, "rejected_protected": 0,
                      "rollback_gamma": 0, "rollback_sigma": 0,
                      "encroach_edge": 0, "encroach_tri": 0,
                      "disk1": 0, "disk2": 0, "type2": 0, "type1": 0,
                      "blocked": 0, "dual_certified": 0,
                      "volume_inherited": 0, "survivors_skipped": 0,
                      "walks_reused": 0}
        self.dims = tuple(d for d, has in zip(_DIMS, (
            geom.segments, geom.triangles, geom.surface_closed)) if has)
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
        # per-tet distance bounds that let classification skip empty queries
        self.cert = DistanceCertificate(geom, self.stats)
        # wall seconds of each cascade stage in run(); 0 if it never runs
        self.stage_s = dict.fromkeys(("edges", "disk1", "tris", "disk2",
                                      "tets"), 0.0)

    # ------------------------------------------------------------------
    # setup

    def setup(self):
        cfg = self.cfg
        if not self.dims:
            raise ValidationError(
                "the input has no curve segments and no triangles")
        if self.g.open_edge is not None:
            raise ValidationError(
                f"surface edge {self.g.open_edge} bounds one triangle and "
                "follows no curve segment: an open surface must end on curves")
        self.warnings = check_termination_bounds(cfg)
        apexes = self.g.detect_sharp_features()
        self.collars = protect_sharp_angles(self.g, apexes, cfg.sizing,
                                            cfg.collar_beta)
        gmap = {}
        forced = {v for v, _pair, _angle in apexes}
        for gv in self.g.initial_sampling(_INIT_SAMPLES, forced):
            rec = self.mesh.insert_point(self.g.pts[gv], "input", gv)
            gmap[gv] = rec.vid
        for col in self.collars:
            apex = gmap[col.apex_gvid]
            for wp, wc in zip(col.wing_points, col.wing_curves):
                wing = self.mesh.insert_point(wp, "curve", wc).vid
                self.protected_edges.append((min(apex, wing), max(apex, wing)))
        self._reclassify(Census(self.mesh), list(self.mesh.alive_tets()))
        self._mark_dirty(range(len(self.mesh.points)))
        self.status = "ready"

    # ------------------------------------------------------------------
    # classification bookkeeping

    def _queue(self, d, key, obj):
        if obj.bad:
            self._stamp += 1
            prio = -obj.radius if d == 1 else -obj.rho
            heapq.heappush(self.queues[d], (prio, self._stamp, key, obj))

    def _reclassify(self, census, created_ids):
        """Re-derive restricted membership, in the complexes of ``dims``,
        after the insertion of ``census`` created the tets ``created_ids``.

        The census faces it does not keep die, and are dropped.  A face of a
        created tet is (re)classified unless it is a kept face that is not
        restricted: an insertion only shrinks the Voronoi duals of kept
        faces, so a dual that missed the input still misses
        (``stats.survivors_skipped``).  The created tets are bounded in
        ``cert`` first, and with a volume their statuses are settled there
        (``DistanceCertificate.settle``).  Only entries that change are
        written, and a stored record gets its verdict (``Restricted.bad``)
        and is queued.
        Returns the undo list: every write as (d, key, old), once per key;
        replaying it in reverse restores the tables.
        """
        mesh, g, cert, dims = self.mesh, self.g, self.cert, self.dims
        cert.update(mesh, created_ids)
        if 3 in dims:
            cert.settle(mesh, g, created_ids)
        # keys of the created tets with the handle their classifier takes
        # (a tet id, or a (tet, facet index) pair)
        handles = (None, {}, {}, {})
        for t in created_ids:
            q = mesh.tets[t]
            # facet k of the sorted key lacks key[3 - k], in slot slots[k]
            if q[2] < q[3]:
                key, slots = q, (3, 2, 1, 0)
            else:
                key, slots = (q[0], q[1], q[3], q[2]), (2, 3, 1, 0)
            if 1 in dims:
                for pair in combinations(key, 2):
                    handles[1].setdefault(pair, t)
            if 2 in dims:
                for facet, i in zip(combinations(key, 3), slots):
                    handles[2].setdefault(facet, (t, i))
            if 3 in dims:
                handles[3][key] = t
        rs, undo = self.rs, []
        for d in dims:
            table, kept = rs.table[d], census.kept[d]
            dead = (census.faces[d] - kept) & table.keys()
            undo += [(d, key, rs.set(d, key, None)) for key in sorted(dead)]
            for key in sorted(handles[d]):
                known = key in table
                if not known and key in kept:
                    self.stats["survivors_skipped"] += 1
                    continue
                h = handles[d][key]
                if d == 1:
                    obj = classify_edge(mesh, g, key[0], key[1], h)
                elif d == 2:
                    obj = classify_facet(mesh, g, *h, cert=cert,
                                         rec=rs.tris.get(key))
                else:
                    obj = classify_tet(mesh, g, h, cert=cert)
                if known or obj is not None:
                    undo.append((d, key, rs.set(d, key, obj)))
                if obj is not None:
                    obj.bad = bool(violations(d, obj, self.cfg))
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
        for d in {1, 2}.intersection(self.dims):
            self.dirty[d].update(dict.fromkeys(sorted(vertices)))

    # ------------------------------------------------------------------
    # guarded insertion

    def _cavity_locks(self, census):
        """Whether the probed insertion deletes a protected collar edge: the
        edge is a cavity edge and not a boundary edge, so every tet around
        it dies."""
        edges, kept = census.faces[1], census.kept[1]
        return any(e in edges and e not in kept for e in self.protected_edges)

    def _place(self, point, d, ref):
        """Insert the Steiner point of a d-simplex; every point enters the
        mesh here.  A point strictly inside a lower-dimensional surface ball
        (a face of its own cavity) is replaced by that ball's centre, placed
        in turn as the Steiner point of its own dimension."""
        census = Census(self.mesh, self.mesh.probe_insert(point), self.dims)
        for low in self.dims:
            if low >= d:
                break
            lkey = self.rs.balls[low].find_containing(point, census.faces[low])
            if lkey is not None:
                obj = self.rs.table[low][lkey]
                self.stats[("encroach_edge", "encroach_tri")[low - 1]] += 1
                return self._place(obj.centre, low, obj.ref)
        return self._insert(census, d, ref)

    def _insert(self, census, d, ref):
        """Insert ``census.probe`` as the Steiner point of a d-simplex; one
        that changes a restricted complex of dimension below d is rolled
        back (``_rollback``), whatever placed it.  Returns the status, one
        of 'inserted', 'duplicate' or 'rejected'; 'inserted' covers
        rollback-then-deferred insertions.
        """
        if len(self.mesh.points) - SHELL >= self.cfg.max_points:
            raise _Budget()
        probe = census.probe
        if probe[3] is not None:
            self.stats["duplicates"] += 1
            return "duplicate"
        if self._cavity_locks(census):
            self.stats["rejected_protected"] += 1
            return "rejected"
        rec = self.mesh.insert_point(probe[0], _KIND[d], ref, probe=probe)
        undo = self._reclassify(census, rec.created)
        for low in self.dims:
            if low >= d:
                break
            changed = self._changed(undo, low)
            if changed:
                self.stats[("rollback_gamma", "rollback_sigma")[low - 1]] += 1
                return self._rollback(rec, undo, low, changed)
        # every created tet is a cavity boundary facet plus the new vertex
        self._mark_dirty(census.faces[0] | {rec.vid})
        self.stats["inserted"] += 1
        return "inserted"

    def _rollback(self, rec, undo, low, changed):
        """Undo the offending insertion ``rec`` and defer to the
        largest surface ball among ``changed``, the simplexes of the
        disturbed restricted complex of dimension low (``_changed``).

        The mesh comes back from the record's journal and the restricted
        tables from ``undo``, so the restored objects are the same ones,
        and their queue entries are live again.  The certificate keeps its
        entries by tet id, so the restored tets find theirs intact.
        """
        self.mesh.remove_point(rec)
        for d, key, old in reversed(undo):
            self.rs.set(d, key, old)
        _key, best = max(changed.items(), key=lambda kv: (kv[1].radius, kv[0]))
        return self._place(best.centre, low, best.ref)

    # ------------------------------------------------------------------
    # frontal machinery

    def _frontal(self, d, token):
        """Key of the first frontal (d-1)-face of a restricted d-simplex, or
        None.

        Faces are the vertex keys (v,) of an edge, the edges (a,b), (a,c),
        (b,c) of a triangle or the facets of a tet in slot order (facet i
        lacks the tet's vertex i).  A face is frontal when it is a converged
        restricted (d-1)-simplex itself or when a converged restricted
        d-simplex shares it.
        """
        mesh = self.mesh
        rs = self.rs
        table = rs.table[d]
        if d == 3:
            quad = mesh.tets[token.tet_id]
            faces = (tuple(v for v in token.key if v != quad[i])
                     for i in range(4))
        else:
            key = token.key
            faces = combinations(key, d)
        for i, face in enumerate(faces):
            obj = rs.table[d - 1].get(face) if d > 1 else None
            if obj is not None and not obj.bad:
                return face
            # keys of the other d-simplexes on the face (a restricted
            # tet has no shell corner, so no facet on the hull)
            if d == 3:
                n = mesh.neigh[token.tet_id][i]
                keys = (tuple(sorted(mesh.tets[n])),)
            else:
                keys = (k for k in rs.at_vertex[d].get(face[0], ())
                        if k != key and face[-1] in k)
            if any(k in table and not table[k].bad for k in keys):
                return face
        return None

    def _offcentre(self, d, token, face):
        """(off-centre or None, frontal ball centre c0, its radius r0) of a
        bad restricted d-simplex with frontal face ``face``.

        The frontal ball is the smallest ball of the face: the vertex, the
        edge's midpoint ball or the facet's circumball.  At size h the
        off-centre lies at distance h from the face's vertices on the
        face's dual, inside the d-dimensional feature: on the edge's own
        curve (d = 1), on the surface in the edge's bisector plane (d = 2) or
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
                # only the edge's own curve: a hit on another curve would
                # be tagged with the wrong curve id
                hits = [x for x, ref in self.g.intersect_sphere_curve(c0, s)
                        if ref == token.ref]
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
            if hn == h:
                return cand, c0, r0
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
            if self._place(point, d, token.ref) == "inserted":
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
        objs = [self.rs.table[d][k] for k in self.rs.at_vertex[d].get(v, ())]
        if not objs:
            return None
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
            if self._place(target.centre, d, target.ref) == "inserted":
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
        stages = [(name, step, d) for name, step, d in (
            ("edges", self._step, 1), ("disk1", self._step_disk, 1),
            ("tris", self._step, 2), ("disk2", self._step_disk, 2),
            ("tets", self._step, 3)) if d in self.dims]
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
        """Post-hoc verification of every convergence certificate.

        The five mesh criteria are ``violations`` at tol 1e-9 over every
        restricted simplex, so a simplex the queue let through passes and
        one that fails was also queued.
        """
        failed = {name for d in _DIMS for s in self.rs.table[d].values()
                  for name in violations(d, s, self.cfg, 1e-9)}
        out = {name: name not in failed
               for name in ("rho_surf_ok", "rho_vol_ok", "eps_ok", "size_ok",
                            "vlen_ok")}
        out["disks_ok"] = all(
            self._disk_target(d, v) is None
            for d in {1, 2}.intersection(self.dims)
            for v in range(SHELL, len(self.mesh.points))
            if self.mesh.meta[v].alive)
        protected = set(self.protected_edges)
        held = {e for q in self.mesh.tets if protected and q is not None
                for e in combinations(sorted(q), 2) if e in protected}
        out["protected_ok"] = held == protected <= self.rs.edges.keys()
        out["converged"] = self.status == "converged"
        return out
