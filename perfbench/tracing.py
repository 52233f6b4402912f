"""In-memory span tracer that wraps pscmesh's layer functions from outside.

``install()`` patches the functions the refinement pipeline calls at each
layer boundary and returns a :class:`Tracer`.  Three kinds of wrapper:

* span: one record per call (name, start, end, parent), for calls that
  happen up to some ten thousand times per run;
* aggregate: count and summed time per parent span, for the hot leaves
  (``orient3d``, ``insphere``, ``query_box``, ``find_containing``,
  ``topo_disk_*``) that run up to a million times;
* count: a bare per-parent call counter with no clock reads, for calls
  nested inside an aggregate or inside a span's own timing
  (exact predicate paths, ``_ray_parity``, the locate scan fallback).

Where a module imports a function by name, the wrapper is installed on the
importing module (``pscmesh.refine.classify_edge``,
``pscmesh.delaunay.orient3d``); patching the defining module would change
nothing.  Methods are patched on the class.  ``per_layer()`` turns the
records into the per-layer metrics listed in ``PER_LAYER``.
"""

import contextlib
import functools
import importlib
import json
import time

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("predicates.orient3d.calls", "count"),
    ("predicates.orient3d.exact_share", "1"),
    ("predicates.insphere.calls", "count"),
    ("predicates.insphere.exact_share", "1"),
    ("predicates.self_s", "s"),
    ("delaunay.locate.calls", "count"),
    ("delaunay.locate.orient3d_per_call", "count"),
    ("delaunay.locate.scan_fallbacks", "count"),
    ("delaunay.nearest_vertex.calls", "count"),
    ("delaunay.nearest_vertex.us_per_call", "us"),
    ("delaunay.probe_insert.cavity_tets", "count"),
    ("delaunay.insert_point.us_per_call", "us"),
    ("delaunay.remove_point.calls", "count"),
    ("delaunay.self_s", "s"),
    ("restricted.classify_edge.calls", "count"),
    ("restricted.classify_edge.hit_share", "1"),
    ("restricted.classify_edge.us_per_call", "us"),
    ("restricted.classify_edge.vertex_accept_share", "1"),
    ("restricted.classify_facet.calls", "count"),
    ("restricted.classify_facet.hit_share", "1"),
    ("restricted.classify_facet.us_per_call", "us"),
    ("restricted.classify_tet.calls", "count"),
    ("restricted.classify_tet.hit_share", "1"),
    ("restricted.classify_tet.us_per_call", "us"),
    ("restricted.topo_disk.calls", "count"),
    ("restricted.self_s", "s"),
    ("geometry.point_in_volume.calls", "count"),
    ("geometry.point_in_volume.us_per_call", "us"),
    ("geometry.point_in_volume.rays_per_call", "count"),
    ("geometry.intersect_segment_surface.calls", "count"),
    ("geometry.intersect_segment_surface.us_per_call", "us"),
    ("geometry.offcentre.calls", "count"),
    ("geometry.self_s", "s"),
    ("aabb.query_box.calls", "count"),
    ("aabb.query_box.volume.calls", "count"),
    ("aabb.query_box.volume.candidates_per_call", "count"),
    ("aabb.query_box.surface.calls", "count"),
    ("aabb.query_box.surface.candidates_per_call", "count"),
    ("aabb.query_box.curve.calls", "count"),
    ("aabb.query_box.curve.candidates_per_call", "count"),
    ("aabb.self_s", "s"),
    ("refine.inserted", "count"),
    ("refine.duplicates", "count"),
    ("refine.rejected_protected", "count"),
    ("refine.rollbacks", "count"),
    ("refine.type2_share", "1"),
    ("refine.find_containing.calls", "count"),
    ("refine.find_containing.us_per_call", "us"),
    ("refine.self_s", "s"),
    ("quality.build_report_s", "s"),
    ("vtk_io.write_vtk_s", "s"),
    ("vtk_io.bytes", "bytes"),
    ("trace.overhead", "1"),
]

# Units whose values are clock readings; every other per-layer value is a
# count and repeats exactly at a fixed seed.
TIMED_UNITS = ("s", "us")

# query_box callers, keyed by the span that is open when the box query runs.
_BOX_CALLER = {
    "geometry.point_in_volume": "volume",
    "geometry.intersect_segment_surface": "surface",
    "geometry.intersect_disk_surface": "surface",
    "restricted.classify_facet": "surface",
    "restricted.classify_edge": "curve",
    "geometry.intersect_sphere_curve": "curve",
}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child", "ctx")

    def __init__(self, sid, name, parent):
        self.id = sid
        self.name = name
        self.parent = parent    # Span, or None for the root
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0        # time covered by direct children
        self.ctx = None


class Tracer:
    """Span stack, finished spans and per-parent aggregates of one run."""

    def __init__(self):
        self.root = Span(0, "root", None)
        self.stack = [self.root]
        self.spans = []
        # (parent span name, callee name) -> [calls, seconds, items]
        self.agg = {}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _bump(self, parent_name, name, dt=0.0, items=0):
        rec = self.agg.get((parent_name, name))
        if rec is None:
            rec = self.agg[(parent_name, name)] = [0, 0.0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += items

    def _open(self, name):
        parent = self.stack[-1]
        sp = Span(len(self.spans) + 1, name, parent)
        self.spans.append(sp)
        self.stack.append(sp)
        return sp

    def _close(self, sp):
        self.stack.pop()
        sp.parent.child += sp.end - sp.start

    @contextlib.contextmanager
    def phase(self, name):
        """A benchmark-level span around one phase of the pipeline."""
        sp = self._open(name)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._close(sp)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def span(self, owner, attr, name, on_enter=None, on_exit=None):
        clock = time.perf_counter
        tr = self

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sp = tr._open(name)
                if on_enter is not None:
                    on_enter(sp, args)
                sp.start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    sp.end = clock()
                    tr._close(sp)
                if on_exit is not None:
                    on_exit(sp, args, result)
                return result
            return traced
        self._patch(owner, attr, wrap)

    def aggregate(self, owner, attr, name, items=None):
        """``name`` may be a function of the parent span; ``items`` maps
        each result to a number summed alongside the call count."""
        clock = time.perf_counter
        tr = self
        name_of = name if callable(name) else (lambda _parent: name)

        def wrap(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                dt = clock() - t0
                parent = tr.stack[-1]
                parent.child += dt
                tr._bump(parent.name, name_of(parent), dt,
                         items(result) if items else 0)
                return result
            return timed
        self._patch(owner, attr, wrap)

    def count(self, owner, attr, name):
        tr = self

        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tr._bump(tr.stack[-1].name, name)
                return fn(*args, **kwargs)
            return counted
        self._patch(owner, attr, wrap)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- reduction ---------------------------------------------------------

    def calls(self, name, parent=None):
        """Aggregated call count of ``name``, optionally under one parent."""
        return sum(rec[0] for (p, n), rec in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def agg_seconds(self, name):
        return sum(rec[1] for (_p, n), rec in self.agg.items() if n == name)

    def spans_named(self, name):
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, layer):
        """Time spent in ``layer`` itself: its spans' durations minus their
        children, plus its timed aggregates (which have no children)."""
        total = 0.0
        prefix = layer + "."
        for s in self.spans:
            if s.name.startswith(prefix):
                total += (s.end - s.start) - s.child
        for (_p, n), rec in self.agg.items():
            if n.startswith(prefix):
                total += rec[1]
        return total

    def write(self, path):
        """Spans as JSON lines, then one line per aggregate."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name,
                    "parent": s.parent.id if s.parent is not None else None,
                    "start": s.start, "end": s.end}) + "\n")
            for (p, n), rec in sorted(self.agg.items()):
                fh.write(json.dumps({"aggregate": n, "parent": p,
                                     "calls": rec[0], "seconds": rec[1],
                                     "items": rec[2]}) + "\n")


def _share(part, whole):
    return part / whole if whole else 0.0


def _per_call_us(spans):
    if not spans:
        return 0.0
    return 1e6 * sum(s.end - s.start for s in spans) / len(spans)


def install():
    """Patch every traced pscmesh function and return the recording
    tracer; ``uninstall()`` restores the originals."""
    # import_module: the package exports a function that shadows the
    # attribute pscmesh.refine
    (aabb, delaunay, geometry, predicates, quality, refine,
     vtk_io) = (importlib.import_module("pscmesh." + m) for m in (
         "aabb", "delaunay", "geometry", "predicates", "quality", "refine",
         "vtk_io"))

    tr = Tracer()
    TetMesh = delaunay.TetMesh
    Complex = geometry.PiecewiseComplex

    # predicates: delaunay imports orient3d / insphere by name, while the
    # filtered predicates look their exact fallbacks up as module globals
    tr.aggregate(delaunay, "orient3d", "predicates.orient3d")
    tr.aggregate(delaunay, "insphere", "predicates.insphere")
    tr.count(predicates, "orient3d_exact", "predicates.orient3d_exact")
    tr.count(predicates, "insphere_exact", "predicates.insphere_exact")

    # delaunay kernel
    tr.span(TetMesh, "locate", "delaunay.locate")
    tr.count(TetMesh, "_contains", "delaunay.contains_scan")

    def nearest_exit(sp, args, result):
        parent = sp.parent
        if parent.name == "restricted.classify_edge":
            parent.ctx[1] += 1
            if result in parent.ctx[0]:
                parent.ctx[2] += 1

    tr.span(TetMesh, "nearest_vertex", "delaunay.nearest_vertex",
            on_exit=nearest_exit)

    def probe_exit(sp, args, result):
        sp.ctx = len(result[1])

    tr.span(TetMesh, "probe_insert", "delaunay.probe_insert",
            on_exit=probe_exit)
    tr.span(TetMesh, "insert_point", "delaunay.insert_point")
    tr.span(TetMesh, "remove_point", "delaunay.remove_point")
    tr.span(TetMesh, "edge_ring", "delaunay.edge_ring")

    # restricted classification: refine imports these by name
    def edge_enter(sp, args):
        # [edge endpoints, nearest-vertex checks, checks answering u or w, hit]
        sp.ctx = [(args[2], args[3]), 0, 0, False]

    def edge_exit(sp, args, result):
        sp.ctx[3] = result is not None

    def hit_exit(sp, args, result):
        sp.ctx = result is not None

    tr.span(refine, "classify_edge", "restricted.classify_edge",
            on_enter=edge_enter, on_exit=edge_exit)
    tr.span(refine, "classify_facet", "restricted.classify_facet",
            on_exit=hit_exit)
    tr.span(refine, "classify_tet", "restricted.classify_tet",
            on_exit=hit_exit)
    tr.aggregate(refine, "topo_disk_1", "restricted.topo_disk")
    tr.aggregate(refine, "topo_disk_2", "restricted.topo_disk")

    # geometry queries on the input complex
    tr.span(geometry, "load_complex", "geometry.load_complex")
    tr.span(Complex, "point_in_volume", "geometry.point_in_volume")
    tr.count(Complex, "_ray_parity", "geometry.ray_parity")
    tr.span(Complex, "intersect_segment_surface",
            "geometry.intersect_segment_surface")
    tr.span(Complex, "intersect_sphere_curve",
            "geometry.intersect_sphere_curve")
    tr.span(Complex, "intersect_disk_surface",
            "geometry.intersect_disk_surface")
    tr.span(Complex, "initial_sampling", "geometry.initial_sampling")
    tr.span(Complex, "detect_sharp_features",
            "geometry.detect_sharp_features")

    # aabb tree: build spans, box queries aggregated by calling query kind
    tr.span(aabb.AABBTree, "__init__", "aabb.build")

    tr.aggregate(aabb.AABBTree, "query_box",
                 lambda parent: "aabb.query_box."
                 + _BOX_CALLER.get(parent.name, "other"),
                 items=len)

    # refinement driver
    tr.span(refine.Refiner, "setup", "refine.setup")
    tr.span(refine.Refiner, "run", "refine.run")
    tr.aggregate(refine.BallRegistry, "find_containing",
                 "refine.find_containing")

    # output
    tr.span(quality, "build_report", "quality.build_report")
    tr.span(quality, "write_report", "quality.write_report")
    tr.span(vtk_io, "write_vtk", "vtk_io.write_vtk")
    return tr


def per_layer(tr, stats, vtk_bytes):
    """Per-layer metrics of one traced run (all but ``trace.overhead``)."""
    m = {}
    o_calls = tr.calls("predicates.orient3d")
    i_calls = tr.calls("predicates.insphere")
    m["predicates.orient3d.calls"] = o_calls
    m["predicates.orient3d.exact_share"] = _share(
        tr.calls("predicates.orient3d_exact"), o_calls)
    m["predicates.insphere.calls"] = i_calls
    m["predicates.insphere.exact_share"] = _share(
        tr.calls("predicates.insphere_exact"), i_calls)
    m["predicates.self_s"] = tr.self_seconds("predicates")

    locate = tr.spans_named("delaunay.locate")
    m["delaunay.locate.calls"] = len(locate)
    m["delaunay.locate.orient3d_per_call"] = _share(
        tr.calls("predicates.orient3d", parent="delaunay.locate"), len(locate))
    m["delaunay.locate.scan_fallbacks"] = tr.calls("delaunay.contains_scan")
    nearest = tr.spans_named("delaunay.nearest_vertex")
    m["delaunay.nearest_vertex.calls"] = len(nearest)
    m["delaunay.nearest_vertex.us_per_call"] = _per_call_us(nearest)
    probes = tr.spans_named("delaunay.probe_insert")
    m["delaunay.probe_insert.cavity_tets"] = _share(
        sum(s.ctx for s in probes), len(probes))
    m["delaunay.insert_point.us_per_call"] = _per_call_us(
        tr.spans_named("delaunay.insert_point"))
    m["delaunay.remove_point.calls"] = len(
        tr.spans_named("delaunay.remove_point"))
    m["delaunay.self_s"] = tr.self_seconds("delaunay")

    edges = tr.spans_named("restricted.classify_edge")
    checks = sum(s.ctx[1] for s in edges)
    m["restricted.classify_edge.calls"] = len(edges)
    m["restricted.classify_edge.hit_share"] = _share(
        sum(1 for s in edges if s.ctx[3]), len(edges))
    m["restricted.classify_edge.us_per_call"] = _per_call_us(edges)
    m["restricted.classify_edge.vertex_accept_share"] = _share(
        sum(s.ctx[2] for s in edges), checks)
    for kind in ("facet", "tet"):
        spans = tr.spans_named("restricted.classify_" + kind)
        m[f"restricted.classify_{kind}.calls"] = len(spans)
        m[f"restricted.classify_{kind}.hit_share"] = _share(
            sum(1 for s in spans if s.ctx), len(spans))
        m[f"restricted.classify_{kind}.us_per_call"] = _per_call_us(spans)
    m["restricted.topo_disk.calls"] = tr.calls("restricted.topo_disk")
    m["restricted.self_s"] = tr.self_seconds("restricted")

    piv = tr.spans_named("geometry.point_in_volume")
    m["geometry.point_in_volume.calls"] = len(piv)
    m["geometry.point_in_volume.us_per_call"] = _per_call_us(piv)
    m["geometry.point_in_volume.rays_per_call"] = _share(
        tr.calls("geometry.ray_parity"), len(piv))
    iss = tr.spans_named("geometry.intersect_segment_surface")
    m["geometry.intersect_segment_surface.calls"] = len(iss)
    m["geometry.intersect_segment_surface.us_per_call"] = _per_call_us(iss)
    m["geometry.offcentre.calls"] = (
        len(tr.spans_named("geometry.intersect_sphere_curve"))
        + len(tr.spans_named("geometry.intersect_disk_surface")))
    m["geometry.self_s"] = tr.self_seconds("geometry")

    total_boxes = 0
    for kind in ("volume", "surface", "curve"):
        name = "aabb.query_box." + kind
        calls = tr.calls(name)
        items = sum(rec[2] for (_p, n), rec in tr.agg.items() if n == name)
        total_boxes += calls
        m[f"aabb.query_box.{kind}.calls"] = calls
        m[f"aabb.query_box.{kind}.candidates_per_call"] = _share(items, calls)
    m["aabb.query_box.calls"] = total_boxes + tr.calls("aabb.query_box.other")
    m["aabb.self_s"] = tr.self_seconds("aabb")

    m["refine.inserted"] = stats["inserted"]
    m["refine.duplicates"] = stats["duplicates"]
    m["refine.rejected_protected"] = stats["rejected_protected"]
    m["refine.rollbacks"] = stats["rollback_gamma"] + stats["rollback_sigma"]
    m["refine.type2_share"] = _share(stats["type2"],
                                     stats["type1"] + stats["type2"])
    fc_calls = tr.calls("refine.find_containing")
    m["refine.find_containing.calls"] = fc_calls
    m["refine.find_containing.us_per_call"] = _share(
        1e6 * tr.agg_seconds("refine.find_containing"), fc_calls)
    m["refine.self_s"] = tr.self_seconds("refine")

    m["quality.build_report_s"] = sum(
        s.end - s.start for s in tr.spans_named("quality.build_report"))
    m["vtk_io.write_vtk_s"] = sum(
        s.end - s.start for s in tr.spans_named("vtk_io.write_vtk"))
    m["vtk_io.bytes"] = vtk_bytes
    return m
