"""The traced benchmark patches pscmesh functions by name.

``perfbench/tracing.py`` looks up every name it wraps; these tests install
and uninstall it so that a rename or deletion of a traced name fails here,
check that a traced refinement still calls through the patched names, and
check that the box queries it counts still pass through ``query_box``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from pscmesh.config import RefineConfig, SizingField
from pscmesh.models import cube, icosphere, wedge
from pscmesh.refine import Census, Refiner

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_restores_every_traced_name():
    tracing = load_tracing()
    refine = importlib.import_module("pscmesh.refine")
    setup = refine.Refiner.setup
    classify_edge = refine.classify_edge
    tracer = tracing.install()
    assert refine.Refiner.setup is not setup
    tracer.uninstall()
    assert refine.Refiner.setup is setup
    assert refine.classify_edge is classify_edge


def test_only_the_tracer_keeps_nearest_vertex_and_contains():
    # a name the tracer patches but no code of the package loads lives on
    # for the tracer alone (ROADMAP item 8); a new one fails here
    tracer = load_tracing().install()
    patched = {attr for _owner, attr, _fn in tracer._restore}
    tracer.uninstall()
    loaded = set()
    for path in (ROOT / "src" / "pscmesh").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
    assert patched - loaded - {"__init__"} == {"nearest_vertex", "_contains"}


def test_traced_refinement_calls_through_every_patched_driver_name(
        monkeypatch):
    # the refiner is built before the patches go in, so a table of
    # classifiers bound at import or construction time would miss them
    r = Refiner(wedge(), RefineConfig(sizing=SizingField(h0=0.5), seed=0))
    # both disk checks share one traced name: count each on its own
    refine = importlib.import_module("pscmesh.refine")
    disk_calls = {}
    for name in ("topo_disk_1", "topo_disk_2"):
        fn = getattr(refine, name)

        def counted(*args, _fn=fn, _name=name):
            disk_calls[_name] = disk_calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(refine, name, counted)
    tracing = load_tracing()
    tracer = tracing.install()
    try:
        r.setup()
        assert r.run() == "converged"
    finally:
        tracer.uninstall()
    metrics = tracing.per_layer(tracer, r.stats, 0)
    for name in ("restricted.classify_edge.calls",
                 "restricted.classify_facet.calls",
                 "restricted.classify_tet.calls",
                 "restricted.topo_disk.calls",
                 "refine.find_containing.calls"):
        assert metrics[name] > 0, name
    assert disk_calls.keys() == {"topo_disk_1", "topo_disk_2"}


def test_membership_query_is_counted_as_a_volume_box_query():
    cplx = icosphere(2)
    tracer = load_tracing().install()
    try:
        assert cplx.point_in_volume((0.0, 0.0, 0.0))
    finally:
        tracer.uninstall()
    assert tracer.calls("aabb.query_box.volume") >= 1


def test_rollback_is_counted_as_a_remove_point_call():
    # an interior point just inside the cube next to a surface ball centre
    # changes the restricted surface, so the surface guard takes it back
    geom = cube()
    r = Refiner(geom, RefineConfig(sizing=SizingField(h0=0.35),
                                   mode="classical", seed=0))
    r.setup()
    _key, f = min(r.rs.tris.items())
    c = np.asarray(f.centre)
    inward = np.mean(geom.bounds, axis=0) - c
    p = tuple(c + 0.05 * f.radius * inward / np.linalg.norm(inward))
    tracing = load_tracing()
    tracer = tracing.install()
    try:
        r._insert(Census(r.mesh, r.mesh.probe_insert(p)), 3, -1, guards=True)
    finally:
        tracer.uninstall()
    assert r.stats["rollback_sigma"] == 1
    metrics = tracing.per_layer(tracer, r.stats, 0)
    assert metrics["delaunay.remove_point.calls"] == 1
    assert metrics["refine.rollbacks"] == 1
