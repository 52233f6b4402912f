"""The traced benchmark patches pscmesh functions by name.

``perfbench/tracing.py`` looks up every name it wraps; this test installs
and uninstalls it so that a rename or deletion of a traced name fails here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    refine = importlib.import_module("pscmesh.refine")
    setup = refine.Refiner.setup
    classify_edge = refine.classify_edge
    tracer = tracing.install()
    assert refine.Refiner.setup is not setup
    tracer.uninstall()
    assert refine.Refiner.setup is setup
    assert refine.classify_edge is classify_edge
