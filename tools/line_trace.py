"""Report the lines of ``src/pscmesh`` that the benchmark meshes never run.

This refines the meshes that ``mesh_digests.py`` refines, with the same
arguments (workloads, ``--seeds``, ``--mode``) and the same steps: the
input file round trip, ``refine``, ``write_vtk`` and ``write_report``.
A ``sys.settrace`` tracer records every line that runs in a frame of the
package, and the previous tracer is restored afterwards.  Then one line
is printed for each function of the package that has lines it never ran,
in file and line order:

    delaunay.py TetMesh._contains 403-413 never
    refine.py Refiner._step 512-590 lines=530,541-543

``never`` marks a function that was not entered at all, and ``first-last``
is its line span.  ``lines=`` lists the lines that did not run, where a
run of them with no line that ran in between reads ``a-b``.  A function's
lines are those its code object lists (``co_lines()``), less its ``def``
line; module and class bodies, which run at import, are not reported.
The functions are found from the code the process imported (the
functions, classes, methods and containers of each module's namespace,
and the code nested in them), not from the files, so an edit of a file
during a run moves none of its spans.
The output depends on nothing but the source and the arguments, so two
checkouts compare by ``diff``.  It backs a claim that production never
calls some code with a measurement.

    python3 tools/line_trace.py --seeds 2 crease
"""

import importlib
import inspect
import sys
import tempfile
import types
from pathlib import Path

from mesh_digests import WORKLOADS, mesh_seeds, parse_args, refine_mesh

import pscmesh

PACKAGE = Path(pscmesh.__file__).resolve().parent


def modules():
    """The modules of the package in file order, each imported."""
    return [importlib.import_module(
        "pscmesh" if path.stem == "__init__" else f"pscmesh.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))]


def functions(module):
    """{(first line, qualified name): line numbers} of the functions,
    lambdas and comprehensions of one module, from the code the process
    imported: an edit of the file since then moves none of its lines."""
    objs, seen, codes = list(vars(module).values()), set(), []
    while objs:
        obj = objs.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            codes.append(obj.__code__)
        elif isinstance(obj, type):
            if obj.__module__ == module.__name__:
                objs.extend(vars(obj).values())
        elif isinstance(obj, (staticmethod, classmethod)):
            objs.append(obj.__func__)
        elif isinstance(obj, property):
            objs.extend((obj.fget, obj.fset, obj.fdel))
        elif isinstance(obj, dict):
            objs.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            objs.extend(obj)
    out = {}
    while codes:
        code = codes.pop()
        if code.co_filename != module.__file__:
            continue  # imported from elsewhere
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a class body
            key = (code.co_firstlineno,
                   getattr(code, "co_qualname", code.co_name))
            out.setdefault(key, set()).update(
                line for _start, _end, line in code.co_lines()
                if line is not None)
    return out


def tracer(files, ran):
    """A global trace function that adds the lines run in frames of
    ``files`` to ``ran[(file, first line, qualified name)]``."""
    local = {}

    def trace(frame, _event, _arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        fn = local.get(code)
        if fn is None:
            key = (code.co_filename, code.co_firstlineno,
                   getattr(code, "co_qualname", code.co_name))
            add = ran.setdefault(key, set()).add

            def fn(frame, event, _arg):
                if event == "line":
                    add(frame.f_lineno)
                return fn
            local[code] = fn
        return fn
    return trace


def missed_runs(lines, ran):
    """``lines`` that are not in ``ran``, as ``a`` or ``a-b`` runs with no
    line of ``ran`` between their ends."""
    runs = []
    last = None
    for line in sorted(lines):
        if line in ran:
            last = None
        elif last is None:
            runs.append([line, line])
            last = runs[-1]
        else:
            last[1] = line
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(ran):
    """The output lines for the recorded ``ran``."""
    out = []
    for module in modules():
        name = Path(module.__file__).name
        for (first, qualname), lines in sorted(functions(module).items()):
            span = f"{name} {qualname} {first}-{max(lines | {first})}"
            body = lines - {first}
            got = ran.get((module.__file__, first, qualname))
            if got is None:
                out.append(f"{span} never")
            elif body - got:
                out.append(f"{span} lines={missed_runs(body, got)}")
    return out


def main(argv=None):
    names, args = parse_args(__doc__, argv)
    files = {module.__file__ for module in modules()}
    ran = {}
    with tempfile.TemporaryDirectory() as tmp:
        previous = sys.gettrace()
        sys.settrace(tracer(files, ran))
        try:
            for name in names:
                for seed in range(args.seeds):
                    for mesh_seed in mesh_seeds(WORKLOADS[name], seed):
                        refine_mesh(WORKLOADS[name], mesh_seed, Path(tmp),
                                    args.mode)
        finally:
            sys.settrace(previous)
    for line in report(ran):
        print(line)


if __name__ == "__main__":
    main()
