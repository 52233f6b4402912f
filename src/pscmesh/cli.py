"""Command-line entry point.

``pscmesh --input model.psc`` refines the input and writes a VTK mesh, a
quality report and a run manifest.  ``--compare`` runs both point-placement
modes on the same input, writes the three files of each with the mode
appended to their names, and prints a side-by-side summary.  Exit codes:
0 converged, 2 stopped at the point budget (partial output still written),
1 any error.
"""

import argparse
import sys
import time
from dataclasses import fields, replace

from .config import GridSizing, RefineConfig, SizingField
from .errors import PscError, ValidationError
from .geometry import load_complex, read_text
from .quality import write_report
from .refine import refine
from .vtk_io import write_vtk


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through PscError so
    # every CLI failure maps to exit code 1 and maxPoints keeps code 2
    def error(self, message):
        raise ValidationError(message)


def build_parser():
    p = _Parser(prog="pscmesh", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--input", required=True, help="geometry file (.psc)")
    p.add_argument("--output", default=None, help="mesh output (.vtk)")
    p.add_argument("--report", default=None, help="quality report path")
    p.add_argument("--manifest", default=None, help="run manifest path")
    # defaults come from RefineConfig so the two cannot drift apart
    cfg = RefineConfig
    p.add_argument("--mode", choices=("classical", "frontal"),
                   default=cfg.mode)
    p.add_argument("--rho-surf", type=float, default=cfg.rho_surf,
                   help="surface radius-edge bound (default %(default)g)")
    p.add_argument("--rho-vol", type=float, default=cfg.rho_vol,
                   help="volume radius-edge bound (default %(default)g)")
    p.add_argument("--eps-rel", type=float, default=cfg.eps_rel,
                   help="surface error as a fraction of the local size")
    p.add_argument("--hfun", default=None,
                   help="uniform size VALUE or grid:PATH (default: 3%% of "
                        "the mean bounding-box dimension)")
    p.add_argument("--vlen-min", type=float, default=cfg.vlen_min,
                   help="volume-length floor for sliver refinement")
    p.add_argument("--alpha", type=float, default=cfg.alpha,
                   help="size-constraint slack factor")
    p.add_argument("--collar-beta", type=float, default=cfg.collar_beta,
                   help="protecting-collar spacing factor")
    p.add_argument("--max-points", type=int, default=cfg.max_points,
                   help="stop refining once the mesh has held this many "
                        "vertices besides its 8 box corners, setup's and "
                        "rolled-back ones included (default %(default)d)")
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--compare", action="store_true",
                   help="run classical and frontal modes and summarise both")
    return p


def load_sizing(arg, geom):
    """Resolve --hfun into a uniform ``SizingField`` (3% of the mean
    bounding-box dimension when unset) or a grid:PATH's ``GridSizing``."""
    if arg is None:
        lo, hi = geom.bounds
        mean_dim = sum(hi[i] - lo[i] for i in range(3)) / 3.0
        return SizingField(h0=0.03 * mean_dim)
    if arg.startswith("grid:"):
        return _load_grid(arg[5:])
    try:
        return SizingField(h0=float(arg))
    except ValueError as exc:
        raise ValidationError(f"bad --hfun value {arg!r}") from exc


def _load_grid(path):
    header = {}
    values = []
    text = read_text(path, "sizing grid")
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, *rest = line.split()
        try:
            if word in ("dims", "origin", "spacing"):
                if word in header:
                    raise ValueError(f"a second {word} line")
                if len(rest) != 3:
                    raise ValueError(f"{word} needs 3 values, not {len(rest)}")
                kind = int if word == "dims" else float
                header[word] = [kind(x) for x in rest]
            else:
                values.extend(float(x) for x in
                              (rest if word == "values" else [word, *rest]))
        except ValueError as exc:
            raise ValidationError(
                f"sizing grid {path!r} line {lineno}: {exc}") from exc
    if len(header) < 3:
        raise ValidationError(f"sizing grid {path!r} missing dims/origin/spacing")
    return GridSizing(header["origin"], header["spacing"], header["dims"],
                      values)


def make_config(args, geom):
    # every other field has a flag of the same name
    return RefineConfig(sizing=load_sizing(args.hfun, geom),
                        **{f.name: getattr(args, f.name)
                           for f in fields(RefineConfig) if f.name != "sizing"})


def _default_paths(args):
    # the unset paths share the stem of --output (.vtk cut) when it is
    # given, else of the input (.psc cut)
    path, ext = (args.output, ".vtk") if args.output else (args.input, ".psc")
    stem = path[:-4] if path.endswith(ext) else path
    out = args.output or stem + ".vtk"
    rep = args.report or stem + ".report.txt"
    man = args.manifest or stem + ".manifest.txt"
    return out, rep, man


def _write_manifest(path, args, cfg, result, timings, outputs):
    lines = ["format = pscmesh-manifest-v1",
             f"input = {args.input}",
             f"seed = {cfg.seed}",
             f"mode = {cfg.mode}",
             f"status = {result.status}"]
    for k in sorted(outputs):
        lines.append(f"output.{k} = {outputs[k]}")
    # seed and mode head the manifest; sizing is written as cfg.hfun
    lines.extend(f"cfg.{f.name} = {getattr(cfg, f.name)!r}"
                 for f in fields(RefineConfig)
                 if f.name not in ("sizing", "mode", "seed"))
    gridded = isinstance(cfg.sizing, GridSizing)
    lines.append(f"cfg.hfun = {'gridded' if gridded else repr(cfg.sizing.h0)}")
    for k in sorted(timings):
        key = k if k.startswith("stage.") else f"time.{k}"
        lines.append(f"{key}_s = {timings[k]:.3f}")
    for k in sorted(result.stats):
        lines.append(f"stats.{k} = {result.stats[k]}")
    for k in sorted(result.audit):
        lines.append(f"audit.{k} = {int(result.audit[k])}")
    for i, w in enumerate(result.warnings):
        lines.append(f"warning.{i} = {w}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run(args):
    """Load, refine (both modes with --compare) and write outputs; returns
    the process exit code."""
    t0 = time.perf_counter()
    geom = load_complex(args.input)
    cfg = make_config(args, geom)
    out, rep, man = _default_paths(args)
    load_s = time.perf_counter() - t0
    results = {}
    for mode in ("classical", "frontal") if args.compare else (cfg.mode,):
        mode_cfg = replace(cfg, mode=mode)
        result = refine(geom, mode_cfg)
        # --compare appends the mode to every file name
        mesh_path, rep_path, man_path = (
            (f"{out}.{mode}.vtk", f"{rep}.{mode}.txt", f"{man}.{mode}.txt")
            if args.compare else (out, rep, man))
        t1 = time.perf_counter()
        write_vtk(mesh_path, result.mesh, result.rs)
        write_report(result.report, rep_path)
        timings = dict(result.timings, load=load_s,
                       write=time.perf_counter() - t1)
        _write_manifest(man_path, args, mode_cfg, result, timings,
                        {"mesh": mesh_path, "report": rep_path})
        results[mode] = result
    if args.compare:
        _print_comparison(results)
    else:
        counts = result.report.counts
        print(f"{result.status}: {counts['points']} points, "
              f"{counts['curve_edges']} curve edges, "
              f"{counts['surface_tris']} surface triangles, "
              f"{counts['volume_tets']} tets -> {out}")
    ok = all(r.status == "converged" for r in results.values())
    return 0 if ok else 2


def _print_comparison(results):
    """Side-by-side summary of a classical and a frontal run."""
    print(f"{'':24s}{'classical':>14s}{'frontal':>14s}")
    rows = [("status", lambda r: r.status),
            ("points", lambda r: r.report.counts["points"]),
            ("surface tris", lambda r: r.report.counts["surface_tris"]),
            ("volume tets", lambda r: r.report.counts["volume_tets"]),
            ("mean a(f)", lambda r: f"{r.report.summary['area_length']['mean']:.4f}"),
            ("mean v(tau)", lambda r: f"{r.report.summary['volume_length']['mean']:.4f}"),
            ("median h_r", lambda r: f"{r.report.summary['rel_edge_length']['median']:.4f}"),
            ("time [s]", lambda r: f"{r.timings['setup'] + r.timings['refine']:.2f}")]
    for label, fn in rows:
        print(f"{label:24s}{str(fn(results['classical'])):>14s}"
              f"{str(fn(results['frontal'])):>14s}")


def main(argv=None):
    parser = build_parser()
    try:
        return run(parser.parse_args(argv))
    except (PscError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
