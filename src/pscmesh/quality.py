"""Element quality measures and aggregate reporting.

The area-length and volume-length ratios are the robust shape measures
used for reporting and sliver control: ``a(f) = (4/sqrt(3)) A / rms(e)^2``
and ``v(tau) = 6 sqrt(2) V / rms(e)^3``, normalised so equilateral
triangles and regular tetrahedra score exactly 1.  Angles are reported in
degrees.  All functions are pure and operate on immutable snapshots, so
they can safely run concurrently.
"""

import math

import numpy as np

from .geometry import _cross, _dot, _norm, _sub

_A_NORM = 4.0 / math.sqrt(3.0)
_V_NORM = 6.0 * math.sqrt(2.0)

HIST_BINS = 64
HIST_RANGES = {
    "area_length": (0.0, 1.0),
    "volume_length": (0.0, 1.0),
    "tri_angle": (0.0, 180.0),
    "dihedral_angle": (0.0, 180.0),
    "rel_edge_length": (0.0, 2.0),  # values beyond 2 land in the top bin
}


def area_length(pa, pb, pc):
    """Normalised area-length ratio; 1 for equilateral, 0 for collinear."""
    ab = _sub(pb, pa)
    ac = _sub(pc, pa)
    bc = _sub(pc, pb)
    area = 0.5 * _norm(_cross(ab, ac))
    ms = (_dot(ab, ab) + _dot(ac, ac) + _dot(bc, bc)) / 3.0
    if ms == 0.0:
        return 0.0
    return _A_NORM * area / ms


def volume_length(pa, pb, pc, pd):
    """Normalised volume-length ratio; 1 for regular, 0 for coplanar."""
    ab = _sub(pb, pa)
    ac = _sub(pc, pa)
    ad = _sub(pd, pa)
    bc = _sub(pc, pb)
    bd = _sub(pd, pb)
    cd = _sub(pd, pc)
    vol = abs(_dot(ab, _cross(ac, ad))) / 6.0
    ms = (_dot(ab, ab) + _dot(ac, ac) + _dot(ad, ad)
          + _dot(bc, bc) + _dot(bd, bd) + _dot(cd, cd)) / 6.0
    if ms == 0.0:
        return 0.0
    return _V_NORM * vol / ms ** 1.5


def triangle_angles(pa, pb, pc):
    """Interior angles in degrees."""
    out = []
    pts = (pa, pb, pc)
    for i in range(3):
        u = _sub(pts[(i + 1) % 3], pts[i])
        v = _sub(pts[(i + 2) % 3], pts[i])
        out.append(math.degrees(math.atan2(_norm(_cross(u, v)), _dot(u, v))))
    return out


def dihedral_angles(pa, pb, pc, pd):
    """The six interior dihedral angles of a tetrahedron, in degrees.

    For each edge the angle is measured between the in-face
    perpendiculars toward the two opposite vertices.
    """
    pts = (pa, pb, pc, pd)
    out = []
    for (i, j) in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        k, l = (x for x in range(4) if x not in (i, j))
        d = _sub(pts[j], pts[i])
        dn = _dot(d, d)
        if dn == 0.0:
            out.append(float("nan"))
            continue

        def perp(x):
            w = _sub(pts[x], pts[i])
            s = _dot(w, d) / dn
            return (w[0] - s * d[0], w[1] - s * d[1], w[2] - s * d[2])

        u = perp(k)
        v = perp(l)
        out.append(math.degrees(math.atan2(_norm(_cross(u, v)), _dot(u, v))))
    return out


def relative_edge_length(pa, pb, sizing):
    """Edge length over the sizing-field target at the edge midpoint."""
    mid = ((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0, (pa[2] + pb[2]) / 2.0)
    return _norm(_sub(pb, pa)) / sizing.value(mid)


class QualityReport:
    """Histograms, summary statistics and element counts of a mesh."""

    def __init__(self):
        self.counts = {"curve_edges": 0, "surface_tris": 0, "volume_tets": 0,
                       "points": 0}
        self.histograms = {}
        self.summary = {}
        self.wall_time = 0.0
        self.converged = True

    def _add_metric(self, name, values):
        lo, hi = HIST_RANGES[name]
        vals = np.asarray(values, dtype=np.float64)
        vals = vals[np.isfinite(vals)]
        if len(vals):
            clipped = np.clip(vals, lo, hi)
            hist, _edges = np.histogram(clipped, bins=HIST_BINS, range=(lo, hi))
            self.summary[name] = {
                "min": float(vals.min()), "max": float(vals.max()),
                "mean": float(vals.mean()), "median": float(np.median(vals)),
            }
        else:
            hist = np.zeros(HIST_BINS, dtype=np.int64)
            self.summary[name] = {"min": 0.0, "max": 0.0,
                                  "mean": 0.0, "median": 0.0}
        self.histograms[name] = hist.astype(np.int64)


def build_report(mesh, restricted, sizing, wall_time=0.0, converged=True):
    """Aggregate quality metrics over the restricted complexes."""
    rep = QualityReport()
    rep.wall_time = wall_time
    rep.converged = converged
    pts = mesh.points

    rep.counts["curve_edges"] = len(restricted.edges)
    rep.counts["surface_tris"] = len(restricted.tris)
    rep.counts["volume_tets"] = len(restricted.tets)
    used = set()
    for key in restricted.edges:
        used.update(key)
    for key in restricted.tris:
        used.update(key)
    for key in restricted.tets:
        used.update(key)
    rep.counts["points"] = len(used)

    # the records' area-lengths, and their volume-lengths, which
    # Refiner.audit certified
    a_vals = [f.quality for f in restricted.tris.values()]
    v_vals = [t.quality for t in restricted.tets.values()]
    tri_angs = []
    for key in restricted.tris:
        tri_angs.extend(triangle_angles(*(pts[v] for v in key)))
    dih_angs = []
    for key in restricted.tets:
        angs = dihedral_angles(*(pts[v] for v in key))
        if all(math.isfinite(x) for x in angs):
            dih_angs.extend(angs)
    edges = set(restricted.edges)
    for key in restricted.tris:
        a, b, c = key
        edges.update(((a, b), (b, c), (a, c)))
    for key in restricted.tets:
        a, b, c, d = key
        edges.update(((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))
    h_r = [relative_edge_length(pts[u], pts[w], sizing)
           for (u, w) in sorted(edges)]

    rep._add_metric("area_length", a_vals)
    rep._add_metric("volume_length", v_vals)
    rep._add_metric("tri_angle", tri_angs)
    rep._add_metric("dihedral_angle", dih_angs)
    rep._add_metric("rel_edge_length", h_r)
    return rep


def write_report(report, path):
    """Serialise a report as a deterministic key-value text document.

    Timing is deliberately left to the run manifest so that identical runs
    produce byte-identical report files.
    """
    lines = ["format = pscmesh-report-v1",
             f"converged = {int(report.converged)}"]
    for key in sorted(report.counts):
        lines.append(f"count.{key} = {report.counts[key]}")
    for name in sorted(report.summary):
        s = report.summary[name]
        for stat in ("min", "max", "mean", "median"):
            lines.append(f"metric.{name}.{stat} = {s[stat]!r}")
    for name in sorted(report.histograms):
        vals = " ".join(str(int(x)) for x in report.histograms[name])
        lines.append(f"hist.{name} = {vals}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
