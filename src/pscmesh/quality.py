"""Element quality measures and aggregate reporting.

The area-length and volume-length ratios are the robust shape measures
used for reporting and sliver control: ``a(f) = (4/sqrt(3)) A / rms(e)^2``
and ``v(tau) = 6 sqrt(2) V / rms(e)^3``, normalised so equilateral
triangles and regular tetrahedra score exactly 1.  Angles are reported in
degrees.  All functions are pure and operate on immutable snapshots, so
they can safely run concurrently.

``build_report`` measures all restricted simplexes at once, in numpy
passes over (3, n) coordinate arrays, and ``triangle_angles`` and
``dihedral_angles`` are one-row calls of the same kernels.  The report
is bit-for-bit the one a per-element Python loop writes
(``tests/oracles.py::report_reference``), because the passes keep every
float operation of that loop:

* the same association order: dot and cross products go through
  ``geometry._dot`` / ``_cross`` on component rows, so a dot product is
  ``(x0*y0 + x1*y1) + x2*y2``; ``sum``, ``einsum`` and ``@`` may
  reassociate it;
* the libm ``atan2``: each angle is ``math.degrees(math.atan2(y, x))``
  of one element, since ``np.arctan2``'s SIMD loops can round the last
  bit differently;
* the same element order, since the mean is summed in it: triangles in
  table order, corners 0, 1, 2; tets in table order, edges (0,1), (0,2),
  (0,3), (1,2), (1,3), (2,3); edges sorted.
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
    """Normalised volume-length ratio; 1 for regular, 0 for coplanar and
    for edges so short (below about 1e-108) that rms(e)^3 underflows."""
    ab = _sub(pb, pa)
    ac = _sub(pc, pa)
    ad = _sub(pd, pa)
    bc = _sub(pc, pb)
    bd = _sub(pd, pb)
    cd = _sub(pd, pc)
    vol = abs(_dot(ab, _cross(ac, ad))) / 6.0
    ms = (_dot(ab, ab) + _dot(ac, ac) + _dot(ad, ad)
          + _dot(bc, bc) + _dot(bd, bd) + _dot(cd, cd)) / 6.0
    den = ms ** 1.5
    return _V_NORM * vol / den if den else 0.0


_TRI_EDGES = ((0, 1), (1, 2), (0, 2))
_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _angle_terms(u, v):
    """(|u x v|, u . v), the atan2 arguments of the angle between u and v."""
    c = _cross(u, v)
    return np.sqrt(_dot(c, c)), _dot(u, v)


def _degrees(y, x):
    """``math.degrees(math.atan2(y, x))`` of each element, in row-major
    order."""
    return list(map(math.degrees, map(math.atan2, y.ravel().tolist(),
                                      x.ravel().tolist())))


def _triangle_terms(pts):
    """The atan2 arguments of the corner angles of n triangles, two (n, 3)
    arrays; ``pts`` holds the corners as (3, n) coordinate arrays."""
    ys, xs = zip(*(_angle_terms(_sub(pts[(i + 1) % 3], pts[i]),
                                _sub(pts[(i + 2) % 3], pts[i]))
                   for i in range(3)))
    return np.stack(ys, axis=1), np.stack(xs, axis=1)


def _dihedral_terms(pts):
    """The atan2 arguments of the dihedral angles of n tetrahedra at the
    edges of ``_TET_EDGES``, two (n, 6) arrays; ``pts`` holds the corners
    as (3, n) coordinate arrays.  A zero-length edge gets y = NaN.

    For each edge the angle is measured between the in-face
    perpendiculars toward the two opposite vertices.
    """
    ys, xs = [], []
    # as float arithmetic in Python: an overflow gives inf, 0/0 NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for (i, j) in _TET_EDGES:
            d = _sub(pts[j], pts[i])
            dn = _dot(d, d)

            def perp(k):
                w = _sub(pts[k], pts[i])
                s = _dot(w, d) / dn
                return (w[0] - s * d[0], w[1] - s * d[1], w[2] - s * d[2])

            k, l = (k for k in range(4) if k not in (i, j))
            y, x = _angle_terms(perp(k), perp(l))
            ys.append(np.where(dn == 0.0, np.nan, y))
            xs.append(x)
    return np.stack(ys, axis=1), np.stack(xs, axis=1)


def _columns(*pts):
    """The points as (3, 1) coordinate arrays: one row for a kernel."""
    return [np.asarray(p, dtype=np.float64).reshape(3, 1) for p in pts]


def triangle_angles(pa, pb, pc):
    """Interior angles in degrees."""
    return _degrees(*_triangle_terms(_columns(pa, pb, pc)))


def dihedral_angles(pa, pb, pc, pd):
    """The six interior dihedral angles of a tetrahedron, in degrees, at
    the edges (0,1), (0,2), (0,3), (1,2), (1,3), (2,3); NaN at an edge of
    length 0."""
    return _degrees(*_dihedral_terms(_columns(pa, pb, pc, pd)))


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
    """Aggregate quality metrics over the restricted complexes.

    ``mesh.points`` maps each vertex id of a restricted key to its point;
    any mapping will do.
    """
    rep = QualityReport()
    rep.wall_time = wall_time
    rep.converged = converged
    rep.counts["curve_edges"] = len(restricted.edges)
    rep.counts["surface_tris"] = len(restricted.tris)
    rep.counts["volume_tets"] = len(restricted.tets)
    keys = [np.array(list(table), dtype=np.int64).reshape(-1, width)
            for table, width in ((restricted.edges, 2), (restricted.tris, 3),
                                 (restricted.tets, 4))]
    used = np.unique(np.concatenate([k.ravel() for k in keys]))
    rep.counts["points"] = len(used)
    coords = np.array([mesh.points[v] for v in used.tolist()],
                      dtype=np.float64).reshape(-1, 3).T
    edges, tris, tets = (np.searchsorted(used, k) for k in keys)

    def corners(ids):
        return [coords[:, col] for col in ids.T]

    # the records' area-lengths, and their volume-lengths, which
    # Refiner.audit certified
    rep._add_metric("area_length",
                    [f.quality for f in restricted.tris.values()])
    rep._add_metric("volume_length",
                    [t.quality for t in restricted.tets.values()])
    rep._add_metric("tri_angle", _degrees(*_triangle_terms(corners(tris))))
    dih = np.reshape(_degrees(*_dihedral_terms(corners(tets))), (-1, 6))
    rep._add_metric("dihedral_angle", dih[np.isfinite(dih).all(axis=1)])
    # every edge once, sorted: u * n + w orders the pairs (u, w) as tuples
    n = len(used)
    pairs = np.concatenate([edges] + [tris[:, list(e)] for e in _TRI_EDGES]
                           + [tets[:, list(e)] for e in _TET_EDGES])
    u, w = np.divmod(np.unique(pairs[:, 0] * n + pairs[:, 1]), n)
    pa, pb = coords[:, u], coords[:, w]
    d = pb - pa
    mids = ((pa + pb) / 2.0).T.tolist()
    h = np.array([sizing.value(m) for m in mids], dtype=np.float64)
    rep._add_metric("rel_edge_length", np.sqrt(_dot(d, d)) / h)
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
