"""Legacy ASCII VTK output of the restricted complexes, plus a reader.

One unstructured grid holds line cells for the curve complex, triangle
cells for the surface complex and tetrahedra for the volume complex.
Cell data: ``radius_edge`` (rho), ``quality`` (area-length / volume-length,
0 for lines) and ``feature_id`` (curve / patch id, -1 for tets).  The
triangles' and tets' rho and the tets' volume-length are the values of
their restricted records, the ones ``Refiner.audit`` certifies.  Floats
are written with ``repr`` so a reader recovers them bit-exactly.
"""

from .quality import area_length


def write_vtk(path, mesh, restricted):
    edges = sorted(restricted.edges)
    tris = sorted(restricted.tris)
    tets = sorted(restricted.tets)
    used = []
    seen = {}
    for cell in edges + tris + tets:
        for v in cell:
            if v not in seen:
                seen[v] = len(used)
                used.append(v)
    lines = ["# vtk DataFile Version 3.0", "pscmesh output", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {len(used)} double"]
    for v in used:
        p = mesh.points[v]
        lines.append(f"{p[0]!r} {p[1]!r} {p[2]!r}")
    ncells = len(edges) + len(tris) + len(tets)
    size = 3 * len(edges) + 4 * len(tris) + 5 * len(tets)
    lines.append(f"CELLS {ncells} {size}")
    for e in edges:
        lines.append(f"2 {seen[e[0]]} {seen[e[1]]}")
    for f in tris:
        lines.append(f"3 {seen[f[0]]} {seen[f[1]]} {seen[f[2]]}")
    for t in tets:
        lines.append(f"4 {seen[t[0]]} {seen[t[1]]} {seen[t[2]]} {seen[t[3]]}")
    lines.append(f"CELL_TYPES {ncells}")
    lines.extend(["3"] * len(edges))
    lines.extend(["5"] * len(tris))
    lines.extend(["10"] * len(tets))
    lines.append(f"CELL_DATA {ncells}")

    lines.append("SCALARS radius_edge double 1")
    lines.append("LOOKUP_TABLE default")
    for e in edges:
        lines.append(repr(0.5))
    for f in tris:
        lines.append(repr(restricted.tris[f].rho))
    for t in tets:
        lines.append(repr(restricted.tets[t].rho))

    lines.append("SCALARS quality double 1")
    lines.append("LOOKUP_TABLE default")
    for e in edges:
        lines.append(repr(0.0))
    for f in tris:
        pa, pb, pc = (mesh.points[v] for v in f)
        lines.append(repr(area_length(pa, pb, pc)))
    for t in tets:
        lines.append(repr(restricted.tets[t].vlen))

    lines.append("SCALARS feature_id int 1")
    lines.append("LOOKUP_TABLE default")
    for e in edges:
        lines.append(str(restricted.edges[e].curve_id))
    for f in tris:
        lines.append(str(restricted.tris[f].patch_id))
    for t in tets:
        lines.append("-1")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class VtkGrid:
    """Parsed unstructured grid (only what the writer emits)."""

    def __init__(self, points, cells, cell_types, cell_data):
        self.points = points
        self.cells = cells
        self.cell_types = cell_types
        self.cell_data = cell_data

    @property
    def line_cells(self):
        return [c for c, t in zip(self.cells, self.cell_types) if t == 3]

    @property
    def triangle_cells(self):
        return [c for c, t in zip(self.cells, self.cell_types) if t == 5]

    @property
    def tet_cells(self):
        return [c for c, t in zip(self.cells, self.cell_types) if t == 10]


def read_vtk(path):
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split("\n")
    idx = 0

    def expect(prefix):
        nonlocal idx
        while idx < len(tokens) and not tokens[idx].strip():
            idx += 1
        line = tokens[idx]
        if not line.startswith(prefix):
            raise ValueError(f"expected {prefix!r}, found {line!r}")
        idx += 1
        return line

    expect("# vtk DataFile")
    idx += 1  # title
    expect("ASCII")
    expect("DATASET UNSTRUCTURED_GRID")
    npts = int(expect("POINTS").split()[1])
    points = []
    for _ in range(npts):
        parts = tokens[idx].split()
        idx += 1
        points.append((float(parts[0]), float(parts[1]), float(parts[2])))
    ncells = int(expect("CELLS").split()[1])
    cells = []
    for _ in range(ncells):
        parts = [int(x) for x in tokens[idx].split()]
        idx += 1
        cells.append(tuple(parts[1:1 + parts[0]]))
    expect("CELL_TYPES")
    cell_types = []
    for _ in range(ncells):
        cell_types.append(int(tokens[idx]))
        idx += 1
    cell_data = {}
    if idx < len(tokens) and tokens[idx].startswith("CELL_DATA"):
        idx += 1
        while idx < len(tokens) and tokens[idx].startswith("SCALARS"):
            name = tokens[idx].split()[1]
            kind = tokens[idx].split()[2]
            idx += 2  # SCALARS + LOOKUP_TABLE
            vals = []
            for _ in range(ncells):
                vals.append(float(tokens[idx]) if kind == "double"
                            else int(tokens[idx]))
                idx += 1
            cell_data[name] = vals
    return VtkGrid(points, cells, cell_types, cell_data)
