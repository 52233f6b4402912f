"""Legacy ASCII VTK output of the restricted complexes, plus a reader.

One unstructured grid holds line cells for the curve complex, triangle
cells for the surface complex and tetrahedra for the volume complex.
Every cell-data column is read from the cell's ``restricted.Restricted``
record, the one ``Refiner.audit`` certifies: ``radius_edge`` (``rho``,
1/2 for lines), ``quality`` (area-length / volume-length, 0 for lines)
and ``feature_id`` (curve / patch id, -1 for tets).  Floats are written
with ``repr`` so a reader recovers them bit-exactly.
"""

# VTK cell type by vertex count: line, triangle, tetrahedron
_CELL_TYPE = {2: "3", 3: "5", 4: "10"}


def write_vtk(path, mesh, restricted):
    cells = [s for d in (1, 2, 3)
             for _key, s in sorted(restricted.table[d].items())]
    used = []
    seen = {}
    for s in cells:
        for v in s.key:
            if v not in seen:
                seen[v] = len(used)
                used.append(v)
    lines = ["# vtk DataFile Version 3.0", "pscmesh output", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {len(used)} double"]
    for v in used:
        p = mesh.points[v]
        lines.append(f"{p[0]!r} {p[1]!r} {p[2]!r}")
    lines.append(f"CELLS {len(cells)} {sum(len(s.key) + 1 for s in cells)}")
    for s in cells:
        lines.append(" ".join([str(len(s.key))]
                              + [str(seen[v]) for v in s.key]))
    lines.append(f"CELL_TYPES {len(cells)}")
    lines.extend(_CELL_TYPE[len(s.key)] for s in cells)
    lines.append(f"CELL_DATA {len(cells)}")
    for name, kind, field in (("radius_edge", "double", "rho"),
                              ("quality", "double", "quality"),
                              ("feature_id", "int", "ref")):
        lines.append(f"SCALARS {name} {kind} 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(repr(getattr(s, field)) for s in cells)

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
