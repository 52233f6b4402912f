"""Restricted Delaunay tetrahedral meshing of piecewise smooth complexes.

Inputs are discrete: a polyline curve network, a triangle-soup surface and
the volume it encloses.  The mesher maintains an ambient Delaunay
tetrahedralisation and refines the sub-complexes whose Voronoi duals meet
the curves, the surface and the volume until every element satisfies its
size, shape, surface-error and topological-disk constraint.  Both a
classical circumcentre scheme and a frontal off-centre scheme are
provided; sharply acute curve pairs are fenced with isosceles collars and
slivers are suppressed through a volume-length floor.
"""

from .config import GridSizing, RefineConfig, SizingField, check_termination_bounds
from .delaunay import TetMesh, circumcentre_triangle, circumsphere_tet
from .errors import (GeometryError, MeshError, ParseError, ProtectionError,
                     PscError, ValidationError)
from .geometry import PiecewiseComplex, load_complex, parse_complex, \
    write_complex
from .predicates import insphere, orient3d
from .quality import (QualityReport, area_length, build_report,
                      dihedral_angles, relative_edge_length, triangle_angles,
                      volume_length, write_report)
from .refine import (RefineResult, Refiner, protect_sharp_angles, refine,
                     select_refinement_point, violations)
from .restricted import (Restricted, classify_edge, classify_facet,
                         classify_tet, element_size, topo_disk_1, topo_disk_2)
from .vtk_io import read_vtk, write_vtk

__version__ = "0.1.0"
