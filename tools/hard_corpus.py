"""The hard-input corpus: small inputs that reach the driver's safety nets.

The benchmark meshes never fire ``disk1``, ``disk2``, ``rollback_gamma``
or ``duplicates``, so a change that breaks or slows those paths shows in
no digest diff.  Each model here is an input and a uniform size h, built
in process from ``pscmesh.models``; ``mesh_digests.py --corpus hard``
refines each in both insertion modes at jitter seeds 0 and 1:

- ``slab`` and ``needle``: the boxes 1 x 1 x 0.05 and 1 x 0.05 x 0.05
  (6 patches, 12 crease curves), whose thin sides fire the disk repairs;
- ``wedge-rot-0.5`` and ``wedge-rot-0.7``: ``wedge()`` rotated by
  ``random_rotation(default_rng(34877))``, whose tilted creases fire the
  disk repairs and the curve rollback;
- ``wedge5``, ``wedge10`` and ``wedge30``: ``wedge()`` with those apex
  angles, whose collars reject Steiner points (``rejected_protected``);
- ``cube-rot``: ``cube()`` rotated by ``random_rotation(default_rng(5))``,
  a tilted box whose large triangles' boxes fill the volume.

Tests import ``random_rotation``, ``rotated`` and ``box`` from here.
"""

from collections import namedtuple

import numpy as np

from pscmesh.geometry import PiecewiseComplex
from pscmesh.models import cube, wedge

# ``make()`` builds the input; h is the uniform size it is refined at
Model = namedtuple("Model", "name make h")


def random_rotation(rng):
    """Haar-ish random rotation from a QR decomposition."""
    M = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def rotated(base, seed):
    """``base`` rotated by ``random_rotation(default_rng(seed))``."""
    rot = random_rotation(np.random.default_rng(seed))
    return PiecewiseComplex(base.vertices @ rot.T, base.segments,
                            base.triangles)


def box(lx, ly, lz):
    """The box [0, lx] x [0, ly] x [0, lz]: ``cube()`` scaled per axis."""
    base = cube()
    return PiecewiseComplex(base.vertices * np.array([lx, ly, lz]),
                            base.segments, base.triangles)


CORPUS = {m.name: m for m in (
    Model("slab", lambda: box(1.0, 1.0, 0.05), 0.3),
    Model("needle", lambda: box(1.0, 0.05, 0.05), 0.3),
    Model("wedge-rot-0.5", lambda: rotated(wedge(), 34877), 0.5),
    Model("wedge-rot-0.7", lambda: rotated(wedge(), 34877), 0.7),
    Model("wedge5", lambda: wedge(5.0), 0.5),
    Model("wedge10", lambda: wedge(10.0), 0.5),
    Model("wedge30", lambda: wedge(30.0), 0.5),
    Model("cube-rot", lambda: rotated(cube(), 5), 0.5),
)}
