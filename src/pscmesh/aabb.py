"""Axis-aligned bounding-box tree over geometric primitives.

Static structure built once over the input polylines / triangle soup and
queried read-only afterwards, so concurrent lookups are safe.  Split rule:
a node holds a contiguous range of the primitive permutation ``_perm``; it
is a leaf when the range has at most 8 primitives, else it sorts the range
stably by primitive box centre along the longest axis of its box and
splits it at the median position.  The build runs one level at a time in
numpy passes (the data-parallel build of Lauterbach et al., "Fast BVH
construction on GPUs", Eurographics 2009): one ``np.take`` gathers the
boxes in ``_perm`` order, ``np.minimum/maximum.reduceat`` gives the box of
every range of the level, and one ``np.argsort`` of the int keys
``(range * 3n + rank) * w + place`` sorts every range that splits.  The
rank is that of the primitive's box centre along the range's axis among
all 3n centre coordinates, ranked once per tree: equal coordinates share
a rank and a lower one has a lower rank.  The place is the position's
offset in its range and w the level's largest range, so the keys are
distinct and order the positions by range, then by centre, then by
position, exactly as a stable lexsort by (range, centre) does; distinct
keys need no stable sort, and numpy's default sort takes a quarter of
the stable sort's time on the top levels.  The ranges of a level differ
in size by at most one, so a level holds at most 9n / 8w of them and
every key is below 3.4 n^2, inside int64 for n up to 1.6e9.  A tree
whose root is a leaf ranks nothing.  Nodes are then numbered in
depth-first preorder, which visits them by the first position of their
range, an ancestor before the descendants that start where it starts; so
the nodes, the permutation and the order of tied centres are those of
the recursive median split.  The node entries of the walk are zipped from
the columns of the node arrays, so no list is built per node.

``query_box`` is the one traversal; it can also clip by the query's shape.
It applies the box test and the clips to every node it reaches and then
to each primitive of a leaf it reaches, by the primitive's own box, so
what it returns is what the tests pass, not whole leaves.  The clips
read a box's centre and half extents: a node entry carries them from the
build, rounded as the walk would round them, while a primitive entry
stays its 6-float box and the walk derives them from it, so the tree
grows by 6 floats per node rather than per primitive (0.36 MiB on
``icosphere(4)``'s 5,120 triangles).  A leaf tests its primitives in one
inner loop, in ``_perm`` order, rather than through the walk's stack.
Every test grows each box by the query's one ``pad``.  The box test keeps
a box that, grown by ``pad``, overlaps the query box.  ``seg=(p, q)``
drops a box that, grown by ``pad``, the segment misses: to the box test's
axes it adds d x e_x, d x e_y, d x e_z (d = q - p), which decide
segment-box overlap exactly (Ericson, *Real-Time Collision Detection*,
5.3.3) and need no division, so axis-parallel and zero-length segments
are no special case.  ``plane=(point, normal)`` drops a box that, grown
by ``pad``, lies strictly on one side of the plane.  ``ball=(centre,
radius)`` drops a box that, grown by ``pad``, lies strictly inside the
ball (farthest corner nearer than ``radius - pad``), which holds no point
of a circle of that radius about ``centre``.  A dropped node takes its
subtree with it, and a node box contains its primitives' boxes, so the
result is the order-preserving subsequence of the primitives, in tree
order, whose own boxes pass; no hit is lost while ``pad`` covers how far
outside a primitive's box its hit test still accepts one, on every axis
alike.  An exact crossing lies in its triangle, at distance 0, and only
the disk test has slack; ``geometry`` passes ``hit_pad``, far above the
tests' rounding and that slack.

``lower_distances`` bounds the distance from many points to the primitives
from below in a few numpy passes.  It measures the distance to the nearest box
of a fixed cover of the primitives: their own boxes when there are at most
``_COVER_BOXES`` of them, else the node boxes of the deepest full cut of
the tree that has at most ``_COVER_BOXES`` nodes.  Every box contains its
primitives, so no point is nearer a primitive than its nearest cover box.
"""

import numpy as np

_LEAF_SIZE = 8
_COVER_BOXES = 512
# entries of one (rows, K) block of ``lower_distances``: 64 KiB of floats
_BLOCK_ELEMENTS = 8192


class AABBTree:
    """Median-split box tree; ``query_box`` returns candidate primitive ids."""

    def __init__(self, boxes):
        boxes = np.asarray(boxes, dtype=np.float64)
        self.n = len(boxes)
        self._perm = []     # queries hand out Python ints
        # the node entries, then the primitive boxes in _perm order:
        # query_box reaches the box of _perm[i] at index i - n.  A node
        # entry is (lox, loy, loz, hix, hiy, hiz, left, right, first, count,
        # cx, cy, cz, hx, hy, hz): leaves have left == -1 and reference a
        # slice of self._perm, and c and h are the box's centre and half
        # extents
        self._walk = []
        cover = boxes.reshape(-1, 6)
        if self.n:
            levels = self._build(boxes)
            if self.n > _COVER_BOXES:
                cover = _cut(levels)
        self._cover = (np.ascontiguousarray(cover[:, :3].T),
                       np.ascontiguousarray(cover[:, 3:].T))

    def _build(self, boxes):
        """Build the tree one level at a time (see the module docstring);
        return the levels: each one's ranges [lo, hi) of ``_perm``, their
        boxes and which of them split."""
        n = self.n
        if n > _LEAF_SIZE:
            # the (3, n) dense ranks of the centre coordinates among all 3n
            # of them: equal ones (-0.0 and 0.0 too) share a rank
            centres = 0.5 * (boxes[:, :3] + boxes[:, 3:])
            rank = np.unique(centres.T, return_inverse=True)[1].reshape(3, n)
        # reduceat over lo0, hi0, lo1, hi1, ...: the even rows are the ranges'
        # boxes; a padding row n, last in perm, keeps index n in bounds
        padded = np.vstack((boxes, boxes[:1]))
        perm = np.arange(n + 1)
        levels = []
        lo, hi = np.zeros(1, dtype=np.intp), np.full(1, n, dtype=np.intp)
        while True:
            ranged = padded.take(perm, axis=0)
            bounds = _interleave(lo, hi)
            box = np.hstack((np.minimum.reduceat(ranged[:, :3], bounds),
                             np.maximum.reduceat(ranged[:, 3:], bounds)))[::2]
            split = hi - lo > _LEAF_SIZE
            levels.append((lo, hi, box, split))
            if not split.any():
                break
            lo, hi, box = lo[split], hi[split], box[split]
            # each split range sorts along its longest axis, by the keys
            # (range, rank, place in the range) packed into one int, built
            # in place so that few arrays of n ints live at once
            axis = np.argmax(box[:, 3:] - box[:, :3], axis=1)
            size = hi - lo
            width = int(size.max())
            place = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size,
                                                      size)
            pos = np.repeat(lo, size) + place
            ids = perm[pos]
            key = rank.take(np.repeat(axis * n, size) + ids)
            key *= width
            key += place
            del place
            key += np.repeat(np.arange(len(lo)) * (3 * n * width), size)
            perm[pos] = ids[key.argsort()]
            mid = lo + size // 2
            lo, hi = _interleave(lo, mid), _interleave(mid, hi)
        # preorder: by first position, of equal ones the larger range (the
        # ancestor) first; the nodes below the root, in level order, are
        # the children of the split nodes in (left, right) pairs
        lo, hi, box, split = (np.concatenate(x) for x in zip(*levels))
        order = np.lexsort((lo - hi, lo))
        pre = np.empty_like(order)
        pre[order] = np.arange(len(order))
        left = np.full(len(pre), -1)
        right = left.copy()
        left[split], right[split] = pre[1::2], pre[2::2]
        links = np.column_stack((left, right, np.where(split, 0, lo),
                                 np.where(split, 0, hi - lo)))
        box = box[order]
        # the centres and half extents that the segment and plane clips
        # read, rounded as the walk rounds 0.5 * (lo + hi), 0.5 * (hi - lo)
        ch = np.hstack((0.5 * (box[:, :3] + box[:, 3:]),
                        0.5 * (box[:, 3:] - box[:, :3])))
        self._perm = perm[:n].tolist()
        self._walk = list(zip(*box.T.tolist(), *links[order].T.tolist(),
                              *ch.T.tolist()))
        self._walk += ranged[:n].tolist()
        return levels

    def lower_distances(self, points):
        """Distance from each of the (P, 3) points to its nearest cover box,
        a lower bound on its distance to every primitive (+inf for an
        empty tree)."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        lo, hi = self._cover
        k = lo.shape[1]
        if not k:
            return np.full(len(pts), np.inf)
        out = np.empty(len(pts))
        # per-axis squared gaps summed into (rows, K) blocks, never a
        # (P, K, 3) array; small blocks keep the temporaries off the heap top
        rows = max(1, _BLOCK_ELEMENTS // k)
        bufs = [np.empty((rows, k)) for _ in range(3)]
        for first in range(0, len(pts), rows):
            block = pts[first:first + rows]
            m = len(block)
            acc, gap, beyond = (b[:m] for b in bufs)
            acc.fill(0.0)
            for a in range(3):
                x = block[:, a:a + 1]
                np.subtract(lo[a], x, out=gap)
                np.subtract(x, hi[a], out=beyond)
                np.maximum(gap, beyond, out=gap)
                np.maximum(gap, 0.0, out=gap)
                np.multiply(gap, gap, out=gap)
                acc += gap
            out[first:first + m] = np.sqrt(acc.min(axis=1))
        return out

    def query_box(self, lo, hi, pad=0.0, seg=None, plane=None, ball=None):
        """Primitive ids whose own boxes, grown by ``pad``, overlap the
        axis-aligned box [lo, hi] and pass the ``seg``, ``plane`` and
        ``ball`` clips (see the module docstring), in tree order."""
        if not self.n:
            return []
        qx0 = lo[0] - pad; qy0 = lo[1] - pad; qz0 = lo[2] - pad
        qx1 = hi[0] + pad; qy1 = hi[1] + pad; qz1 = hi[2] + pad
        if seg is not None:
            (px, py, pz), (qx, qy, qz) = seg
            dx, dy, dz = qx - px, qy - py, qz - pz
            ax, ay, az = abs(dx), abs(dy), abs(dz)
            rx, ry, rz = pad * (ay + az), pad * (az + ax), pad * (ax + ay)
        if plane is not None:
            o, (nx, ny, nz) = plane
            off = nx * o[0] + ny * o[1] + nz * o[2]
            anx, any_, anz = abs(nx), abs(ny), abs(nz)
            rn = pad * (anx + any_ + anz)
        if ball is not None:
            (bx, by, bz), br = ball
            rin2 = (br - pad) ** 2 if br > pad else -1.0
        n = self.n
        out = []
        stack = [0]
        walk = self._walk
        perm = self._perm
        while stack:
            nd = walk[stack.pop()]
            if (nd[3] < qx0 or nd[0] > qx1 or nd[4] < qy0 or
                    nd[1] > qy1 or nd[5] < qz0 or nd[2] > qz1):
                continue
            if ball is not None and (max(bx - nd[0], nd[3] - bx) ** 2
                                     + max(by - nd[1], nd[4] - by) ** 2
                                     + max(bz - nd[2], nd[5] - bz) ** 2 < rin2):
                continue
            if seg is not None or plane is not None:
                # the node's centre c and half extents h, from its entry
                cx = nd[10]; cy = nd[11]; cz = nd[12]
                hx = nd[13]; hy = nd[14]; hz = nd[15]
                if plane is not None and (abs(nx * cx + ny * cy + nz * cz - off)
                                          > hx * anx + hy * any_ + hz * anz + rn):
                    continue
                if seg is not None:
                    cx -= px
                    cy -= py
                    cz -= pz
                    if (abs(dz * cy - dy * cz) > hy * az + hz * ay + rx or
                            abs(dx * cz - dz * cx) > hx * az + hz * ax + ry or
                            abs(dy * cx - dx * cy) > hx * ay + hy * ax + rz):
                        continue
            if nd[6] >= 0:
                stack.append(nd[7])
                stack.append(nd[6])
                continue
            # a leaf: the same tests on each of its primitives' boxes, in
            # _perm order, the clips deriving c and h from the box
            for i in range(nd[8], nd[8] + nd[9]):
                b = walk[i - n]
                if (b[3] < qx0 or b[0] > qx1 or b[4] < qy0 or
                        b[1] > qy1 or b[5] < qz0 or b[2] > qz1):
                    continue
                if ball is not None and (max(bx - b[0], b[3] - bx) ** 2
                                         + max(by - b[1], b[4] - by) ** 2
                                         + max(bz - b[2], b[5] - bz) ** 2
                                         < rin2):
                    continue
                if seg is not None or plane is not None:
                    cx = 0.5 * (b[0] + b[3])
                    cy = 0.5 * (b[1] + b[4])
                    cz = 0.5 * (b[2] + b[5])
                    hx = 0.5 * (b[3] - b[0])
                    hy = 0.5 * (b[4] - b[1])
                    hz = 0.5 * (b[5] - b[2])
                    if plane is not None and (
                            abs(nx * cx + ny * cy + nz * cz - off)
                            > hx * anx + hy * any_ + hz * anz + rn):
                        continue
                    if seg is not None:
                        cx -= px
                        cy -= py
                        cz -= pz
                        if (abs(dz * cy - dy * cz) > hy * az + hz * ay + rx or
                                abs(dx * cz - dz * cx) > hx * az + hz * ax + ry
                                or abs(dy * cx - dx * cy)
                                > hx * ay + hy * ax + rz):
                            continue
                out.append(perm[i])
        return out

    def query_segment(self, p, q, pad=0.0):
        """Candidates for the segment p-q, boxes grown by ``pad``."""
        lo = (min(p[0], q[0]), min(p[1], q[1]), min(p[2], q[2]))
        hi = (max(p[0], q[0]), max(p[1], q[1]), max(p[2], q[2]))
        return self.query_box(lo, hi, pad, seg=(p, q))

    def query_sphere(self, centre, radius, pad=0.0, plane=None, ball=None):
        """Candidates for the sphere about ``centre``, boxes grown by
        ``pad``; ``plane`` and ``ball`` as in ``query_box``."""
        lo = (centre[0] - radius, centre[1] - radius, centre[2] - radius)
        hi = (centre[0] + radius, centre[1] + radius, centre[2] + radius)
        return self.query_box(lo, hi, pad, plane=plane, ball=ball)


def _cut(levels):
    """Node boxes of the deepest full cut of the tree with at most
    ``_COVER_BOXES`` nodes, in the order of their ranges.  The cut at depth
    d holds level d's nodes and the leaves above it."""
    d, leaves = 0, 0
    while d + 1 < len(levels):
        leaves += int((~levels[d][3]).sum())
        if leaves + len(levels[d + 1][0]) > _COVER_BOXES:
            break
        d += 1
    cut = [(lo[~split], box[~split]) for lo, _hi, box, split
           in levels[:d]] + [levels[d][::2]]
    firsts = np.concatenate([lo for lo, _box in cut])
    return np.concatenate([box for _lo, box in cut])[np.argsort(firsts)]


def _interleave(a, b):
    """a0, b0, a1, b1, ... of two equally long int arrays."""
    out = np.empty(2 * len(a), dtype=np.intp)
    out[0::2] = a
    out[1::2] = b
    return out


def boxes_for_segments(points, segments, pad=0.0):
    """(n,6) bounds array for segments, an (n, >=2) vertex-index array."""
    a = points[segments[:, 0]]
    b = points[segments[:, 1]]
    return np.hstack((np.minimum(a, b) - pad, np.maximum(a, b) + pad))


def boxes_for_triangles(points, triangles, pad=0.0):
    """(n,6) bounds array for triangles, an (n, >=3) vertex-index array."""
    p0 = points[triangles[:, 0]]
    p1 = points[triangles[:, 1]]
    p2 = points[triangles[:, 2]]
    return np.hstack((np.minimum(np.minimum(p0, p1), p2) - pad,
                      np.maximum(np.maximum(p0, p1), p2) + pad))
