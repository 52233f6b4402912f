"""Axis-aligned bounding-box tree over geometric primitives.

Static structure built once over the input polylines / triangle soup and
queried read-only afterwards, so concurrent lookups are safe.  Split rule:
median of primitive box centres along the longest node axis, leaves hold
at most 8 primitives.

``query_box`` is the one traversal; it can also clip by the query's shape.
``seg=(p, q, pad)`` drops a node whose box, grown by ``pad``, the segment
misses: to the box test's axes it adds d x e_x, d x e_y, d x e_z (d = q - p),
which decide segment-box overlap exactly (Ericson, *Real-Time Collision
Detection*, 5.3.3) and need no division, so axis-parallel and zero-length
segments are no special case.  ``plane=(point, normal, pad)`` drops a node
whose grown box lies strictly on one side of the plane.  ``ball=(centre,
radius, pad)`` drops a node whose grown box lies strictly inside the ball
(farthest corner nearer than ``radius - pad``), which holds no point of a
circle of that radius about ``centre``.  Clips remove whole subtrees, so
the result is an order-preserving subsequence of the unclipped walk; no
hit is lost while ``pad`` covers how far outside a primitive's box
its hit test still accepts one (``geometry`` passes ``eps`` plus its
barycentric slack times the diagonal, far above the clips' rounding).

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
        # per-node: (lox, loy, loz, hix, hiy, hiz, left, right, first, count)
        # leaves have left == -1 and reference a slice of self._perm
        self._nodes = []
        self._perm = np.arange(self.n)
        if self.n:
            centres = 0.5 * (boxes[:, :3] + boxes[:, 3:])
            self._build(boxes, centres, 0, self.n)
        self._perm = self._perm.tolist()  # queries hand out Python ints
        self._cover = self._cut(boxes)

    def _build(self, boxes, centres, lo, hi):
        idx = self._perm[lo:hi]
        blo = boxes[idx, :3].min(axis=0)
        bhi = boxes[idx, 3:].max(axis=0)
        box = tuple(map(float, (*blo, *bhi)))
        node = len(self._nodes)
        self._nodes.append(None)
        if hi - lo <= _LEAF_SIZE:
            self._nodes[node] = (*box, -1, -1, lo, hi - lo)
            return node
        axis = int(np.argmax(bhi - blo))
        order = np.argsort(centres[idx, axis], kind="stable")
        self._perm[lo:hi] = idx[order]
        mid = lo + (hi - lo) // 2
        left = self._build(boxes, centres, lo, mid)
        right = self._build(boxes, centres, mid, hi)
        self._nodes[node] = (*box, left, right, 0, 0)
        return node

    def _cut(self, boxes):
        """(lo, hi) of the cover boxes, each (3, K): the primitive boxes,
        or the deepest tree cut of at most ``_COVER_BOXES`` nodes."""
        if self.n <= _COVER_BOXES:
            cover = boxes.reshape(-1, 6)
        else:
            cut = [0]
            while True:
                nxt = [c for nd in cut for c in (
                    (nd,) if self._nodes[nd][6] < 0 else self._nodes[nd][6:8])]
                if len(nxt) > _COVER_BOXES or len(nxt) == len(cut):
                    break
                cut = nxt
            cover = np.array([self._nodes[nd][:6] for nd in cut])
        return (np.ascontiguousarray(cover[:, :3].T),
                np.ascontiguousarray(cover[:, 3:].T))

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

    def query_box(self, lo, hi, seg=None, plane=None, ball=None):
        """Primitive ids whose boxes overlap the axis-aligned box [lo, hi],
        in tree order, less the subtrees that ``seg``, ``plane`` or
        ``ball`` clip away (see the module docstring)."""
        if not self.n:
            return []
        qx0, qy0, qz0 = lo
        qx1, qy1, qz1 = hi
        if seg is not None:
            (px, py, pz), (qx, qy, qz), pad = seg
            dx, dy, dz = qx - px, qy - py, qz - pz
            ax, ay, az = abs(dx), abs(dy), abs(dz)
            rx, ry, rz = pad * (ay + az), pad * (az + ax), pad * (ax + ay)
        if plane is not None:
            o, (nx, ny, nz), pad = plane
            off = nx * o[0] + ny * o[1] + nz * o[2]
            anx, any_, anz = abs(nx), abs(ny), abs(nz)
            rn = pad * (anx + any_ + anz)
        if ball is not None:
            (bx, by, bz), br, bpad = ball
            rin2 = (br - bpad) ** 2 if br > bpad else -1.0
        out = []
        stack = [0]
        nodes = self._nodes
        perm = self._perm
        while stack:
            nd = nodes[stack.pop()]
            if (nd[3] < qx0 or nd[0] > qx1 or nd[4] < qy0 or
                    nd[1] > qy1 or nd[5] < qz0 or nd[2] > qz1):
                continue
            if ball is not None and (max(bx - nd[0], nd[3] - bx) ** 2
                                     + max(by - nd[1], nd[4] - by) ** 2
                                     + max(bz - nd[2], nd[5] - bz) ** 2 < rin2):
                continue
            if seg is not None or plane is not None:
                # box centre c and half extents h
                cx = 0.5 * (nd[0] + nd[3])
                cy = 0.5 * (nd[1] + nd[4])
                cz = 0.5 * (nd[2] + nd[5])
                hx = 0.5 * (nd[3] - nd[0])
                hy = 0.5 * (nd[4] - nd[1])
                hz = 0.5 * (nd[5] - nd[2])
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
            if nd[6] < 0:
                first, count = nd[8], nd[9]
                out.extend(perm[first:first + count])
            else:
                stack.append(nd[7])
                stack.append(nd[6])
        return out

    def query_segment(self, p, q, pad=0.0, slack=0.0):
        """Candidates for the segment p-q: boxes meeting its bounding box
        grown by ``pad``, under nodes the segment passes within ``pad +
        slack`` of."""
        lo = (min(p[0], q[0]) - pad, min(p[1], q[1]) - pad, min(p[2], q[2]) - pad)
        hi = (max(p[0], q[0]) + pad, max(p[1], q[1]) + pad, max(p[2], q[2]) + pad)
        return self.query_box(lo, hi, seg=(p, q, pad + slack))

    def query_sphere(self, centre, radius, plane=None, ball=None):
        lo = (centre[0] - radius, centre[1] - radius, centre[2] - radius)
        hi = (centre[0] + radius, centre[1] + radius, centre[2] + radius)
        return self.query_box(lo, hi, plane=plane, ball=ball)


def boxes_for_segments(points, segments, pad=0.0):
    """(n,6) bounds array for vertex-indexed segments."""
    idx = np.asarray([s[:2] for s in segments], dtype=np.intp).reshape(-1, 2)
    a = points[idx[:, 0]]
    b = points[idx[:, 1]]
    return np.hstack((np.minimum(a, b) - pad, np.maximum(a, b) + pad))


def boxes_for_triangles(points, triangles, pad=0.0):
    """(n,6) bounds array for vertex-indexed triangles."""
    idx = np.asarray([t[:3] for t in triangles], dtype=np.intp).reshape(-1, 3)
    p0 = points[idx[:, 0]]
    p1 = points[idx[:, 1]]
    p2 = points[idx[:, 2]]
    return np.hstack((np.minimum(np.minimum(p0, p1), p2) - pad,
                      np.maximum(np.maximum(p0, p1), p2) + pad))
