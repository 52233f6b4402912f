"""Properties of the box tree's segment, plane and ball clips, applied to
each node and each primitive it reaches, and of its cover distance bound;
the level-wise build against the recursive one and against its earlier
float lexsort per level; and the box query against
its earlier leaf-level walk during refinement.

Boxes and query points sit on a grid of quarters and the pad is an eighth,
so the tree's float arithmetic is exact and a segment, plane or sphere can
touch a padded box's face, edge or corner exactly; the brute-force
references decide overlap in exact rational arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pscmesh import aabb, restricted
from pscmesh.aabb import AABBTree
from pscmesh.config import RefineConfig, SizingField
from pscmesh.geometry import PiecewiseComplex
from pscmesh.models import cube, icosphere, wedge
from pscmesh.refine import Refiner

from oracles import (box_tree_lexsort_reference, box_tree_reference,
                     distance_to_surface, query_box_reference, tree_nodes)

PAD = 0.125

coord = st.integers(-40, 40).map(lambda k: k / 4.0)
extent = st.integers(0, 12).map(lambda k: k / 4.0)
point = st.tuples(coord, coord, coord)


@st.composite
def boxes(draw):
    out = []
    for _ in range(draw(st.integers(1, 60))):
        lo = draw(point)
        size = draw(st.tuples(extent, extent, extent))
        out.append((*lo, *(lo[k] + size[k] for k in range(3))))
    return out


def grown(box):
    return (*(x - PAD for x in box[:3]), *(x + PAD for x in box[3:]))


@st.composite
def on_box_face(draw, bxs):
    """A point on a face of one of the padded boxes: one coordinate pinned
    to a face, the others anywhere on the grid (so also beyond the face)."""
    b = grown(bxs[draw(st.integers(0, len(bxs) - 1))])
    p = list(draw(point))
    axis = draw(st.integers(0, 2))
    p[axis] = b[axis + 3 * draw(st.integers(0, 1))]
    return tuple(p)


def meets_segment(box, p, q):
    """Exact segment-box overlap (parametric slab clipping)."""
    t0, t1 = Fraction(0), Fraction(1)
    for k in range(3):
        a, d = Fraction(p[k]), Fraction(q[k]) - Fraction(p[k])
        lo, hi = Fraction(box[k]), Fraction(box[k + 3])
        if d == 0:
            if not lo <= a <= hi:
                return False
            continue
        ta, tb = sorted(((lo - a) / d, (hi - a) / d))
        t0, t1 = max(t0, ta), min(t1, tb)
    return t0 <= t1


def meets_plane(box, o, n):
    """Exact box-plane overlap: the corners do not all lie strictly on one
    side."""
    sides = set()
    for corner in range(8):
        x = [box[k + 3 * ((corner >> k) & 1)] for k in range(3)]
        s = sum(Fraction(n[k]) * (Fraction(x[k]) - Fraction(o[k]))
                for k in range(3))
        sides.add((s > 0) - (s < 0))
    return sides != {1} and sides != {-1}


def reaches_sphere(box, c, r):
    """Exact: the box grown by PAD is not strictly inside the ball of radius
    r about c, i.e. its farthest corner is not nearer than r - PAD."""
    far2 = sum(max(Fraction(c[k]) - Fraction(box[k]),
                   Fraction(box[k + 3]) - Fraction(c[k])) ** 2
               for k in range(3))
    return r <= PAD or far2 >= (Fraction(r) - Fraction(PAD)) ** 2


# integer vectors of integer length, so a box corner can sit exactly on a
# sphere about a grid point
TRIPLES = ((0, 0, 1), (3, 4, 0), (2, 3, 6), (1, 4, 8), (2, 6, 9))


@st.composite
def touching_box(draw, c, triple, scale):
    """A box whose farthest corner from c is a signed permutation of
    ``triple`` times ``scale`` away, on the same side of c on every axis."""
    perm = draw(st.permutations(triple))
    signs = draw(st.tuples(*[st.sampled_from((-1, 1))] * 3))
    far = [c[k] + signs[k] * perm[k] * scale for k in range(3)]
    near = [far[k] - signs[k] * draw(st.integers(0, 4 * perm[k] * scale)) / 4.0
            for k in range(3)]
    return (*map(min, near, far), *map(max, near, far))


def overlaps(box, lo, hi):
    return all(box[k] <= hi[k] and box[k + 3] >= lo[k] for k in range(3))


def is_subsequence(sub, seq):
    it = iter(seq)
    return all(x in it for x in sub)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_segment_clip_keeps_every_box_the_segment_meets(data):
    bxs = data.draw(boxes())
    tree = AABBTree(bxs)
    p = data.draw(st.one_of(point, on_box_face(bxs)))
    q = data.draw(st.one_of(point, on_box_face(bxs), st.just(p)))
    got = tree.query_segment(p, q, pad=PAD)
    lo = tuple(min(p[k], q[k]) - PAD for k in range(3))
    hi = tuple(max(p[k], q[k]) + PAD for k in range(3))
    assert is_subsequence(got, tree.query_box(lo, hi))
    assert set(got) >= {i for i, b in enumerate(bxs)
                        if meets_segment(grown(b), p, q)}


# offsets on the grid of eighths within half of a tube of 1/2
near_offset = st.tuples(*[st.integers(-2, 2)] * 3).filter(
    lambda k: k[0] ** 2 + k[1] ** 2 + k[2] ** 2 <= 4).map(
    lambda k: tuple(x / 8.0 for x in k))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_tube_grown_walk_keeps_what_a_nearby_walk_keeps(data):
    # s2 runs between two points of s (at quarter steps along it), each
    # moved by at most half the tube: every point of s2 lies within half
    # the tube of s, so what the walk of s2 keeps at its pad, the walk of s
    # keeps with its pad grown by half the tube, and so by the whole tube
    # (the reuse of ``restricted.Restricted.walk``)
    bxs = data.draw(boxes())
    tree = AABBTree(bxs)
    p = data.draw(st.one_of(point, on_box_face(bxs)))
    q = data.draw(st.one_of(point, on_box_face(bxs), st.just(p)))
    tube = 0.5
    pad = data.draw(st.sampled_from([0.0, 0.125, 0.25]))
    s2 = []
    for _ in range(2):
        t = data.draw(st.integers(0, 4)) / 4.0
        v = data.draw(near_offset)
        s2.append(tuple(p[k] + t * (q[k] - p[k]) + v[k] for k in range(3)))
    got = set(tree.query_segment(*s2, pad))
    assert got <= set(tree.query_segment(p, q, pad + 0.5 * tube))
    assert got <= set(tree.query_segment(p, q, pad + tube))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_plane_clip_keeps_every_box_the_plane_meets(data):
    bxs = data.draw(boxes())
    tree = AABBTree(bxs)
    b = grown(bxs[data.draw(st.integers(0, len(bxs) - 1))])
    # through a corner of one padded box, or anywhere
    corner = tuple(b[k + 3 * data.draw(st.integers(0, 1))] for k in range(3))
    o = data.draw(st.one_of(st.just(corner), point))
    n = data.draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(any))
    radius = data.draw(st.integers(1, 60).map(lambda k: k / 4.0))
    lo = tuple(o[k] - radius for k in range(3))
    hi = tuple(o[k] + radius for k in range(3))
    got = tree.query_sphere(o, radius, PAD, plane=(o, n))
    assert is_subsequence(got, tree.query_box(lo, hi, PAD))
    assert set(got) >= {i for i, b in enumerate(bxs)
                        if overlaps(grown(b), lo, hi)
                        and meets_plane(grown(b), o, n)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ball_clip_keeps_every_box_that_reaches_the_sphere(data):
    c = data.draw(point)
    triple = data.draw(st.sampled_from(TRIPLES))
    scale = data.draw(st.integers(1, 4).map(lambda k: k / 4.0))
    # the touching boxes' farthest corners sit exactly at r - PAD
    r = math.sqrt(sum(x * x for x in triple)) * scale + PAD
    touching = data.draw(
        st.lists(touching_box(c, triple, scale), min_size=1, max_size=8))
    bxs = data.draw(boxes()) + touching
    tree = AABBTree(bxs)
    radius = data.draw(st.sampled_from((r, r + 1.0)))
    lo = tuple(c[k] - radius for k in range(3))
    hi = tuple(c[k] + radius for k in range(3))
    got = tree.query_sphere(c, radius, PAD, ball=(c, r))
    assert is_subsequence(got, tree.query_box(lo, hi, PAD))
    want = {i for i, b in enumerate(bxs)
            if overlaps(grown(b), lo, hi) and reaches_sphere(b, c, r)}
    assert set(got) >= want
    assert set(got) >= set(range(len(bxs) - len(touching), len(bxs)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_query_returns_exactly_the_primitives_whose_own_boxes_pass(data):
    # on the quarter grid, with a quarter-grid ball radius, every test of
    # the walk is exact, so the result must be exactly the primitives of the
    # leaf-level walk whose own boxes, grown by the pad, pass the exact
    # references, in order
    bxs = data.draw(boxes())
    tree = AABBTree(bxs)
    kind = data.draw(st.sampled_from(("box", "seg", "plane", "ball")))
    c = data.draw(st.one_of(point, on_box_face(bxs)))
    q = data.draw(st.one_of(point, on_box_face(bxs), st.just(c)))
    n = data.draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(any))
    r = data.draw(st.integers(0, 60).map(lambda k: k / 4.0))
    clip, passes = {
        "box": ({}, lambda b: True),
        "seg": ({"seg": (c, q)}, lambda b: meets_segment(grown(b), c, q)),
        "plane": ({"plane": (c, n)}, lambda b: meets_plane(grown(b), c, n)),
        "ball": ({"ball": (c, r)}, lambda b: reaches_sphere(b, c, r)),
    }[kind]
    if kind == "seg":
        lo = tuple(min(c[k], q[k]) for k in range(3))
        hi = tuple(max(c[k], q[k]) for k in range(3))
    else:
        lo = tuple(x - r for x in c)
        hi = tuple(x + r for x in c)
    got = tree.query_box(lo, hi, PAD, **clip)
    leaves = query_box_reference(tree, lo, hi, PAD, **clip)
    assert got == [i for i in leaves
                   if overlaps(grown(bxs[i]), lo, hi) and passes(bxs[i])]
    assert all(overlaps(grown(bxs[i]), lo, hi) for i in got)
    assert set(got) == {i for i, b in enumerate(bxs)
                        if overlaps(grown(b), lo, hi) and passes(b)}
    assert is_subsequence(got, query_box_reference(tree, lo, hi, PAD))
    assert all(type(i) is int for i in got)


def test_queries_touching_a_padded_box_are_kept():
    # a unit box grown by PAD, and a segment that touches it only there:
    # across one of its edges, where for each edge direction only the clip
    # axis d x e of that direction separates them at a smaller pad, or
    # from a point of one of its faces outward, where the box test's axis
    # separates them at a smaller pad
    box = (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    tree = AABBTree([box])
    for p, q in (((0.5, 2.125, 0.125), (0.5, 0.125, 2.125)),
                 ((1.125, 0.5, 0.5), (2.125, 0.75, 0.25))):
        for shift in range(3):
            def rot(x):
                return tuple(x[(k - shift) % 3] for k in range(3))
            assert meets_segment(grown(box), rot(p), rot(q))
            assert tree.query_segment(rot(p), rot(q), PAD) == [0]
            assert tree.query_segment(rot(p), rot(q), 0.1) == []
    # planes through a corner, along an edge and on a face of the grown box
    for o, n in (((1.125, 1.125, 1.125), (1, 1, 1)),
                 ((-0.125, 1.125, 0.5), (-1, 2, 0)),
                 ((0.5, 0.5, -0.125), (0, 0, -3))):
        assert meets_plane(grown(box), o, n)
        assert tree.query_sphere(o, 5.0, PAD, plane=(o, n)) == [0]
        assert tree.query_sphere(o, 5.0, 0.1, plane=(o, n)) == []
    # a ball about a centre 7 from the box's farthest corner (1, 1, 1),
    # along (2, 3, 6): the box grown by PAD lies strictly inside it only
    # once the radius exceeds 7 + PAD
    o = (1.0 - 2.0, 1.0 - 3.0, 1.0 - 6.0)
    for r, kept in ((7.0 + PAD, [0]), (7.0 + 2 * PAD, [])):
        assert tree.query_sphere(o, 10.0, PAD, ball=(o, r)) == kept
    # a sphere whose box touches the grown box's face x = 1 + PAD
    assert tree.query_sphere((3.125, 0.5, 0.5), 2.0, PAD) == [0]
    assert tree.query_sphere((3.125, 0.5, 0.5), 2.0, 0.1) == []


def test_clips_prune_a_lattice():
    # 1,000 unit boxes, all inside both queries' bounding boxes; the main
    # diagonal meets 64 of them (at least at a corner) and the plane
    # x = 4.5 cuts 100, and the clips keep exactly those
    bxs = [(i, j, k, i + 1, j + 1, k + 1)
           for i in range(10) for j in range(10) for k in range(10)]
    tree = AABBTree(bxs)
    ids = tree.query_segment((0, 0, 0), (10, 10, 10))
    want = {i for i, b in enumerate(bxs)
            if meets_segment(b, (0, 0, 0), (10, 10, 10))}
    assert len(want) == 64 and len(ids) == 64 and set(ids) == want
    assert all(type(i) is int for i in ids)  # plain ints, not numpy scalars
    ids = tree.query_sphere((4.5, 5, 5), 20.0,
                            plane=((4.5, 5, 5), (1, 0, 0)))
    want = {i for i, b in enumerate(bxs) if b[0] == 4}
    assert len(ids) == 100 and set(ids) == want


# ----------------------------------------------------------------------
# cover distance bound

# cube faces lie on the box faces of their triangles; icosphere(3) has
# 1,280 triangles, so its cover is a cut of node boxes
MODELS = {"cube": cube(), "wedge": wedge(), "icosphere1": icosphere(1),
          "icosphere3": icosphere(3)}


@st.composite
def near_surface(draw):
    """A model and a point on, inside the box of, or near one of its
    triangles: a vertex, or a barycentric point, moved off the triangle
    along its normal or along an axis by up to its size."""
    name = draw(st.sampled_from(sorted(MODELS)))
    geom = MODELS[name]
    i, j, k, _p = geom.triangles[draw(st.integers(0, len(geom.triangles) - 1))]
    a, b, c = geom.vertices[i], geom.vertices[j], geom.vertices[k]
    u = draw(st.sampled_from([0.0, 1.0, 0.25, 0.5]))
    v = draw(st.sampled_from([0.0, 0.25, 0.5])) * (1.0 - u)
    n = np.cross(b - a, c - a)
    axis = np.eye(3)[draw(st.integers(0, 2))]
    d = draw(st.sampled_from([n / np.linalg.norm(n), axis, -axis]))
    off = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 1.0, 3.0]))
    return name, a + u * (b - a) + v * (c - a) + off * d


@settings(max_examples=300, deadline=None)
@given(near_surface())
@example(("cube", np.array([0.5, 0.25, 1.1])))
@example(("icosphere3", np.zeros(3)))
def test_cover_bound_stays_below_the_surface_distance(case):
    # the cover's boxes hold their triangles grown by eps, so the bound is
    # at least eps below the exact distance, and rounding in the bound or
    # in the brute-force distance cannot carry it above
    name, p = case
    geom = MODELS[name]
    bound = geom.tri_tree.lower_distances([p])[0]
    exact = distance_to_surface(geom, [p])[0]
    assert 0.0 <= bound <= max(exact - 0.5 * geom.eps, 0.0)


def test_cover_is_the_deepest_cut_within_the_box_budget():
    assert aabb._COVER_BOXES == 512
    small = MODELS["icosphere1"].tri_tree
    assert small._cover[0].shape == (3, 80)
    big = MODELS["icosphere3"].tri_tree
    k = big._cover[0].shape[1]
    # 1,280 triangles in leaves of at most 8 take 256 leaves at depth 8
    assert k == 256
    pts = np.random.default_rng(0).uniform(-1.5, 1.5, (40, 3))
    got = big.lower_distances(pts)
    assert got.shape == (40,) and (got >= 0.0).all()
    assert (got <= distance_to_surface(MODELS["icosphere3"], pts)).all()
    assert AABBTree([]).lower_distances(pts).tolist() == [math.inf] * 40


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2000), st.integers(0, 40), st.integers(0, 12),
       st.integers(0, 2 ** 32 - 1))
@example(512, 40, 12, 0)
@example(513, 40, 12, 0)
@example(2000, 0, 0, 1)      # every centre tied
@example(1200, 2, 1, 2)
def test_level_wise_build_equals_the_recursive_build(n, span, size, seed):
    # quarter-grid boxes in a cube of half-width span / 4, so that many
    # centres tie and the stable order of ties decides the permutation
    rng = np.random.default_rng(seed)
    lo = rng.integers(-span, span + 1, (n, 3)) / 4.0
    bxs = np.hstack((lo, lo + rng.integers(0, size + 1, (n, 3)) / 4.0))
    tree = AABBTree(bxs)
    nodes, perm, (cover_lo, cover_hi) = box_tree_reference(bxs)
    # repr also tells a Python float or int from a numpy scalar
    assert repr(tree_nodes(tree)) == repr(nodes)
    assert repr(tree._perm) == repr(perm)
    for got, want in zip(tree._cover, (cover_lo, cover_hi)):
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


def build_boxes(kind):
    """(n, 6) boxes whose centres tie along the split axes, or ("uniform")
    whose coordinates differ and interleave across the axes."""
    rng = np.random.default_rng(7)
    if kind == "uniform":
        lo = rng.uniform(0.0, 1.0, (1000, 3))
        return np.hstack((lo, lo + rng.uniform(0.0, 0.01, (1000, 3))))
    if kind == "lattice":
        # quarter-grid boxes on a 6 x 6 x 6 lattice, three sizes per axis
        lo = rng.integers(0, 6, (1500, 3)) / 4.0
        return np.hstack((lo, lo + rng.integers(0, 3, (1500, 3)) / 4.0))
    if kind == "duplicated":
        lo = rng.uniform(-1.0, 1.0, (40, 3))
        base = np.hstack((lo, lo + rng.uniform(0.0, 0.5, (40, 3))))
        return base[rng.integers(0, 40, 900)]
    # x extents -0.0 to -0.0, 0.0 to 0.0 and -1 to 1 in turn: every x
    # centre is a zero of either sign, and x is the longest axis
    x = np.array([[-0.0, -0.0], [0.0, 0.0], [-1.0, 1.0]])[np.arange(600) % 3]
    yz = rng.integers(0, 3, (600, 2)) / 4.0
    return np.column_stack((x[:, 0], yz, x[:, 1], yz + 0.25))


@pytest.mark.parametrize("kind", ["lattice", "duplicated", "signed_zero",
                                  "uniform", "icosphere4"])
def test_rank_keyed_build_equals_the_lexsort_build(kind):
    if kind == "icosphere4":
        geom = icosphere(4)
        bxs = aabb.boxes_for_triangles(geom.vertices,
                                       np.array(geom.triangles), geom.eps)
        tree = geom.tri_tree
    else:
        bxs = build_boxes(kind)
        tree = AABBTree(bxs)
    perm, walk = box_tree_lexsort_reference(bxs)
    assert repr(tree._perm) == repr(perm)
    assert repr(tree._walk) == repr(walk)


# ----------------------------------------------------------------------
# the per-primitive walk against the leaf-level walk during refinement


@pytest.mark.parametrize("geom, h, kinds, seeds", [
    (lambda: icosphere(2), 0.4, ("segment", "ray", "disk"), (0,)),
    # an off-centre under uniform sizing takes one sphere or disk query,
    # so two seeds keep every kind of query past 40
    (wedge, 0.35, ("segment", "ray", "disk", "sphere", "face"), (0, 1)),
], ids=["sphere", "crease"])
def test_refine_queries_hit_alike_with_the_leaf_level_walk(monkeypatch, geom,
                                                           h, kinds, seeds):
    # every surface, ray, disk and curve query of the refines runs twice,
    # on the per-primitive walk and on the leaf-level walk, and must find
    # the same hits in the same order
    leaf_level = []

    def query_box(tree, *args, **kwargs):
        if leaf_level:
            return query_box_reference(tree, *args, **kwargs)
        return walk(tree, *args, **kwargs)

    def both(fn, name):
        def checked(*args, **kwargs):
            got = fn(*args, **kwargs)
            leaf_level.append(True)
            try:
                want = fn(*args, **kwargs)
            finally:
                leaf_level.pop()
            assert got == want
            calls[name] += 1
            return got
        return checked

    walk = AABBTree.query_box
    monkeypatch.setattr(AABBTree, "query_box", query_box)
    calls = dict.fromkeys(("segment", "ray", "disk", "sphere", "face"), 0)
    for name, attr in (("segment", "intersect_segment_surface"),
                       ("ray", "_ray_parity"),
                       ("disk", "intersect_disk_surface"),
                       ("sphere", "intersect_sphere_curve")):
        monkeypatch.setattr(PiecewiseComplex, attr,
                            both(getattr(PiecewiseComplex, attr), name))
    monkeypatch.setattr(restricted, "_face_crossings",
                        both(restricted._face_crossings, "face"))
    for seed in seeds:
        r = Refiner(geom(), RefineConfig(sizing=SizingField(h0=h), seed=seed))
        assert r.run() == "converged"
    # every query kind of the input runs (icosphere(2) has no curves)
    assert all(calls[k] >= 40 for k in kinds)
