import math
from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from pscmesh.predicates import (_insphere_int, _orient3d_int, _scaled_ints,
                                insphere, insphere_exact, orient3d,
                                orient3d_exact)

from oracles import rational_insphere, rational_orient3d


def test_orient3d_right_handed_basis():
    assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    assert orient3d((0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)) == -1


def test_orient3d_coplanar_is_zero():
    assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.7, 0)) == 0
    assert orient3d((1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)) == 0


def test_orient3d_tiny_scale_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        pts = [tuple(x * 1e-300 for x in rng.uniform(-1, 1, 3)) for _ in range(4)]
        assert orient3d(*pts) == rational_orient3d(*pts)


def test_insphere_unit_right_tet():
    a, b, c, d = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    # circumcentre (.5,.5,.5), radius sqrt(3)/2
    assert insphere(a, b, c, d, (0.25, 0.25, 0.25)) == 1
    assert insphere(a, b, c, d, (2, 2, 2)) == -1
    assert insphere(a, b, c, d, (1, 1, 1)) == 0  # exactly on the sphere


def test_random_agreement_with_rational_oracle():
    rng = np.random.default_rng(5)
    for _ in range(3000):
        pts = rng.uniform(-1, 1, (5, 3))
        a, b, c, d, e = (tuple(p) for p in pts)
        o = orient3d(a, b, c, d)
        assert o == rational_orient3d(a, b, c, d)
        if o < 0:
            b, c = c, b
        elif o == 0:
            continue
        assert insphere(a, b, c, d, e) == rational_insphere(a, b, c, d, e)


def test_adversarial_near_degenerate():
    rng = np.random.default_rng(17)
    for _ in range(300):
        # coplanar quadruple nudged by a few ulps
        a = tuple(rng.uniform(-1, 1, 3))
        b = tuple(rng.uniform(-1, 1, 3))
        c = tuple(rng.uniform(-1, 1, 3))
        s, t = rng.uniform(-2, 2, 2)
        d = tuple(a[i] + s * (b[i] - a[i]) + t * (c[i] - a[i]) for i in range(3))
        for _k in range(3):
            dz = math.ulp(1.0) * rng.integers(-3, 4)
            dd = (d[0], d[1], d[2] + dz)
            assert orient3d(a, b, c, dd) == rational_orient3d(a, b, c, dd)


def test_exact_versions_agree_with_filtered():
    rng = np.random.default_rng(23)
    for _ in range(500):
        pts = rng.uniform(-10, 10, (5, 3)) * 10.0 ** rng.integers(-12, 12)
        a, b, c, d, e = (tuple(p) for p in pts)
        assert orient3d(a, b, c, d) == orient3d_exact(a, b, c, d)
        if orient3d(a, b, c, d) > 0:
            assert insphere(a, b, c, d, e) == insphere_exact(a, b, c, d, e)


def test_huge_coordinates_fall_back_exactly():
    # squared lifts overflow the float path; the exact path must decide
    a, b, c, d = (0, 0, 0), (1e160, 0, 0), (0, 1e160, 0), (0, 0, 1e160)
    assert orient3d(a, b, c, d) == 1
    assert insphere(a, b, c, d, (1e159, 1e159, 1e159)) == rational_insphere(
        a, b, c, d, (1e159, 1e159, 1e159))


# one coordinate: a 53-bit integer times 2**e, from the subnormals up to
# 2**1000, each coordinate of a batch drawing its own exponent
_EXP = st.integers(-1074, 947)
_COORD = st.builds(math.ldexp, st.integers(-(2 ** 53 - 1), 2 ** 53 - 1), _EXP)


@st.composite
def _box_corners(draw):
    """Six corners of an axis-aligned box whose axes each carry their own
    power of two: the four on a face are exactly coplanar, and all eight
    corners lie exactly on one sphere."""
    axes = []
    for _ in range(3):
        x0 = draw(st.integers(-(2 ** 40), 2 ** 40))
        side = draw(st.integers(1, 2 ** 40))
        k = draw(_EXP)
        axes.append((math.ldexp(x0, k), math.ldexp(x0 + side, k)))
    corners = [(x, y, z) for x in axes[0] for y in axes[1] for z in axes[2]]
    return draw(st.permutations(corners))[:6]


def _assert_cores_match_the_rational_oracle(pts):
    # the batch is scaled once, as the bounding shell scales its corners;
    # every orientation and every insphere sign of it is then exact
    ints = _scaled_ints([x for p in pts for x in p])
    lifted = [ints[m:m + 3] for m in range(0, len(ints), 3)]
    for quad in combinations(range(len(pts)), 4):
        o = _orient3d_int(*(lifted[q] for q in quad))
        assert o == rational_orient3d(*(pts[q] for q in quad)), quad
        if o == 0:
            continue
        if o < 0:
            quad = (quad[0], quad[2], quad[1], quad[3])
        for q in range(len(pts)):
            if q not in quad:
                assert _insphere_int(*(lifted[v] for v in quad),
                                     lifted[q]) == rational_insphere(
                    *(pts[v] for v in quad), pts[q]), (quad, q)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=6, max_size=6))
def test_integer_cores_match_the_rational_oracle_across_exponents(pts):
    _assert_cores_match_the_rational_oracle(pts)


@settings(max_examples=100, deadline=None)
@given(_box_corners())
def test_integer_cores_decide_exact_ties_across_exponents(pts):
    _assert_cores_match_the_rational_oracle(pts)
    ints = _scaled_ints([x for p in pts for x in p])
    lifted = [ints[m:m + 3] for m in range(0, 18, 3)]
    # any six of a box's eight corners hold four on one plane: a face, or
    # a rectangle through two opposite edges
    assert any(_orient3d_int(*(lifted[q] for q in quad)) == 0
               for quad in combinations(range(6), 4))
