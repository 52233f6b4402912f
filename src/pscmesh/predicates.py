"""Floating-point filtered exact geometric predicates.

``orient3d`` and ``insphere`` must never report a wrong sign: the
incremental tetrahedralisation trusts them for walking, cavity search and
element orientation, and a single bad sign corrupts mesh adjacency in ways
that only surface much later.  Each predicate is first evaluated in plain
double precision together with a conservative forward error bound; the
cheap result is kept whenever its magnitude clears the bound, otherwise
the determinant is re-evaluated exactly.

Exact evaluation uses arbitrary-precision integers and is one scaling
plus an integer core.  Every finite IEEE double is a dyadic rational, so
``_scaled_ints`` lifts all coordinates of a batch by one common power of
two to integers, and ``_orient3d_int`` / ``_insphere_int`` evaluate the
determinant on them without rounding; a common positive scale leaves
every sign as it was.  ``orient3d_exact`` and ``insphere_exact`` scale the
coordinates of their own call; a caller that decides many predicates on
one small point set (the bounding shell of ``delaunay.TetMesh``) scales
its points once and calls the cores.  NaN or overflowing intermediate
values fail the filter comparisons and fall through to the exact path as
well.
"""

__all__ = ["orient3d", "insphere", "orient3d_exact", "insphere_exact"]

# Loose forward-error coefficients; the only cost of slack here is an
# occasional unnecessary trip through the exact path.
_O3D_REL = 1e-14
_INS_REL = 1e-13
# Absolute floors: near the subnormal range relative error analysis breaks
# down, so anything this small is decided exactly.
_O3D_ABS = 1e-297
_INS_ABS = 1e-250


def orient3d(a, b, c, d):
    """Sign of the signed volume of the tetrahedron (a, b, c, d).

    +1 when (b-a, c-a, d-a) form a right-handed basis, -1 for left-handed,
    0 for exactly coplanar points.
    """
    ux = b[0] - a[0]; uy = b[1] - a[1]; uz = b[2] - a[2]
    vx = c[0] - a[0]; vy = c[1] - a[1]; vz = c[2] - a[2]
    wx = d[0] - a[0]; wy = d[1] - a[1]; wz = d[2] - a[2]
    p1 = vy * wz; p2 = vz * wy
    p3 = vz * wx; p4 = vx * wz
    p5 = vx * wy; p6 = vy * wx
    det = ux * (p1 - p2) + uy * (p3 - p4) + uz * (p5 - p6)
    bound = _O3D_REL * (abs(ux) * (abs(p1) + abs(p2))
                        + abs(uy) * (abs(p3) + abs(p4))
                        + abs(uz) * (abs(p5) + abs(p6))) + _O3D_ABS
    if det > bound:
        return 1
    if det < -bound:
        return -1
    return orient3d_exact(a, b, c, d)


def insphere(a, b, c, d, e):
    """Circumsphere test for the positively oriented tetrahedron (a,b,c,d).

    +1 when e lies strictly inside the circumsphere, -1 strictly outside,
    0 when the five points are exactly cospherical.  The sign is only
    meaningful when orient3d(a, b, c, d) > 0.
    """
    aex = a[0] - e[0]; aey = a[1] - e[1]; aez = a[2] - e[2]
    bex = b[0] - e[0]; bey = b[1] - e[1]; bez = b[2] - e[2]
    cex = c[0] - e[0]; cey = c[1] - e[1]; cez = c[2] - e[2]
    dex = d[0] - e[0]; dey = d[1] - e[1]; dez = d[2] - e[2]

    axby = aex * bey; bxay = bex * aey
    bxcy = bex * cey; cxby = cex * bey
    cxdy = cex * dey; dxcy = dex * cey
    dxay = dex * aey; axdy = aex * dey
    axcy = aex * cey; cxay = cex * aey
    bxdy = bex * dey; dxby = dex * bey

    ab = axby - bxay
    bc = bxcy - cxby
    cd = cxdy - dxcy
    da = dxay - axdy
    ac = axcy - cxay
    bd = bxdy - dxby

    abc = aez * bc - bez * ac + cez * ab
    bcd = bez * cd - cez * bd + dez * bc
    cda = cez * da + dez * ac + aez * cd
    dab = dez * ab + aez * bd + bez * da

    alift = aex * aex + aey * aey + aez * aez
    blift = bex * bex + bey * bey + bez * bez
    clift = cex * cex + cey * cey + cez * cez
    dlift = dex * dex + dey * dey + dez * dez

    det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd)

    aezp = abs(aez); bezp = abs(bez); cezp = abs(cez); dezp = abs(dez)
    ab_p = abs(axby) + abs(bxay)
    bc_p = abs(bxcy) + abs(cxby)
    cd_p = abs(cxdy) + abs(dxcy)
    da_p = abs(dxay) + abs(axdy)
    ac_p = abs(axcy) + abs(cxay)
    bd_p = abs(bxdy) + abs(dxby)
    perm = (dlift * (aezp * bc_p + bezp * ac_p + cezp * ab_p)
            + clift * (dezp * ab_p + aezp * bd_p + bezp * da_p)
            + blift * (cezp * da_p + dezp * ac_p + aezp * cd_p)
            + alift * (bezp * cd_p + cezp * bd_p + dezp * bc_p))
    # det is negative for interior points under this module's right-handed
    # orient3d convention, hence the flipped returns.
    bound = _INS_REL * perm + _INS_ABS
    if det > bound:
        return -1
    if det < -bound:
        return 1
    return insphere_exact(a, b, c, d, e)


def _scaled_ints(vals):
    # Every finite double is num / 2**k exactly; lift the whole batch to
    # the largest k so that differences and products stay integral.
    ratios = [float(v).as_integer_ratio() for v in vals]
    top = max(den.bit_length() for _, den in ratios)
    return [num << (top - den.bit_length()) for num, den in ratios]


def orient3d_exact(a, b, c, d):
    """Integer-arithmetic evaluation of orient3d; always correct."""
    s = _scaled_ints([*a, *b, *c, *d])
    return _orient3d_int(s[0:3], s[3:6], s[6:9], s[9:12])


def insphere_exact(a, b, c, d, e):
    """Integer-arithmetic evaluation of insphere; always correct."""
    s = _scaled_ints([*a, *b, *c, *d, *e])
    return _insphere_int(s[0:3], s[3:6], s[6:9], s[9:12], s[12:15])


def _orient3d_int(a, b, c, d):
    """``orient3d`` of points whose coordinates are integers, all scaled
    by one common factor (``_scaled_ints`` of the batch)."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = a, b, c, d
    ux = bx - ax; uy = by - ay; uz = bz - az
    vx = cx - ax; vy = cy - ay; vz = cz - az
    wx = dx - ax; wy = dy - ay; wz = dz - az
    det = (ux * (vy * wz - vz * wy)
           + uy * (vz * wx - vx * wz)
           + uz * (vx * wy - vy * wx))
    return (det > 0) - (det < 0)


def _insphere_int(a, b, c, d, e):
    """``insphere`` of points whose coordinates are integers, all scaled
    by one common factor (``_scaled_ints`` of the batch)."""
    ((ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz),
     (ex, ey, ez)) = a, b, c, d, e
    aex = ax - ex; aey = ay - ey; aez = az - ez
    bex = bx - ex; bey = by - ey; bez = bz - ez
    cex = cx - ex; cey = cy - ey; cez = cz - ez
    dex = dx - ex; dey = dy - ey; dez = dz - ez

    ab = aex * bey - bex * aey
    bc = bex * cey - cex * bey
    cd = cex * dey - dex * cey
    da = dex * aey - aex * dey
    ac = aex * cey - cex * aey
    bd = bex * dey - dex * bey

    abc = aez * bc - bez * ac + cez * ab
    bcd = bez * cd - cez * bd + dez * bc
    cda = cez * da + dez * ac + aez * cd
    dab = dez * ab + aez * bd + bez * da

    alift = aex * aex + aey * aey + aez * aez
    blift = bex * bex + bey * bey + bez * bez
    clift = cex * cex + cey * cey + cez * cez
    dlift = dex * dex + dey * dey + dez * dez

    det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd)
    return (det < 0) - (det > 0)
