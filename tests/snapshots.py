"""Whole-state snapshots of a Refiner, for checking that a rollback is an
exact undo of the insertion it takes back, and freshness checks of the
state a Refiner keeps incrementally."""

from itertools import combinations

from pscmesh.delaunay import _FACES, SHELL
from pscmesh.restricted import classify_edge, classify_facet, classify_tet

# the fields a classifier computes (``blocked`` is refiner state).  Not
# ``walk``: a kept facet's record keeps an earlier walk, which a fresh
# classification does not repeat.  Rollback snapshots compare records by
# identity, so they do cover ``walk``
_FIELDS = ("key", "centre", "radius", "err", "ref", "rho", "quality",
           "tet_id", "cc")


def refiner_snapshot(r):
    """Mesh arrays by value, restricted tables by object identity.  A
    stored ball is (centre, r2, delta), so an undo that lost the bound the
    cavity search reads would show."""
    m = r.mesh
    rs = r.rs
    return {
        "tets": list(m.tets),
        "neigh": [None if n is None else list(n) for n in m.neigh],
        "circum": list(m.circum),
        "last_tet": m._last_tet,
        "rs_edges": dict(rs.edges),
        "rs_tris": dict(rs.tris),
        "rs_tets": dict(rs.tets),
        "edges_at_vertex": {v: set(s) for v, s in rs.at_vertex[1].items()},
        "tris_at_vertex": {v: set(s) for v, s in rs.at_vertex[2].items()},
        # disk-check marks in queue order
        "dirty1": list(r.dirty[1]),
        "dirty2": list(r.dirty[2]),
        # the certificate's entries of the live tets (a dead id's are
        # never read)
        "cert": {t: (r.cert.bound[t], r.cert.inside[t])
                 for t in m.alive_tets()},
    }


def assert_bounds_fresh(r):
    """Every live tet's bound equals a fresh one, and the volume status of
    every live tet with no shell corner is settled and says whether its key
    is in the restricted tet table: no entry outlived its tet or an undo."""
    mesh = r.mesh
    alive = sorted(mesh.alive_tets())
    fresh = r.g.tri_tree.lower_distances([mesh.circum[t][0] for t in alive])
    assert [r.cert.bound[t] for t in alive] == fresh.tolist()
    for t in alive:
        if min(mesh.tets[t]) >= SHELL:
            assert r.cert.inside[t] is (tuple(sorted(mesh.tets[t]))
                                        in r.rs.tets), t


def _fields(obj):
    return None if obj is None else [getattr(obj, f) for f in _FIELDS]


def fresh_answer(mesh, geom, key, t, i=None):
    """Fresh classification, with no certificate and no skip, of the
    simplex ``key`` of tet t (facet i of t for a facet)."""
    if len(key) == 2:
        return classify_edge(mesh, geom, *key, t)
    if len(key) == 4:
        return classify_tet(mesh, geom, t)
    return classify_facet(mesh, geom, t, i)


def assert_restricted_fresh(r):
    """Every live edge, facet and tet is in the restricted tables exactly
    when a fresh classification finds it restricted (``fresh_answer``),
    and with the same fields."""
    mesh, rs = r.mesh, r.rs
    live = set()
    for t in sorted(mesh.alive_tets()):
        quad = mesh.tets[t]
        faces = [(k, None) for k in combinations(sorted(quad), 2)]
        faces += [(tuple(sorted(quad[j] for j in f)), i)
                  for i, f in enumerate(_FACES)]
        faces.append((tuple(sorted(quad)), None))
        for key, i in faces:
            if key in live:
                continue
            live.add(key)
            d = len(key) - 1
            assert (_fields(rs.table[d].get(key))
                    == _fields(fresh_answer(mesh, r.g, key, t, i))), key
    for d in (1, 2, 3):
        assert live.issuperset(rs.table[d]), d


def assert_undone(before, after):
    """``after`` equals ``before``: mesh arrays by value, restricted tables
    by object identity."""
    for key in before:
        if key.startswith("rs_"):
            assert after[key].keys() == before[key].keys(), key
            assert all(after[key][k] is obj
                       for k, obj in before[key].items()), key
        else:
            assert after[key] == before[key], key


def record_rollbacks(r):
    """Wrap ``r._insert`` on the instance; return the list that collects a
    (before, after) snapshot pair for every rollback.

    The outer call snapshots the state before its insertion.  A rollback
    defers to a nested ``_insert`` call, which snapshots the state the
    undo left behind.
    """
    pairs = []
    insert = r._insert
    outer = []

    def wrapped(*args, **kwargs):
        snap = refiner_snapshot(r)
        if outer:
            pairs.append((outer[-1], snap))
            return insert(*args, **kwargs)
        outer.append(snap)
        try:
            return insert(*args, **kwargs)
        finally:
            outer.pop()

    r._insert = wrapped
    return pairs
