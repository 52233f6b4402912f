"""Whole-state snapshots of a Refiner, for checking that a rollback is an
exact undo of the insertion it takes back."""


def refiner_snapshot(r):
    """Mesh arrays by value, restricted tables by object identity."""
    m = r.mesh
    rs = r.rs
    return {
        "tets": list(m.tets),
        "neigh": [None if n is None else list(n) for n in m.neigh],
        "circum": list(m.circum),
        "free": list(m._free),
        "n_alive_tets": m.n_alive_tets,
        "last_tet": m._last_tet,
        "vert_tet": list(m.vert_tet),
        "rs_edges": dict(rs.edges),
        "rs_tris": dict(rs.tris),
        "rs_tets": dict(rs.tets),
        "edges_at_vertex": {v: set(s) for v, s in rs.at_vertex[1].items()},
        "tris_at_vertex": {v: set(s) for v, s in rs.at_vertex[2].items()},
        # disk-check marks in queue order
        "dirty1": list(r.dirty[1]),
        "dirty2": list(r.dirty[2]),
        # distance bounds by tet id, and the unsettled tets
        "bound": dict(r.cert.bound),
        "pending": set(r.cert.pending),
    }


def assert_bounds_fresh(r):
    """The certificate holds a bound for exactly the live tets, each equal
    to a fresh one: none outlived its tet or an undo."""
    alive = sorted(r.mesh.alive_tets())
    assert sorted(r.cert.bound) == alive
    fresh = r.g.tri_tree.lower_distances([r.mesh.circum[t][0] for t in alive])
    assert [r.cert.bound[t] for t in alive] == fresh.tolist()
    assert not r.cert.pending


def assert_undone(before, after):
    """``after`` equals ``before`` except for the one dead vertex that the
    undone insertion leaves behind in ``vert_tet``."""
    n = len(before["vert_tet"])
    assert after["vert_tet"][:n] == before["vert_tet"]
    assert after["vert_tet"][n:] == [-1]
    for key in before:
        if key.startswith("rs_"):
            assert after[key].keys() == before[key].keys(), key
            assert all(after[key][k] is obj
                       for k, obj in before[key].items()), key
        elif key != "vert_tet":
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
