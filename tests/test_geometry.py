import hashlib
import math
import sys
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pscmesh.aabb import AABBTree
from pscmesh.delaunay import TetMesh
from pscmesh.errors import GeometryError, ParseError, PscError, \
    ValidationError
from pscmesh.geometry import _HIT_SLACK, PiecewiseComplex, load_complex, \
    parse_complex, write_complex
from pscmesh.models import cube, icosphere, wedge
from pscmesh.restricted import classify_edge

from oracles import (circle_surface_hits, crossing_point_reference,
                     crossings_reference, curve_census_reference, holder,
                     initial_sampling_reference, parity_reference,
                     parse_lines_reference, polygon_curve_hits,
                     random_rotation, segment_surface_hits, sphere_curve_hits,
                     validate_reference, winding_numbers)


def flat_square(half=2.0, z=0.0, patch=0):
    # two-triangle square patch in the plane z = const
    verts = [(-half, -half, z), (half, -half, z), (half, half, z),
             (-half, half, z)]
    tris = [(0, 1, 2, patch), (0, 2, 3, patch)]
    return PiecewiseComplex(verts, [], tris)


# ----------------------------------------------------------------------
# parsing and validation


def test_parse_smallest_valid_surface():
    c = parse_complex("v 0 0 0\nv 1 0 0\nv 0 1 0\nt 0 1 2 0\n")
    assert len(c.triangles) == 1
    assert not c.segments


def test_parse_dangling_vertex_is_error():
    with pytest.raises(ValidationError):
        parse_complex("v 0 0 0\nv 1 0 0\nv 0 1 0\nt 0 1 99 0\n")


def test_parse_bad_record_is_error():
    with pytest.raises(ParseError):
        parse_complex("v 0 0 0\nq 1 2 3\n")
    with pytest.raises(ParseError):
        parse_complex("v 0 0 zzz\n")


# the line breaks of str.splitlines other than "\n", "\r\n" and "\r"
OTHER_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029")


@pytest.mark.parametrize("sep", OTHER_BREAKS, ids=lambda sep: f"{ord(sep):#x}")
def test_only_newlines_end_lines(sep):
    # the break separates tokens within a line: line 1 holds two records
    with pytest.raises(ParseError, match="^line 1: unrecognised record 'v'$"):
        parse_complex(f"v 0 0 0{sep}v 1 0 0\nv 0 zz 0\n")
    # and line numbers count the newlines alone
    with pytest.raises(ParseError, match="^line 2: could not convert "
                                         "string to float: 'zz'$"):
        parse_complex(f"{sep}v 0 0 0{sep}\nv 0 zz{sep}0\n")
    c = parse_complex(f"{sep}v 0{sep}0 0\nv 1 0 0{sep}\n{sep}\nv 0 1 0\n"
                      "t 0 1 2 0\n")
    assert c.pts == [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    plain, marked = tmp_path / "plain.psc", tmp_path / "marked.psc"
    write_complex(cube(), str(plain))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = load_complex(str(plain)), load_complex(str(marked))
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert (a.pts, a.segments, a.triangles) == (b.pts, b.segments,
                                                b.triangles)
    # one mark only: a second one is the first line's text
    marked.write_bytes(b"\xef\xbb\xbf" * 2 + plain.read_bytes())
    with pytest.raises(ParseError,
                       match=r"^line 1: unrecognised record '\\ufeffv'$"):
        load_complex(str(marked))
    # an undecodable byte's offset counts the mark's three bytes
    data = b"\xef\xbb\xbfv 0 0 0\nv 1 \xff 0\n"
    marked.write_bytes(data)
    with pytest.raises(ParseError, match=f"byte 0xff at offset "
                                         f"{data.index(0xff)} is not UTF-8$"):
        load_complex(str(marked))


def test_duplicate_segment_is_error():
    with pytest.raises(ValidationError):
        parse_complex("v 0 0 0\nv 1 0 0\ne 0 1 0\ne 1 0 0\n")


def test_zero_area_triangle_is_error():
    collinear = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 2 0 0\n"
    with pytest.raises(ValidationError, match="triangle 1 has zero area"):
        parse_complex(collinear + "t 0 1 2 0\nt 0 1 3 0\n")
    # the lowest failing triangle is reported, whatever its fault
    with pytest.raises(ValidationError, match="triangle 0 references"):
        parse_complex(collinear + "t 0 1 9 0\nt 0 1 3 0\n")
    with pytest.raises(ValidationError, match="triangle 1 has zero area"):
        parse_complex(collinear + "t 0 1 2 0\nt 0 1 3 0\nt 0 1 -1 0\n")


def test_branching_polyline_is_error():
    text = ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
            "e 0 1 0\ne 0 2 0\ne 0 3 0\n")
    with pytest.raises(ValidationError):
        parse_complex(text)


FAULTS = ("missing", "repeated", "duplicate", "zero_area", "edge_thrice",
          "degenerate_segment", "zero_length_segment", "duplicate_segment",
          "branching_segment", "near_vertex")

MODELS = {"cube": cube(), "wedge": wedge(), "icosphere1": icosphere(1)}


@st.composite
def corrupted(draw):
    """A model's records with up to four faults, each inserted at or
    moved to a drawn id: (name, vertices, segments, triangles, faults)."""
    name = draw(st.sampled_from(sorted(MODELS)))
    base = MODELS[name]
    verts = base.vertices.tolist()
    segs, tris = list(base.segments), list(base.triangles)
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=4))
    vertex = st.integers(0, len(verts) - 1)

    def put(records, rec):
        records.insert(draw(st.integers(0, len(records))), tuple(rec))

    def pick(records):
        return records[draw(st.integers(0, len(records) - 1))]

    for fault in faults:
        nv = len(verts)
        i, j, k, pid = pick(base.triangles)
        if fault == "missing":
            records = segs if segs and draw(st.booleans()) else tris
            at = draw(st.integers(0, len(records) - 1))
            rec = list(records[at])
            rec[draw(st.integers(0, len(rec) - 2))] = draw(
                st.sampled_from([nv, nv + 7, -1, -5]))
            records[at] = tuple(rec)
        elif fault == "repeated":
            put(tris, draw(st.sampled_from([(i, i, k, pid), (i, j, j, pid),
                                            (k, j, k, pid)])))
        elif fault == "duplicate":
            order = draw(st.permutations((i, j, k)))
            put(tris, (*order, draw(st.sampled_from([pid, pid + 1]))))
        elif fault == "zero_area":
            # a copy of vertex i: the triangle (i, j, copy) is flat exactly
            verts.append(list(verts[i]))
            put(tris, (i, j, nv, pid))
        elif fault == "edge_thrice":
            a, b = np.asarray(verts[i]), np.asarray(verts[j])
            verts.append((0.5 * (a + b) + [0.31, 0.57, 0.83]).tolist())
            put(tris, (i, j, nv, pid))
        elif fault == "near_vertex":
            # an unused vertex inside, at or outside the snap's reach of v
            at = np.array(verts[draw(vertex)])
            at[draw(st.integers(0, 2))] += draw(st.sampled_from(
                [0.0, 1.1e-11, 1.2e-11, 1.3e-11, -1.3e-11])) * base.diag
            verts.append(at.tolist())
        elif fault == "degenerate_segment":
            v = draw(vertex)
            put(segs, (v, v, draw(st.integers(0, 3))))
        elif fault == "zero_length_segment":
            # a copy of vertex v: the segment (v, copy) has length 0 exactly
            v = draw(vertex)
            verts.append(list(verts[v]))
            put(segs, (v, nv, draw(st.integers(0, 3))))
        elif fault == "duplicate_segment":
            if segs:
                a, b, cid = pick(segs)
            else:
                a, b, cid = i, j, 0
                put(segs, (a, b, cid))
            put(segs, (b, a, draw(st.sampled_from([cid, cid + 1]))))
        else:
            v, cid = draw(vertex), draw(st.integers(0, 3))
            for w in draw(st.lists(vertex, min_size=3, max_size=3,
                                   unique=True)):
                put(segs, (v, w, cid))
    return name, verts, segs, tris, faults


def validation_error(build):
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(corrupted())
@example(("cube", cube().vertices.tolist(), cube().segments,
          cube().triangles, []))
def test_array_checks_raise_the_error_of_the_record_loop(case):
    name, verts, segs, tris, faults = case
    got = validation_error(lambda: PiecewiseComplex(verts, segs, tris))
    want = validation_error(
        lambda: validate_reference(np.asarray(verts), segs, tris))
    assert got == want
    if not faults:
        assert got is None


@st.composite
def curve_networks(draw):
    """A valid complex: a model's surface, whole or a drawn subset of its
    triangles (often open), up to three free vertices, optionally the
    model's curves, and 1-4 more curves, each a simple polyline, open or
    closed, whose steps follow a surface edge or jump to any vertex; the
    segments shuffled, each one's ends in drawn order: (vertices,
    segments, triangles)."""
    base = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    tris = list(base.triangles)
    if draw(st.booleans()):
        tris = draw(st.lists(st.sampled_from(tris), min_size=1, unique=True))
    verts = base.vertices.tolist() + [
        [3.0 + 0.5 * x, 0.25 * x, -2.0] for x in range(draw(st.integers(0, 3)))]
    nv = len(verts)
    around = {}
    for i, j, k, _pid in base.triangles:
        for a, b in ((i, j), (j, k), (i, k), (j, i), (k, j), (k, i)):
            around.setdefault(a, set()).add(b)
    segs = list(base.segments) if draw(st.booleans()) else []
    used = {(min(i, j), max(i, j)) for i, j, _cid in segs}
    vertex = st.integers(0, nv - 1)
    for cid in draw(st.lists(st.integers(100, 109), min_size=1, max_size=4,
                             unique=True)):
        path = [draw(vertex)]
        for _ in range(draw(st.integers(1, 6))):
            step = (st.sampled_from(sorted(around[path[-1]]))
                    if path[-1] in around and draw(st.booleans()) else vertex)
            path.append(draw(step))
            pair = (min(path[-2:]), max(path[-2:]))
            if path[-1] in path[:-1] or pair in used:
                path.pop()
                break
            used.add(pair)
        pair = (min(path[0], path[-1]), max(path[0], path[-1]))
        if len(path) > 2 and pair not in used and draw(st.booleans()):
            used.add(pair)
            path.append(path[0])
        for a, b in zip(path, path[1:]):
            segs.append((a, b, cid) if draw(st.booleans()) else (b, a, cid))
    return verts, draw(st.permutations(segs)), tris


@settings(max_examples=200, deadline=None)
@given(curve_networks())
def test_curve_census_equals_the_numpy_reference(case):
    verts, segs, tris = case
    geom = PiecewiseComplex(verts, segs, tris)
    at, on_curve, features, embedded, open_edge = curve_census_reference(
        len(verts), segs, tris)
    assert list(geom.segs_at_vertex.items()) == list(at.items())
    assert geom.on_curve.tolist() == on_curve.tolist()
    assert geom.feature_vertices == features
    assert geom.embedded_curves == embedded
    assert geom.open_edge == open_edge


def test_malformed_records_are_rejected():
    with pytest.raises(ValidationError, match="64-bit"):
        parse_complex("v 0 0 0\nv 1 0 0\nv 0 1 0\nt 0 1 99999999999999999999 0\n")
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(ValidationError, match="segment records must have 3"):
        PiecewiseComplex(verts, [(0, 1)], [])
    with pytest.raises(ValidationError, match="triangle records must have 4"):
        PiecewiseComplex(verts, [], [(0, 1, 2)])
    # two vertex ids at one position on one curve
    with pytest.raises(ValidationError, match="segment 0 has zero length"):
        parse_complex("v 0 0 0\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"
                      "e 0 1 0\ne 1 2 0\ne 2 3 0\n")


@pytest.mark.parametrize("scale, records, message", [
    (1e200, "e 0 1 0\ne 1 2 0\n", r"diagonal exceeds 1e\+50;"),
    (1e200, "t 0 1 3 0\nt 1 2 3 0\n", r"diagonal exceeds 1e\+50;"),
    (1e60, "e 0 1 0\ne 1 2 0\n",
     r"diagonal 1\.41e\+60 is outside \[1e-50, 1e\+50\];"),
    (1e-100, "e 0 1 0\ne 1 2 0\n",
     r"diagonal 1\.41e-100 is outside \[1e-50, 1e\+50\];")],
    ids=["1e+200", "1e+200-surface", "1e+60", "1e-100"])
def test_extents_beyond_the_float_kernels_are_rejected(scale, records,
                                                       message):
    text = (f"v 0 0 0\nv {scale} 0 0\nv 0 {scale} 0\nv {scale} {scale} 0\n"
            + records)
    # an overflowing diagonal, squared length or cross product does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            parse_complex(text)


# tokens for a record's fields: ones that cast, odd ones that cast too, and
# ones that do not
FLOAT_TOKENS = ["0.25", "-0.0", "1e-3", "1_0", "nan", "-inf", "+7", "zzz",
                "1,5", "0x1", "1__0"]
INT_TOKENS = ["0", "+1", "-1", "1_0", "\u0663", str(2 ** 63),
              str(-2 ** 63 - 1), str(10 ** 20), "1.0", "zzz", ""]
PARSE_FAULTS = ("comment_line", "trailing_comment", "inner_comment", "blank",
                "drop_field", "add_field", "tag", "glue")


@st.composite
def psc_texts(draw):
    """A model's records as a .psc text: each tag's records in order, the
    tags interleaved, written with drawn separators, leading and trailing
    space and line ends, with up to three drawn field tokens and up to
    three other faults."""
    base = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    rnd = draw(st.randoms(use_true_random=False))
    queues = [[["v", *map(repr, p)] for p in base.vertices.tolist()],
              [["e", *map(str, r)] for r in base.segments],
              [["t", *map(str, r)] for r in base.triangles]]
    blocks = draw(st.booleans())
    lines = []
    while any(queues):
        q = next(q for q in queues if q) if blocks else rnd.choice(
            [q for q in queues if q])
        lines.append(q.pop(0))
    faults = ["token"] * draw(st.integers(0, 3)) + draw(
        st.lists(st.sampled_from(PARSE_FAULTS), max_size=3))
    for fault in faults:
        at = rnd.randrange(len(lines) + 1)
        rec = lines[min(at, len(lines) - 1)]
        if fault == "comment_line":
            lines.insert(at, ["#", "v", "0", "0"])
        elif fault == "trailing_comment":
            rec.append("#note")
        elif fault == "inner_comment":
            rec.insert(rnd.randrange(len(rec) + 1), "#")
        elif fault == "blank":
            lines.insert(at, [])
        elif fault == "drop_field" and len(rec) > 1:
            del rec[rnd.randrange(1, len(rec))]
        elif fault == "add_field":
            rec.append("0")
        elif fault == "tag" and rec:
            rec[0] = rnd.choice(["q", "vt", "V", "f", "e1", "tt", "#t"])
        elif fault == "token" and len(rec) > 1:
            rec[rnd.randrange(1, len(rec))] = rnd.choice(
                FLOAT_TOKENS if rec[0] == "v" else INT_TOKENS)
        elif fault == "glue" and at + 1 < len(lines):
            lines[at:at + 2] = [lines[at] + lines[at + 1]]
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = ""
    for rec in lines:
        sep = rnd.choice([" ", "\t", "  ", " \t"])
        text += (rnd.choice(["", " ", "\t"]) + sep.join(rec)
                 + rnd.choice(["", " ", "\t"])
                 + (rnd.choice(["\n", "\r\n", "\r"]) if ends == "mixed"
                    else ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def parsed(parse, text):
    """The records ``parse`` reads from ``text``, or its error's type and
    message."""
    try:
        c = parse(text)
    except PscError as exc:
        return type(exc), str(exc)
    return (c.vertices.dtype, c.vertices.shape, c.vertices.tobytes(),
            c.segments, c.triangles)


TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


@settings(max_examples=300, deadline=None)
@given(psc_texts())
# an id beyond int64 is reported after the vertex checks, and after the
# casts of all lines
@example(TRIANGLE + f"e 0 1 {2 ** 63}\nt 0 1 zzz 0\n")
@example(TRIANGLE + f"e 0 {10 ** 20} 0\nv 0 0 nan\nt 0 1 2 0\n")
@example(TRIANGLE + f"t 0 1 2 {-2 ** 63 - 1}\ne 0 {2 ** 64} 0\n")
@example(TRIANGLE + "v 0 0 1 v\nv 1 1\nt 0 1 2 0\n")
@example(TRIANGLE + "t 0 1 2 0 # t 1 2 3 0\n\x0c\u2028t\t1 2 3 0\n")
@example("")
def test_one_pass_parse_reads_what_the_line_loop_reads(text):
    assert parsed(parse_complex, text) == parsed(parse_lines_reference, text)


def test_cube_roundtrip(tmp_path):
    path = tmp_path / "cube.psc"
    write_complex(cube(), str(path))
    c = load_complex(str(path))
    assert len(c.vertices) == 8
    assert len(c.segments) == 12
    assert len(c.triangles) == 12
    assert c.surface_closed
    assert c.point_in_volume((0.5, 0.5, 0.5))
    w = winding_numbers([(0.5, 0.5, 0.5)], c.vertices, c.triangles)[0]
    assert abs(abs(w) - 1.0) < 1e-9


# every attribute of a loaded complex that the package reads, and of its two
# trees; a tree attribute is named "tree.attribute"
LOADED = ("pts", "segments", "triangles", "segs_at_vertex", "feature_vertices",
          "on_curve", "on_surface", "surface_closed", "embedded_curves",
          "open_edge", "bounds", "diag", "eps", "hit_pad",
          *(f"{tree}.{name}" for tree in ("seg_tree", "tri_tree")
            for name in ("_perm", "_walk", "_cover")))


def loaded_digests(model, path):
    """``model`` written to ``path`` and loaded back: the first 16 hex digits
    of the SHA-256 of each ``LOADED`` attribute's repr, arrays printed in
    full and to the last bit.  A repr tells a tuple from a list and a
    Python float from a numpy one."""
    write_complex(model, str(path))
    c = load_complex(str(path))
    out = {}
    with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
        for name in LOADED:
            obj = c
            for part in name.split("."):
                obj = getattr(obj, part)
            out[name] = hashlib.sha256(repr(obj).encode()).hexdigest()[:16]
    return out


# ``loaded_digests`` as the parse and build of 13f5087 give them
LOADED_DIGESTS = {
    "cube": (
        "1bd3d4b10c6963fb 8eb05062dc2ded04 29b3cf8b27b65970 5465d86eff5c89d3 "
        "8df435965cf2a370 d992e216cec2e420 d992e216cec2e420 3cbc87c7681f34db "
        "a096de4e0e18ceee dc937b59892604f5 1db53b74b39f4279 cf35d0b009c91f65 "
        "85d30e4fecbcbd65 3cb365ad383c4438 dd47cffedc1d6f13 1d8f5149217d4f2a "
        "a3869c102875b5f1 fb904d93e83e9167 2b57b6cbe0c1d29d f2aef17a90b95e55"),
    "wedge": (
        "451c56dca480e9d1 0bdccb1536a85a98 29b3cf8b27b65970 dd2ee53dc6bb83fb "
        "b34f921f10b2ac83 8ceb9d01a885e348 6f5d41f6c421f105 3cbc87c7681f34db "
        "a096de4e0e18ceee dc937b59892604f5 1db53b74b39f4279 cf35d0b009c91f65 "
        "85d30e4fecbcbd65 3cb365ad383c4438 338d2f674877bbdc 98bb885c4020809f "
        "3c6255b8ae1f088c fb904d93e83e9167 2b57b6cbe0c1d29d f2aef17a90b95e55"),
    "icosphere2": (
        "6eda44c77a738cc4 4f53cda18c2baa0c e329c6d2a0f7fba9 44136fa355b3678a "
        "513b0cfc87b24ef3 6334b66be3d5c27a 8b1fe75cd013ac69 3cbc87c7681f34db "
        "513b0cfc87b24ef3 dc937b59892604f5 1f51e64fa84df2b9 6fd35544be672dee "
        "6eab8034e690bfa1 a9bb6b98a7b80ed0 4f53cda18c2baa0c 4f53cda18c2baa0c "
        "e62ba0ca13d27cb2 d3149c30a0bab1a6 c53645cbce897628 e9ffd53d5a776af8"),
    "icosphere4": (
        "e5df23f5ccd676f9 4f53cda18c2baa0c 41a082e2ab20b7e6 44136fa355b3678a "
        "513b0cfc87b24ef3 061c8b35df219369 1454caeb2c92a2ed 3cbc87c7681f34db "
        "513b0cfc87b24ef3 dc937b59892604f5 1f51e64fa84df2b9 6fd35544be672dee "
        "6eab8034e690bfa1 a9bb6b98a7b80ed0 4f53cda18c2baa0c 4f53cda18c2baa0c "
        "e62ba0ca13d27cb2 3252eab71c4c2632 be742f941dd99097 91f130bddbd8ca15"),
}


@pytest.mark.parametrize("name", sorted(LOADED_DIGESTS))
def test_the_loaded_complex_is_pinned(name, tmp_path):
    model = {"cube": cube, "wedge": wedge, "icosphere2": lambda: icosphere(2),
             "icosphere4": lambda: icosphere(4)}[name]()
    got = loaded_digests(model, tmp_path / f"{name}.psc")
    want = dict(zip(LOADED, LOADED_DIGESTS[name].split()))
    assert got == want


# ----------------------------------------------------------------------
# sharp features


def test_cube_features():
    assert cube().detect_sharp_features() == []


def test_two_segments_meeting_at_20_1_degrees():
    ang = math.radians(20.1)
    verts = [(1.0, 0.0, 0.0), (0.0, 0.0, 0.0),
             (math.cos(ang), math.sin(ang), 0.0)]
    c = PiecewiseComplex(verts, [(0, 1, 0), (1, 2, 0)], [])
    apexes = c.detect_sharp_features()
    assert len(apexes) == 1
    v, _pair, a = apexes[0]
    assert v == 1
    assert abs(a - ang) < 1e-12


def test_features_invariant_under_rigid_motion():
    rng = np.random.default_rng(2)
    base = wedge()
    angles0 = sorted(a for _v, _p, a in base.detect_sharp_features())
    for _ in range(5):
        R = random_rotation(rng)
        shift = rng.uniform(-3, 3, 3)
        verts = (np.asarray(base.vertices) @ R.T) + shift
        c = PiecewiseComplex(verts, base.segments, base.triangles)
        angles = sorted(a for _v, _p, a in c.detect_sharp_features())
        assert np.allclose(angles, angles0, atol=1e-12)


# ----------------------------------------------------------------------
# intersection oracle: examples
#
# The curve query runs on the dual face of a Delaunay edge (the polygon of
# circumcentres around it), through classify_edge.


def edge_mesh(cplx, points):
    m = TetMesh(cplx.bounds, seed=1)
    return m, [m.insert_point(p).vid for p in points]


def test_polygon_curve_axis_crossing():
    c = PiecewiseComplex([(0, 0, -1), (0, 0, 1)], [(0, 1, 7)], [])
    # the edge u-w along z has its dual face in the plane z = 0
    m, (u, w) = edge_mesh(c, [(0.1, 0, -0.2), (0.1, 0, 0.2)])
    e = classify_edge(m, c, u, w, holder(m, u, w))
    assert e is not None
    assert e.ref == 7
    assert np.allclose(e.centre, (0, 0, 0), atol=1e-9)


def test_polygon_curve_disjoint():
    # the curve crosses the bisector plane of u-w at (0, 5, 5), which lies
    # in the Voronoi cell of the third point, outside the dual face
    c = PiecewiseComplex([(-1, 5, 5), (1, 5, 5)], [(0, 1, 0)], [])
    m, (u, w, _x) = edge_mesh(c, [(-0.2, 0, 0), (0.2, 0, 0), (0, 4.5, 4.5)])
    assert classify_edge(m, c, u, w, holder(m, u, w)) is None


def test_polygon_curve_matches_bruteforce_on_random_polyline():
    rng = np.random.default_rng(4)
    pts = np.cumsum(rng.uniform(-0.3, 0.3, (101, 3)), axis=0)
    segs = [(i, i + 1, i % 5) for i in range(100)]
    c = PiecewiseComplex(pts, segs, [])
    lo, hi = (np.asarray(b) for b in c.bounds)
    m, _vids = edge_mesh(c, [tuple(p) for p in rng.uniform(lo, hi, (40, 3))])
    edges = {}
    for t in m.alive_tets():
        for pair in combinations(sorted(m.tets[t]), 2):
            edges.setdefault(pair, t)
    checked = crossed = 0
    for (u, w), t0 in sorted(edges.items()):
        if w < 8:
            continue
        ring = m.edge_ring(u, w, t0)
        want = polygon_curve_hits([m.circum[t][0] for t in ring], pts, segs)
        got = classify_edge(m, c, u, w, t0)
        checked += 1
        if not want:
            assert got is None
            continue
        crossed += 1
        best = max(want, key=lambda h: math.dist(h[0], m.points[u]))
        assert math.dist(got.centre, best[0]) <= 1e-9
        assert got.ref == best[1]
    assert checked > 100 and crossed > 10


def test_segment_surface_single_patch_hit():
    c = flat_square()
    hits = c.intersect_segment_surface((0, 0, -1), (0, 0, 1))
    assert len(hits) == 1
    assert np.allclose(hits[0][0], (0, 0, 0), atol=1e-12)
    assert c.intersect_segment_surface((0, 0, 2), (1, 1, 2)) == []


def test_segment_surface_chord_through_sphere():
    c = icosphere(2)
    a, b = (-2.0, 0.05, 0.07), (2.0, 0.05, 0.07)
    got = c.intersect_segment_surface(a, b)
    want = segment_surface_hits(a, b, c.vertices, c.triangles)
    assert len(got) == 2 == len(want)
    for g, w in zip(sorted(got), sorted(want)):
        assert math.dist(g[0], w[0]) <= 1e-9


def spheres(*pairs):
    """Parametrise over (icosphere subdivisions, cases).  The brute-force
    oracles loop over every triangle, so the denser spheres, whose trees are
    deep enough for the segment and plane clips to prune, get fewer cases."""
    return pytest.mark.parametrize("sub, cases", pairs,
                                   ids=[f"icosphere{s}" for s, _n in pairs])


def assert_same_points(got, want, tol):
    """One-to-one match within ``tol``; hits on a grazing query can tie in
    a coordinate, so sorting alone does not pair them."""
    assert len(got) == len(want)
    rest = list(want)
    for g in got:
        w = min(rest, key=lambda w: math.dist(g, w))
        assert math.dist(g, w) <= tol
        rest.remove(w)


def grazing_segments(c):
    """Axis-parallel chords, then segments from the centre, from outside
    and of zero length through input vertices and edge midpoints, then a
    zero-length segment at the centre."""
    rng = np.random.default_rng(12)
    segs = []
    for axis in range(3):
        for _ in range(2):
            a = rng.uniform(-0.8, 0.8, 3)
            b = a.copy()
            a[axis], b[axis] = -2.0, 2.0
            segs.append((a, b))
    for i, j, _k, _p in c.triangles[::len(c.triangles) // 4]:
        for x in (c.vertices[i], 0.5 * (c.vertices[i] + c.vertices[j])):
            segs += [(0.0 * x, 2.0 * x), (2.0 * x, x), (x, x)]
    segs.append((np.zeros(3), np.zeros(3)))
    return [(tuple(map(float, a)), tuple(map(float, b))) for a, b in segs]


def grazing_disks(c, tangent=False):
    """Disks in the plane of an input triangle whose circles cross its
    edges, so every hit lies on an edge of a neighbour; with ``tangent``,
    also disks whose circles touch the triangle's plane at its centroid."""
    disks = []
    for i, j, k, _p in c.triangles[::len(c.triangles) // 4]:
        p0, p1, p2 = (c.vertices[v] for v in (i, j, k))
        g = (p0 + p1 + p2) / 3.0
        n = np.cross(p1 - p0, p2 - p0)
        n /= np.linalg.norm(n)
        disks.append((tuple(g), tuple(n),
                      1.3 * np.linalg.norm(0.5 * (p0 + p1) - g)))
        if tangent:
            side = np.cross(n, p1 - p0)
            r = 2.0 * np.linalg.norm(p1 - p0)
            disks.append((tuple(g + r * n), tuple(side / np.linalg.norm(side)),
                          r))
    return disks


def exact_hits(c, a, b):
    """The exact points where a-b crosses c's surface
    (``crossings_reference``), merged within eps as the hits are."""
    out = []
    for t in crossings_reference(a, b, c.vertices, c.triangles):
        y = crossing_point_reference(a, b,
                                     *c.vertices[list(c.triangles[t][:3])])
        if all(max(abs(y[m] - x[m]) for m in range(3)) > c.eps for x in out):
            out.append(y)
    return out


@spheres((1, 300), (3, 45), (4, 12))
def test_segment_surface_matches_bruteforce_randomised(sub, cases):
    c = icosphere(sub)
    rng = np.random.default_rng(9)
    segs = [(tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-2, 2, 3)))
            for _ in range(cases)]
    for a, b in segs + grazing_segments(c):
        got = sorted(h[0] for h in c.intersect_segment_surface(a, b))
        assert_same_points(got, sorted(exact_hits(c, a, b)), 1e-9)


def test_point_in_volume_examples():
    c = cube()
    assert c.point_in_volume((0.5, 0.5, 0.5))
    assert not c.point_in_volume((2.0, 0.0, 0.0))


def test_point_in_volume_open_surface_is_configuration_error():
    c = flat_square()
    with pytest.raises(GeometryError):
        c.point_in_volume((0, 0, 0))


@spheres((2, 1000), (3, 1000), (4, 1000))
def test_point_in_volume_matches_winding_numbers(sub, cases):
    c = icosphere(sub)
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1.4, 1.4, (cases, 3))
    w = winding_numbers(pts, c.vertices, c.triangles)
    # skip points hugging the surface where both definitions are fragile
    keep = np.abs(np.linalg.norm(pts, axis=1) - 1.0) > 1e-3
    agree = [c.point_in_volume(tuple(p)) == (abs(w[i]) > 0.5)
             for i, p in enumerate(pts) if keep[i]]
    assert all(agree)


def test_sphere_curve_examples():
    c = PiecewiseComplex([(-1, 0, 0), (1, 0, 0)], [(0, 1, 3)], [])
    tagged = c.intersect_sphere_curve((0, 0, 0), 0.5)
    assert [cid for _x, cid in tagged] == [3, 3]
    hits = sorted(x for x, _cid in tagged)
    assert len(hits) == 2
    assert np.allclose(hits, [(-0.5, 0, 0), (0.5, 0, 0)], atol=1e-12)
    assert c.intersect_sphere_curve((0, 0, 0), 5.0) == []


def test_sphere_curve_matches_bruteforce_on_circle_polyline():
    n = 64
    verts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n), 0.0)
             for k in range(n)]
    segs = [(k, (k + 1) % n, 0) for k in range(n)]
    c = PiecewiseComplex(verts, segs, [])
    rng = np.random.default_rng(6)
    for _ in range(500):
        centre = tuple(rng.uniform(-1.2, 1.2, 3))
        radius = rng.uniform(0.05, 1.5)
        got = sorted(x for x, _cid in c.intersect_sphere_curve(centre,
                                                                radius))
        want = sorted(sphere_curve_hits(centre, radius, verts, segs))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert math.dist(g, w) <= 1e-9


def test_disk_surface_examples():
    c = flat_square()
    hits = sorted(c.intersect_disk_surface((0, 0, 0), (1, 0, 0), 1.0))
    assert len(hits) == 2
    assert np.allclose(hits, [(0, -1, 0), (0, 1, 0)], atol=1e-10)
    assert c.intersect_disk_surface((0, 0, 1), (0, 0, 1), 0.5) == []


@pytest.mark.parametrize("delta", [1e-11, 5e-11, 1e-10])
def test_a_circle_within_the_hit_slack_beyond_a_triangle_box_hits(delta):
    # the triangle's edge x = 1 + delta lies beyond the extreme point
    # (1, 0, 0) of the unit circle in z = 0, by more than the tree box's
    # eps and less than the hit test's barycentric slack reaches
    c = PiecewiseComplex([(1 + delta, 0, -1), (1 + delta, 0, 1),
                          (3 + delta, 0, 0)], [], [(0, 1, 2, 0)])
    assert delta > 2.0 * c.eps
    hits = c.intersect_disk_surface((0, 0, 0), (0, 0, 1), 1.0)
    assert len(hits) == 1
    assert math.dist(hits[0], (1.0, 0.0, 0.0)) <= 1e-12


@spheres((1, 200), (3, 30), (4, 8))
def test_disk_surface_matches_bruteforce_on_sphere(sub, cases):
    c = icosphere(sub)
    rng = np.random.default_rng(8)
    disks = []
    for _ in range(cases):
        centre = tuple(rng.uniform(-1, 1, 3))
        normal = rng.normal(size=3)
        disks.append((centre, normal / np.linalg.norm(normal),
                      rng.uniform(0.1, 1.2)))
    for centre, normal, radius in disks + grazing_disks(c):
        got = sorted(c.intersect_disk_surface(centre, tuple(normal), radius))
        want = sorted(circle_surface_hits(centre, normal, radius,
                                          c.vertices, c.triangles))
        assert_same_points(got, want, 1e-8)


def test_clipped_queries_equal_unclipped_on_grazing_cases(monkeypatch):
    c = icosphere(3)
    segs = grazing_segments(c)
    disks = grazing_disks(c, tangent=True)
    got = ([c.intersect_segment_surface(a, b) for a, b in segs],
           [c.point_in_volume(a) for a, _b in segs],
           [c.intersect_disk_surface(*d) for d in disks])
    tree = c.tri_tree
    with monkeypatch.context() as m:
        # the same queries on a tree walk that ignores the clips
        m.setattr(tree, "query_box",
                  lambda lo, hi, pad=0.0, seg=None, plane=None, ball=None:
                  AABBTree.query_box(tree, lo, hi, pad))
        assert got == ([c.intersect_segment_surface(a, b) for a, b in segs],
                       [c.point_in_volume(a) for a, _b in segs],
                       [c.intersect_disk_surface(*d) for d in disks])
    # the centre is inside and starts outside are not; a start on a vertex
    # or edge takes the side that the symbolic shift moves it to
    inside = got[1]
    assert all(inside[6:-1:3]) and not any(inside[7:-1:3])
    far = (3.0, 0.5, 0.25)
    assert inside[8:-1:3] == [parity_reference(a, far, c.vertices, c.triangles)
                              for a, _b in segs[8:-1:3]]
    # every chord and every segment from the centre hits; of the segments
    # that end on a vertex or edge, one's shifted end lies inside
    assert sum(map(bool, got[0])) == 15 and sum(map(bool, got[2])) >= 4


def handed_out(geom, run, every=False):
    """The ids that geom's triangle-tree queries hand out while ``run()``
    queries geom, and run's result.  With ``every``, each query hands out
    every triangle instead."""
    tree = geom.tri_tree
    ids = []

    def recorded(*args, **kwargs):
        out = (list(range(tree.n)) if every
               else AABBTree.query_box(tree, *args, **kwargs))
        ids.extend(out)
        return out

    tree.query_box = recorded
    try:
        return ids, run()
    finally:
        del tree.query_box


unit = st.tuples(*[st.integers(-16, 16)] * 3).filter(any).map(
    lambda v: np.asarray(v) / math.hypot(*v))


@st.composite
def near_triangle(draw):
    """A fat random triangle and a point in its plane outside it: beyond
    one of its edges or vertices by up to 3 x the hit slack times the
    triangle's extent, or for a segment query as far inside it too.
    Returns (complex, point, normal, kind), kind the drawn query kind."""
    pts = np.asarray(draw(st.tuples(*[st.tuples(
        *[st.integers(-1000, 1000)] * 3)] * 3))) / 1000.0
    n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
    edges = [np.linalg.norm(pts[(k + 1) % 3] - pts[k]) for k in range(3)]
    # every altitude at least a twentieth of the longest edge
    assume(np.linalg.norm(n) >= 0.05 * max(edges) ** 2 > 0.0)
    n /= np.linalg.norm(n)
    geom = PiecewiseComplex(pts, [], [(0, 1, 2, 0)])
    kind = draw(st.sampled_from(("segment", "disk")))
    reach = 3.0 * _HIT_SLACK * geom.diag
    off = draw(st.floats(-1.0 if kind == "segment" else 0.0, 1.0)) * reach
    k = draw(st.integers(0, 2))
    if draw(st.booleans()):
        # beyond vertex k, away from the centroid
        out = pts[k] - pts.mean(axis=0)
        x = pts[k] + off * out / np.linalg.norm(out)
    else:
        # beyond edge k-(k+1), away from the third vertex
        e = pts[(k + 1) % 3] - pts[k]
        out = np.cross(e, n)
        out /= np.linalg.norm(out)
        if np.dot(pts[(k + 2) % 3] - pts[k], out) > 0.0:
            out = -out
        x = pts[k] + draw(st.floats(0.0, 1.0)) * e + off * out
    return geom, x, n, kind


@settings(max_examples=600, deadline=None)
@given(near_triangle(), st.data())
def test_the_walk_keeps_every_triangle_its_hit_test_accepts(case, data):
    # a disk circle passes within its hit test's reach outside a triangle,
    # a segment that far outside or inside it; whenever the hit test
    # accepts the triangle (for a segment: crosses it exactly), the tree
    # walk of that query hands it out
    geom, x, n, kind = case
    size = st.floats(0.05, 1.5).map(lambda f: f * geom.diag)
    if kind == "segment":
        u = data.draw(unit)
        assume(abs(np.dot(u, n)) >= 0.2)
        a = tuple((x - data.draw(size) * u).tolist())
        b = tuple((x + data.draw(size) * u).tolist())
        accepted = geom._crosses(a, b, 0)
        ids, hits = handed_out(geom, lambda: geom.intersect_segment_surface(
            a, b))
        assert bool(hits) == accepted
    else:
        m = data.draw(unit)
        assume(np.linalg.norm(np.cross(m, n)) >= 0.2)
        w = np.cross(m, data.draw(unit))
        assume(np.linalg.norm(w) >= 0.2)
        r = data.draw(size)
        c = tuple((x - r * w / np.linalg.norm(w)).tolist())
        disk = (c, tuple(m.tolist()), r)
        _all, want = handed_out(
            geom, lambda: geom.intersect_disk_surface(*disk), every=True)
        accepted = bool(want)
        ids, hits = handed_out(geom, lambda: geom.intersect_disk_surface(
            *disk))
        assert hits == want
    if accepted:
        assert 0 in ids


def edge_normals(geom):
    """Each surface edge's unit triangle normals, by sorted edge."""
    normals = {}
    for i, j, k, _p in geom.triangles:
        p0, p1, p2 = (geom.vertices[v] for v in (i, j, k))
        n = np.cross(p1 - p0, p2 - p0)
        for e in ((i, j), (j, k), (k, i)):
            normals.setdefault(tuple(sorted(e)), []).append(
                n / np.linalg.norm(n))
    return normals


def crease_edges(geom):
    """The surface edges whose two triangles are not coplanar."""
    return [e for e, (n1, n2) in sorted(edge_normals(geom).items())
            if np.linalg.norm(np.cross(n1, n2)) > 1e-6]


dyadic = st.integers(0, 16).map(lambda k: k / 16.0)
ON_SURFACE = ("vertex", "face", "edge")


@st.composite
def closed_model(draw):
    """Cube, wedge or icosphere(1), unmoved or rigidly moved."""
    base = draw(st.sampled_from([cube, wedge, lambda: icosphere(1)]))()
    seed = draw(st.none() | st.integers(0, 2 ** 32 - 1))
    verts = base.vertices
    if seed is not None:
        verts = verts @ random_rotation(np.random.default_rng(seed)).T
    return PiecewiseComplex(verts, base.segments, base.triangles)


def model_point(draw, geom, kinds=ON_SURFACE + ("crease", "free")):
    """A point on or near geom's surface, of one of ``kinds``: a vertex, a
    point on a face or an edge, a point 1e-13 to 1e-9 diag off a crease
    edge, or a point in and around the box.  On the unmoved cube and
    wedge every point is dyadic, so the first three lie exactly on the
    surface."""
    verts = geom.vertices
    kind = draw(st.sampled_from(kinds))
    if kind == "vertex":
        return np.asarray(geom.pts[draw(st.integers(0, len(geom.pts) - 1))])
    i, j, k, _p = draw(st.sampled_from(geom.triangles))
    if kind == "face":
        u, v = draw(dyadic), draw(dyadic)
        assume(u + v <= 1.0)
        return (1.0 - u - v) * verts[i] + u * verts[j] + v * verts[k]
    if kind == "edge":
        i, j = draw(st.sampled_from(((i, j), (j, k), (k, i))))
        return verts[i] + draw(dyadic) * (verts[j] - verts[i])
    if kind == "crease":
        i, j = draw(st.sampled_from(crease_edges(geom)))
        e = verts[j] - verts[i]
        off = np.cross(e, draw(unit))
        assume(np.linalg.norm(off) >= 0.2 * np.linalg.norm(e))
        dist = 10.0 ** draw(st.floats(-13.0, -9.0)) * geom.diag
        return (verts[i] + draw(st.floats(0.0, 1.0)) * e
                + dist * off / np.linalg.norm(off))
    lo, hi = map(np.asarray, geom.bounds)
    return lo + np.asarray(draw(st.tuples(*[dyadic] * 3))) * 2.0 * (
        hi - lo) - 0.5 * (hi - lo)


def model_segment_end(draw, geom, a):
    """A second point for a segment from a: a ``model_point``, or the
    mirror image of a through one on the surface, so that the segment
    passes through it."""
    if draw(st.booleans()):
        return 2.0 * model_point(draw, geom, ON_SURFACE) - a
    return model_point(draw, geom)


@st.composite
def parity_case(draw):
    """A ``closed_model`` and three points of ``model_point``, the second
    maybe mirrored through a surface point (``model_segment_end``)."""
    geom = draw(closed_model())
    a = model_point(draw, geom)
    b = model_segment_end(draw, geom, a)
    return (geom,) + tuple(tuple(map(float, x))
                           for x in (a, b, model_point(draw, geom)))


@st.composite
def segment_case(draw):
    """A ``closed_model`` and a segment on and near its surface: between
    two points of ``model_point`` (``model_segment_end``); across a point
    of a crease edge, normal to the edge and to the sum of its triangles'
    normals, so that it grazes the crease; or along a face through a point
    of it, its ends 1e-17 to 1e-6 diag off the face's plane on either
    side, where a float solve of the crossing loses all or some digits."""
    geom = draw(closed_model())
    kind = draw(st.sampled_from(("points", "graze", "tilt")))
    if kind == "points":
        a = model_point(draw, geom)
        b = model_segment_end(draw, geom, a)
        return geom, tuple(map(float, a)), tuple(map(float, b))
    verts = geom.vertices
    if kind == "graze":
        i, j = draw(st.sampled_from(crease_edges(geom)))
        e = verts[j] - verts[i]
        x = verts[i] + draw(dyadic) * e
        d = np.cross(e, sum(edge_normals(geom)[(i, j)]))
        tilt = np.zeros(3)
    else:
        i, j, k, _p = draw(st.sampled_from(geom.triangles))
        u, v = draw(dyadic), draw(dyadic)
        assume(u + v <= 1.0)
        x = (1.0 - u - v) * verts[i] + u * verts[j] + v * verts[k]
        n = np.cross(verts[j] - verts[i], verts[k] - verts[i])
        n /= np.linalg.norm(n)
        d = np.cross(n, draw(unit))
        tilt = 10.0 ** draw(st.floats(-17.0, -6.0)) * geom.diag * n
    assume(np.linalg.norm(d) > 0.0)
    d *= draw(st.floats(0.05, 1.0)) * geom.diag / np.linalg.norm(d)
    return geom, tuple(map(float, x - d - tilt)), tuple(map(float,
                                                           x + d + tilt))


# the unit tetrahedron, and segments on which a float hit test with
# barycentric slack and a near-parallel cutoff disagreed with the exact
# crossings: one passing 1e-11 beyond a vertex (two hits, no crossing),
# one tilted 1e-17 off the face z = 0 (no hit, one crossing) and two whose
# float determinant underflows, to -1e-323 and, on the tetrahedron halved,
# to 0
TETRAHEDRON = PiecewiseComplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                               [], [(0, 2, 1, 0), (0, 1, 3, 1), (0, 3, 2, 2),
                                    (1, 2, 3, 3)])


@settings(max_examples=300, deadline=None)
@given(segment_case())
@example((TETRAHEDRON, (1.0 + 1e-11, 0.0, -1.0), (1.0 + 1e-11, 0.0, 1.0)))
@example((TETRAHEDRON, (0.2, 0.2, -1e-17), (0.3, 0.2, 1e-17)))
@example((TETRAHEDRON, (0.2, 0.2, -5e-324), (0.3, 0.2, 5e-324)))
@example((PiecewiseComplex(0.5 * TETRAHEDRON.vertices, [],
                           TETRAHEDRON.triangles),
          (0.1, 0.1, -5e-324), (0.15, 0.1, 5e-324)))
def test_segment_hits_are_the_exact_crossings(case):
    # every hit is a triangle that the shifted segment crosses, with its
    # patch, within 1e-9 diag of the exact crossing point; and every
    # crossing lies that near a hit, plus the eps that merges hits
    geom, a, b = case
    verts, tris = geom.vertices, geom.triangles
    tol = 1e-9 * geom.diag
    crossings = [(crossing_point_reference(a, b, *verts[list(tris[t][:3])]),
                  tris[t][3])
                 for t in crossings_reference(a, b, verts, tris)]
    hits = geom.intersect_segment_surface(a, b)
    assert len(hits) <= len(crossings)
    for x, patch in hits:
        assert all(map(math.isfinite, x))
        assert any(math.dist(x, y) <= tol for y, p in crossings if p == patch)
    for y, _p in crossings:
        assert any(max(abs(x[m] - y[m]) for m in range(3)) <= geom.eps + tol
                   for x, _q in hits)


@settings(max_examples=150, deadline=None)
@given(parity_case())
def test_crossing_parity_is_exact(case):
    # the walk's parity equals the rational reference and the parity over
    # every triangle, a closed polygon crosses the surface an even number
    # of times, and membership is the parity to a point outside the box
    geom, a, b, c = case
    verts, tris = geom.vertices, geom.triangles
    odd = []
    for p, q in ((a, b), (b, c), (c, a)):
        want = parity_reference(p, q, verts, tris)
        assert geom._ray_parity(p, q) == want
        _ids, every = handed_out(geom, lambda: geom._ray_parity(p, q),
                                 every=True)
        assert every == want
        odd.append(want)
    assert sum(odd) % 2 == 0
    far = tuple(np.asarray(geom.bounds[1]) + geom.diag * np.array(
        [1.0, 0.3, 0.7]))
    assert geom.point_in_volume(a) == parity_reference(a, far, verts, tris)


def test_membership_rays_collect_few_candidates_on_dense_input(monkeypatch):
    # a 3x-diagonal parity ray's bounding box covers some 750 of the 5,120
    # triangles of icosphere(4); the ray itself passes near a dozen
    c = icosphere(4)
    sizes = []
    query_box = AABBTree.query_box

    def recorded(tree, *args, **kwargs):
        out = query_box(tree, *args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(AABBTree, "query_box", recorded)
    for p in ((0.0, 0.0, 0.0), (0.3, -0.2, 0.5), (1.5, 0.2, -0.1)):
        c.point_in_volume(p)
    assert sizes and max(sizes) <= 32


def test_queries_are_pure():
    c = icosphere(1)
    a, b = (-2, 0.03, 0.01), (2, 0.03, 0.01)
    first = c.intersect_segment_surface(a, b)
    for _ in range(5):
        assert c.intersect_segment_surface(a, b) == first


# ----------------------------------------------------------------------
# initial sampling


def test_initial_sampling_cube_selects_corners():
    c = cube()
    chosen = c.initial_sampling(8)
    assert sorted(chosen) == list(range(8))


def test_initial_sampling_collinear_includes_endpoints():
    verts = [(k / 9.0, 0, 0) for k in range(10)]
    segs = [(k, k + 1, 0) for k in range(9)]
    c = PiecewiseComplex(verts, segs, [])
    chosen = c.initial_sampling(4)
    assert 0 in chosen and 9 in chosen


def test_initial_sampling_all_when_fewer_vertices():
    c = parse_complex("v 0 0 0\nv 1 0 0\nv 0 1 0\nt 0 1 2 0\n")
    assert sorted(c.initial_sampling(8)) == [0, 1, 2]


def sampling_complex(layout):
    """Points with a curve through some of them: on a 5 x 5 x 4 lattice,
    where most distances tie, or at random; "bare" is the lattice without
    the curve."""
    if layout == "random":
        verts = np.random.default_rng(3).uniform(-1.0, 1.0, (80, 3))
    else:
        verts = np.array([(x, y, z) for z in range(4) for y in range(5)
                          for x in range(5)], dtype=float)
    path = [] if layout == "bare" else [0, 1, 2, 7, 12, 37, 62, 61]
    return PiecewiseComplex(verts, [(a, b, 0) for a, b in zip(path,
                                                                path[1:])], [])


@pytest.mark.parametrize("layout", ["lattice", "random", "bare"])
@pytest.mark.parametrize("n", [4, 8, 20])
@pytest.mark.parametrize("forced", [(), (5, 44, 79)], ids=["free", "forced"])
def test_initial_sampling_equals_the_brute_force_greedy_pick(layout, n,
                                                             forced):
    geom = sampling_complex(layout)
    assert geom.initial_sampling(n, forced) == initial_sampling_reference(
        geom, n, forced)


def test_initial_sampling_well_separated():
    c = icosphere(2)
    n = 8
    chosen = c.initial_sampling(n)
    pts = np.asarray(c.vertices)[chosen]
    dmin = min(np.linalg.norm(pts[i] - pts[j])
               for i in range(n) for j in range(i + 1, n))
    # the (n+1)-th greedy candidate's clearance never beats the chosen set
    rest = [v for v in range(len(c.vertices)) if v not in chosen]
    next_d = max(min(np.linalg.norm(c.vertices[v] - pts[i]) for i in range(n))
                 for v in rest)
    assert dmin >= next_d - 1e-12
