import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from scenequery.oracle import _box
from scenequery.scene_model import (
    _encode_node,
    FORMS,
    MAX_COORDINATE,
    NODE_KEYS,
    OPTIONAL_TEXT_KEYS,
    REQUIRED_KEYS,
    ObjectNode,
    SceneError,
    SceneGraph,
    Vec3,
    encoded_nodes,
    parse_scene,
    scene_issues,
    serialize_scene,
    serialized_length,
)


class TestParseScene:
    def test_sample_scene(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        assert len(scene.nodes) == 2
        vase, mirror = scene.nodes
        assert vase.id == 0
        assert vase.object_tag == "vase"
        assert vase.bbox_extent == Vec3(0.7, 0.6, 0.4)
        assert vase.bbox_center == Vec3(-4.2, -2.0, 0.1)
        assert vase.color == "silver"
        assert vase.material == "metal/silver"
        assert mirror.id == 5
        assert mirror.object_tag == "mirror"
        assert mirror.bbox_extent == Vec3(0.9, 0.7, 0.2)

    def test_empty_array(self):
        scene = parse_scene("[]")
        assert scene.nodes == ()

    def test_duplicate_id(self):
        nodes = [
            {"id": 3, "bbox_extent": [1, 1, 1], "bbox_center": [0, 0, 0], "object_tag": "a"},
            {"id": 3, "bbox_extent": [1, 1, 1], "bbox_center": [0, 0, 0], "object_tag": "b"},
        ]
        with pytest.raises(SceneError, match="duplicate id 3"):
            parse_scene(json.dumps(nodes))

    def test_malformed_json(self):
        with pytest.raises(SceneError, match="malformed JSON"):
            parse_scene("[{")

    def test_non_array_top_level(self):
        with pytest.raises(SceneError, match="array"):
            parse_scene('{"id": 0}')

    @pytest.mark.parametrize("missing", ["id", "bbox_extent", "bbox_center", "object_tag"])
    def test_missing_required_field(self, missing):
        node = {"id": 1, "bbox_extent": [1, 1, 1], "bbox_center": [0, 0, 0], "object_tag": "x"}
        del node[missing]
        with pytest.raises(SceneError) as exc:
            parse_scene(json.dumps([node]))
        assert missing in str(exc.value)
        assert exc.value.node_index == 0

    def test_optional_fields_default_empty(self):
        scene = parse_scene('[{"id": 1, "bbox_extent": [1,1,1], "bbox_center": [0,0,0], "object_tag": "x"}]')
        node = scene.nodes[0]
        assert node.caption == "" and node.color == "" and node.material == ""

    def test_bad_extent_length(self):
        node = {"id": 1, "bbox_extent": [1, 1], "bbox_center": [0, 0, 0], "object_tag": "x"}
        with pytest.raises(SceneError, match="3-element"):
            parse_scene(json.dumps([node]))

    def test_negative_extent(self):
        node = {"id": 1, "bbox_extent": [1, -0.5, 1], "bbox_center": [0, 0, 0], "object_tag": "x"}
        with pytest.raises(SceneError, match="negative extent"):
            parse_scene(json.dumps([node]))

    def test_non_finite_number(self):
        # NaN, the infinities and any number past the bound, int or float,
        # are rejected; the bound itself is accepted.
        for value in ["Infinity", "-Infinity", "NaN", "1e200", "-1000000000.0001", "1" + "0" * 400]:
            text = f'[{{"id": 1, "bbox_extent": [1, 1, 1], "bbox_center": [0, {value}, 0], "object_tag": "x"}}]'
            with pytest.raises(SceneError, match=r"node\[0\]\.bbox_center: component must be a number within 1e\+09 m"):
                parse_scene(text)
        text = '[{"id": 1, "bbox_extent": [1e9, 1, 1], "bbox_center": [-1e9, 1000000000, 0], "object_tag": "x"}]'
        assert parse_scene(text).nodes[0].bbox_center == Vec3(-MAX_COORDINATE, MAX_COORDINATE, 0)

    def test_error_names_node_and_field(self):
        nodes = [
            {"id": 0, "bbox_extent": [1, 1, 1], "bbox_center": [0, 0, 0], "object_tag": "ok"},
            {"id": 1, "bbox_extent": "bad", "bbox_center": [0, 0, 0], "object_tag": "x"},
        ]
        with pytest.raises(SceneError) as exc:
            parse_scene(json.dumps(nodes))
        assert exc.value.node_index == 1
        assert exc.value.field_name == "bbox_extent"

    def test_unknown_keys_preserved(self):
        node = {
            "id": 1,
            "bbox_extent": [1, 1, 1],
            "bbox_center": [0, 0, 0],
            "object_tag": "x",
            "confidence": 0.9,
        }
        scene = parse_scene(json.dumps([node]))
        assert dict(scene.nodes[0].extra) == {"confidence": 0.9}
        out = json.loads(serialize_scene(scene))
        assert out[0]["confidence"] == 0.9


class TestSceneGraph:
    def test_lookup_by_id(self, couch, pillow):
        scene = SceneGraph(nodes=(couch, pillow))
        assert scene.node(27) is pillow
        assert scene.has_node(28) and not scene.has_node(5)
        with pytest.raises(KeyError, match="no node with id 5"):
            scene.node(5)

    def test_duplicate_id_message(self):
        a = ObjectNode(4, Vec3(1, 1, 1), Vec3(0, 0, 0), "a")
        b = ObjectNode(4, Vec3(1, 1, 1), Vec3(1, 1, 1), "b")
        with pytest.raises(SceneError) as exc:
            SceneGraph(nodes=(a, b))
        assert str(exc.value) == "duplicate node id 4"

    def test_index_is_not_part_of_value(self, couch, pillow):
        one, two = SceneGraph(nodes=(couch, pillow)), SceneGraph(nodes=(couch, pillow))
        serialize_scene(one)  # fills one's serialization cache, not two's
        assert one == two and hash(one) == hash(two)
        assert one != SceneGraph(nodes=(pillow, couch))
        assert repr(one) == f"SceneGraph(nodes={(couch, pillow)!r})"


class TestSerializeScene:
    def test_round_trip_sample(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        again = parse_scene(serialize_scene(scene))
        assert again == scene

    def test_empty(self):
        assert serialize_scene(SceneGraph(nodes=())) == "[]"

    def test_key_order(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        out = json.loads(serialize_scene(scene))
        assert list(out[0].keys()) == list(NODE_KEYS)

    def test_omit_caption(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        text = serialize_scene(scene, frozenset({"caption"}))
        out = json.loads(text)
        assert all("caption" not in node for node in out)
        reparsed = parse_scene(text)
        assert all(n.caption == "" for n in reparsed.nodes)

    @pytest.mark.parametrize(
        "omit", [{"color"}, {"caption", "color"}, {"tags"}, {"caption", "tags"}, set(NODE_KEYS)]
    )
    def test_omit_outside_forms_rejected(self, sample_scene_json, omit):
        scene = parse_scene(sample_scene_json)
        for write in (serialize_scene, encoded_nodes, serialized_length):
            with pytest.raises(ValueError, match="omit must be one of FORMS"):
                write(scene, omit)

    def test_precision_rounding(self):
        node = ObjectNode(0, Vec3(0.123, 1.0, 1.0), Vec3(0.06, 0.0, 0.0), "x")
        out = json.loads(serialize_scene(SceneGraph(nodes=(node,))))
        assert out[0]["bbox_extent"] == [0.1, 1.0, 1.0]
        assert out[0]["bbox_center"] == [0.1, 0.0, 0.0]


class TestAabb:
    """The oracle's flat box: (min x, max x, min y, max y, min z, max z, centre z)."""

    def test_vase(self):
        node = ObjectNode(0, Vec3(0.7, 0.6, 0.4), Vec3(-4.2, -2.0, 0.1), "vase")
        assert _box(node) == pytest.approx((-4.55, -3.85, -2.3, -1.7, -0.1, 0.3, 0.1))

    def test_degenerate(self):
        node = ObjectNode(0, Vec3(0, 0, 0), Vec3(1, 2, 3), "pt")
        assert _box(node) == (1, 1, 2, 2, 3, 3, 3)

    def test_couch(self, couch):
        assert _box(couch) == pytest.approx((2.3, 3.3, 1.85, 2.75, -1.5, -0.9, -1.2))


finite = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)
extent_component = st.floats(min_value=0, max_value=1000, allow_nan=False, allow_infinity=False)


@st.composite
def scenes(draw, max_nodes=6):
    count = draw(st.integers(min_value=0, max_value=max_nodes))
    nodes = []
    for i in range(count):
        nodes.append(
            ObjectNode(
                id=i,
                bbox_extent=Vec3(*(draw(extent_component) for _ in range(3))),
                bbox_center=Vec3(*(draw(finite) for _ in range(3))),
                object_tag=draw(st.text(alphabet="abcxyz ", min_size=1, max_size=8).filter(str.strip)),
                caption=draw(st.text(max_size=20)),
            )
        )
    return SceneGraph(nodes=tuple(nodes))


@given(scenes())
def test_round_trip_property(scene):
    """parse(serialize(s)) matches s up to the 1-decimal output precision."""
    again = parse_scene(serialize_scene(scene))
    assert len(again.nodes) == len(scene.nodes)
    for before, after in zip(scene.nodes, again.nodes):
        assert after.id == before.id
        assert after.object_tag == before.object_tag
        assert after.caption == before.caption
        for b, a in zip(before.bbox_center, after.bbox_center):
            assert abs(a - round(b, 1)) < 1e-9
        for b, a in zip(before.bbox_extent, after.bbox_extent):
            assert abs(a - round(b, 1)) < 1e-9


@given(st.tuples(extent_component, extent_component, extent_component), st.tuples(finite, finite, finite))
@example(extent=(129.0, 308.0, 1e-05), center=(0.0, 0.0, 129.0))
@example(extent=(1e-09, 471.0, 612.0), center=(17.0, 0.0, 0.0))
def test_aabb_volume_preserved(extent, center):
    """Each side of the box is its extent, so the volume is their product.

    `center ± half` rounds each face by up to half an ulp of |center| +
    extent, and the subtraction rounds once more, so a side may miss
    its extent by a few such ulps. On a tiny extent next to a large
    centre that is a large relative error, and a volume bound misreads
    it; the per-axis bound does not.
    """
    box = _box(ObjectNode(0, Vec3(*extent), Vec3(*center), "x"))
    for lo, hi, c, e in zip(box[0:6:2], box[1:6:2], center, extent):
        assert abs((hi - lo) - e) <= 4 * math.ulp(abs(c) + e)


def test_scene_issues_collects_all():
    nodes = [
        {"id": 0, "bbox_extent": [1, 1, 1], "bbox_center": [0, 0, 0], "object_tag": "ok"},
        {"id": 0, "bbox_extent": [1, 1, 1], "bbox_center": [0, 0, 0], "object_tag": "dup"},
        {"id": 2, "bbox_extent": [1, 1], "bbox_center": [0, 0, 0], "object_tag": "short"},
    ]
    count, issues = scene_issues(json.dumps(nodes))
    assert count == 3
    assert len(issues) == 2


# One node per kind of failure, then a valid node, a node with an extra key
# and a repeat of the valid node's id.
EVERY_ISSUE = """[
 [1, 2, 3],
 {"id": 1, "bbox_extent": [1, 1, 1], "object_tag": "lamp"},
 {"id": true, "bbox_extent": [1, 1, 1], "bbox_center": [0, 0, 0], "object_tag": "flag"},
 {"id": -3, "bbox_extent": [1, 1, 1], "bbox_center": [0, 0, 0], "object_tag": "mat"},
 {"id": 4, "bbox_extent": [1, 1], "bbox_center": [0, 0, 0], "object_tag": "rug"},
 {"id": 5, "bbox_extent": [1, 1, 1], "bbox_center": [0, "0", 0], "object_tag": "cup"},
 {"id": 6, "bbox_extent": [1, 1, 1], "bbox_center": [NaN, 0, 0], "object_tag": "vase"},
 {"id": 7, "bbox_extent": [1, 1, 1], "bbox_center": [0.5, 1e10, 0.5], "object_tag": "box"},
 {"id": 8, "bbox_extent": [1.0, -0.5, 1.0], "bbox_center": [0.0, 0.0, 0.0], "object_tag": "bin"},
 {"id": 9, "bbox_extent": [1.0, 1.0, 1.0], "bbox_center": [0.0, 0.0, 0.0], "object_tag": ""},
 {"id": 10, "bbox_extent": [1.0, 1.0, 1.0], "bbox_center": [0.0, 0.0, 0.0], "object_tag": "pen", "caption": 3},
 {"id": 11, "bbox_extent": [1.0, 1.0, 1.0], "bbox_center": [0.0, 0.0, 0.0], "object_tag": "pen", "color": null},
 {"id": 12, "bbox_extent": [1.0, 1.0, 1.0], "bbox_center": [0.0, 0.0, 0.0], "object_tag": "pen", "material": ["wood"]},
 {"id": 13, "bbox_extent": [1.0, 1.0, 1.0], "bbox_center": [0.0, 0.0, 0.0], "object_tag": "cup"},
 {"id": 14, "bbox_extent": [1.0, 1.0, 1.0], "bbox_center": [0.0, 0.0, 0.0], "object_tag": "cup", "score": 0.9},
 {"id": 13, "bbox_extent": [1.0, 1.0, 1.0], "bbox_center": [0.0, 0.0, 0.0], "object_tag": "cup copy"}
]"""


def test_scene_issues_messages():
    """Each kind of failure, worded as it always was, in input order."""
    count, issues = scene_issues(EVERY_ISSUE)
    assert count == 16
    assert [str(e) for e in issues] == [
        "node[0]: expected a JSON object",
        "node[1].bbox_center: missing required field 'bbox_center'",
        "node[2].id: id must be an integer, got True",
        "node[3].id: id must be non-negative, got -3",
        "node[4].bbox_extent: expected a 3-element array",
        "node[5].bbox_center: non-numeric component '0'",
        "node[6].bbox_center: component must be a number within 1e+09 m of 0",
        "node[7].bbox_center: component must be a number within 1e+09 m of 0",
        "node[8].bbox_extent: negative extent component -0.5",
        "node[9].object_tag: object_tag must be a non-empty string",
        "node[10].caption: caption must be a string",
        "node[11].color: color must be a string",
        "node[12].material: material must be a string",
        "node[15].id: duplicate id 13",
    ]


# --- reference serialization -------------------------------------------------
# The straightforward serializer: a dict per node, one json.dumps for the
# whole list. serialize_scene, which encodes each field once per scene and
# caches the pieces, must write exactly these bytes.


def reference_node_to_dict(node, omit=frozenset()):
    out = {
        "id": node.id,
        "bbox_extent": [round(c, 1) + 0.0 for c in node.bbox_extent],
        "bbox_center": [round(c, 1) + 0.0 for c in node.bbox_center],
        "object_tag": node.object_tag,
    }
    for key in OPTIONAL_TEXT_KEYS:
        out[key] = getattr(node, key)
    for key in omit:
        out.pop(key, None)
    for key, value in node.extra:
        out[key] = value
    return out


def reference_serialize_scene(scene, omit=frozenset()):
    return json.dumps([reference_node_to_dict(n, omit) for n in scene.nodes])


awkward_char = st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "é", "雪", "😀"]),
)
awkward_text = st.text(awkward_char, max_size=8)
coordinate = st.one_of(
    st.floats(-MAX_COORDINATE, MAX_COORDINATE),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**5), 10**5).map(lambda k: k / 20),  # halves of the last kept decimal
    st.integers(-(10**4), 10**4).map(lambda k: k / 10 + 0.05),  # the same, with float error
    st.sampled_from([0.0, -0.0, -0.04, 0.05, -0.05, 0.15, 0.25, 2.675, 5e-324]),
    st.sampled_from([MAX_COORDINATE, -MAX_COORDINATE, MAX_COORDINATE - 0.05, int(MAX_COORDINATE)]),
)
# Extents are not negative; -0.0 is kept.
extent = coordinate.map(lambda c: -c if c < 0 else c)
json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), awkward_text),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(awkward_text, inner, max_size=3)),
    max_leaves=4,
)
# As JSON object keys, extras are distinct and name no node field.
extra_items = st.dictionaries(awkward_text.filter(lambda k: k not in NODE_KEYS), json_value, max_size=3)


@st.composite
def awkward_scene_texts(draw):
    """Scene JSON text: up to 5 nodes with ids up to 2**70, box numbers
    within the bound, awkward text, and extras holding nested JSON, with
    each node's keys in any order."""
    ids = draw(st.lists(st.integers(0, 2**70), max_size=5, unique=True))
    rows = []
    for i in ids:
        items = [
            ("id", i),
            ("bbox_extent", draw(st.lists(extent, min_size=3, max_size=3))),
            ("bbox_center", draw(st.lists(coordinate, min_size=3, max_size=3))),
            ("object_tag", draw(awkward_text.filter(bool))),
        ]
        items += [(key, draw(awkward_text)) for key in OPTIONAL_TEXT_KEYS if draw(st.booleans())]
        items += draw(extra_items).items()
        rows.append(dict(draw(st.permutations(items))))
    return json.dumps(rows)


AWKWARD = json.dumps(
    [
        {
            "id": 0,
            "bbox_extent": [-0.0, 0.05, 2.675],
            "bbox_center": [-0.04, MAX_COORDINATE, 0.25],
            "object_tag": 'a "q" \\ \x01',
            "tags": ["é", {"k": [1.5, None]}],
            "caption": "Über ☃ 雪",
            "color": "\u2028",
            "material": "é",
        },
        {
            "note": "first",
            "id": 2**70,
            "bbox_extent": [1, 2, 3],
            "bbox_center": [0.15, -0.05, 5e-324],
            "object_tag": "mirror",
        },
    ]
)


@settings(max_examples=40, deadline=None)
@given(awkward_scene_texts())
@example(AWKWARD)
@example("[]")
def test_serialize_scene_matches_reference(text):
    """Every form, each serialized twice: the second time from the scene's
    cache."""
    scene = parse_scene(text)
    for omit in FORMS:
        expected = reference_serialize_scene(scene, omit)
        assert serialize_scene(scene, omit) == expected
        assert serialize_scene(scene, set(omit)) == expected
        assert encoded_nodes(scene, omit) == tuple(json.dumps(reference_node_to_dict(n, omit)) for n in scene.nodes)
        assert serialized_length(scene, omit) == len(expected)


def reference_encode_vec3(v):
    return "[" + ", ".join(float.__repr__(round(c, 1) + 0.0) for c in v) + "]"


# Within the bound: halves of the last kept decimal with float error, at every
# magnitude up to 999999999.95.
large_tie = st.integers(-(10**10) + 1, 10**10 - 1).map(lambda k: k / 10 + 0.05)
box_number = st.one_of(coordinate, large_tie)
vec3 = st.builds(Vec3, box_number, box_number, box_number)


@settings(max_examples=2000)
@given(vec3, vec3, st.sampled_from(["x", "-0.0", "a -0.0 b", "é"]))
@example(Vec3(-0.0, -0.04, 0.05), Vec3(-0.05, 0.15, 0.25), "-0.0")
@example(Vec3(2.675, 5e-324, MAX_COORDINATE), Vec3(-MAX_COORDINATE, MAX_COORDINATE - 0.05, 999999999.95), "x")
def test_encode_node_box_items_match_reference(extent, center, tag):
    """One format writes the id and both boxes, and -0.0 becomes 0.0 there
    only: a tag holding "-0.0" is written as it is."""
    node = ObjectNode(2**70, extent, center, tag)
    assert _encode_node(node)[0] == '"id": %d, "bbox_extent": %s, "bbox_center": %s, "object_tag": %s' % (
        node.id, reference_encode_vec3(extent), reference_encode_vec3(center), json.dumps(tag)
    )


class TestObjectNode:
    """ObjectNode's contract: keyword construction with defaults, volume(),
    immutability and hashing; as a NamedTuple it equals the tuple of its
    fields."""

    def test_keyword_construction_and_defaults(self):
        node = ObjectNode(id=3, bbox_extent=Vec3(1.0, 2.0, 0.5), bbox_center=Vec3(0.0, 0.0, 0.0), object_tag="box")
        assert (node.caption, node.color, node.material, node.extra) == ("", "", "", ())
        assert node == ObjectNode(3, Vec3(1.0, 2.0, 0.5), Vec3(0.0, 0.0, 0.0), "box")
        assert node == (3, (1.0, 2.0, 0.5), (0.0, 0.0, 0.0), "box", "", "", "", ())
        assert node._fields == ("id", "bbox_extent", "bbox_center", "object_tag", "caption", "color", "material", "extra")

    def test_volume(self):
        assert ObjectNode(0, Vec3(1.5, 2.0, 0.5), Vec3(9.0, 9.0, 9.0), "box").volume() == 1.5
        assert ObjectNode(0, Vec3(0.0, 2.0, 0.5), Vec3(0.0, 0.0, 0.0), "flat").volume() == 0.0

    def test_immutable(self):
        node = ObjectNode(0, Vec3(1.0, 1.0, 1.0), Vec3(0.0, 0.0, 0.0), "box")
        for name in ("id", "object_tag", "caption", "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, "x")
        with pytest.raises(TypeError):
            node[0] = 5

    def test_equal_nodes_hash_equal(self):
        a = ObjectNode(1, Vec3(1.0, 1.0, 1.0), Vec3(0.0, 0.0, 0.0), "box", "c", extra=(("k", 1),))
        b = parse_scene(serialize_scene(SceneGraph(nodes=(a,)))).nodes[0]
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != a._replace(caption="d")


# --- reference node parsing --------------------------------------------------
# The straightforward parser: every field checked in turn, with no whole-node
# test. parse_scene and scene_issues must accept the nodes it accepts, build
# the same nodes, and word each error as it does.


def reference_parse_vec3(value, index, field_name):
    if not isinstance(value, list) or len(value) != 3:
        raise SceneError("expected a 3-element array", index, field_name)
    for c in value:
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise SceneError(f"non-numeric component {c!r}", index, field_name)
        if not abs(c) <= MAX_COORDINATE:
            raise SceneError(f"component must be a number within {MAX_COORDINATE:g} m of 0", index, field_name)
    return Vec3(*map(float, value))


def reference_parse_node(obj, index):
    if not isinstance(obj, dict):
        raise SceneError("expected a JSON object", index)
    for key in REQUIRED_KEYS:
        if key not in obj:
            raise SceneError(f"missing required field {key!r}", index, key)

    node_id = obj["id"]
    if isinstance(node_id, bool) or not isinstance(node_id, int):
        raise SceneError(f"id must be an integer, got {node_id!r}", index, "id")
    if node_id < 0:
        raise SceneError(f"id must be non-negative, got {node_id}", index, "id")

    extent = reference_parse_vec3(obj["bbox_extent"], index, "bbox_extent")
    if not (extent.x >= 0 and extent.y >= 0 and extent.z >= 0):
        c = next(c for c in extent if c < 0)
        raise SceneError(f"negative extent component {c}", index, "bbox_extent")
    center = reference_parse_vec3(obj["bbox_center"], index, "bbox_center")

    tag = obj["object_tag"]
    if not isinstance(tag, str) or not tag:
        raise SceneError("object_tag must be a non-empty string", index, "object_tag")

    texts = [obj.get(key, "") for key in OPTIONAL_TEXT_KEYS]
    for key, value in zip(OPTIONAL_TEXT_KEYS, texts):
        if not isinstance(value, str):
            raise SceneError(f"{key} must be a string", index, key)

    extra = tuple((k, v) for k, v in obj.items() if k not in NODE_KEYS)
    return ObjectNode(node_id, extent, center, tag, *texts, extra)


def reference_read(text):
    """(node count, nodes, issues as (message, node index, field)) for the
    nodes of a JSON array, with a repeated id an issue, as `_read_nodes`."""
    data = json.loads(text)
    nodes, issues, seen = [], [], set()
    for index, obj in enumerate(data):
        try:
            node = reference_parse_node(obj, index)
        except SceneError as exc:
            issues.append(exc)
            continue
        if node.id in seen:
            issues.append(SceneError(f"duplicate id {node.id}", index, "id"))
        seen.add(node.id)
        nodes.append(node)
    return len(data), nodes, [(str(e), e.node_index, e.field_name) for e in issues]


BEYOND = math.nextafter(MAX_COORDINATE, math.inf)
# Box numbers: bools, ints, NaN, the infinities, -0.0, the bound and the
# floats next to it on either side, and values that are not numbers.
ODD_NUMBERS = [
    True, False, 0, 1, -2, 10**9, 10**9 + 1, -(10**9), 10**400,
    math.nan, math.inf, -math.inf, -0.0, 0.0, -0.5, -5e-324,
    MAX_COORDINATE, -MAX_COORDINATE, BEYOND, -BEYOND,
    math.nextafter(MAX_COORDINATE, 0), -math.nextafter(MAX_COORDINATE, 0),
    "1.0", None, [1.0], {"x": 1.0},
]
odd_number = st.sampled_from(ODD_NUMBERS)
odd_value = st.one_of(odd_number, st.sampled_from(["", "x", -1, 2**70, 1.5, True, []]))
BOXES = ("bbox_extent", "bbox_center")


@st.composite
def mutation(draw):
    """One change to a node dict, as a function of it."""
    kind = draw(st.sampled_from(["number", "length", "missing", "extra", "field", "empty_tag", "not_a_dict"]))
    if kind == "number":
        key, i, value = draw(st.sampled_from(BOXES)), draw(st.integers(0, 2)), draw(odd_number)
        return lambda node: {**node, key: [value if j == i else c for j, c in enumerate(node.get(key, []))]}
    if kind == "length":
        key, size = draw(st.sampled_from(BOXES)), draw(st.sampled_from([0, 2, 4]))
        return lambda node: {**node, key: (node.get(key, []) * 2)[:size]}
    if kind == "missing":
        key = draw(st.sampled_from(NODE_KEYS))
        return lambda node: {k: v for k, v in node.items() if k != key}
    if kind == "extra":
        items = draw(extra_items)
        return lambda node: {**node, **items}
    if kind == "field":
        key, value = draw(st.sampled_from(("id",) + NODE_KEYS[3:])), draw(odd_value)
        return lambda node: {**node, key: value}
    if kind == "empty_tag":
        return lambda node: {**node, "object_tag": ""}
    value = draw(st.sampled_from([[1, 2, 3], 0, "node", None, True]))
    return lambda node: value


@st.composite
def node_dicts(draw):
    """A valid node, with floats for box numbers, then up to three mutations."""
    node = {
        "id": draw(st.integers(0, 6)),
        "bbox_extent": draw(st.lists(extent.map(float), min_size=3, max_size=3)),
        "bbox_center": draw(st.lists(coordinate.map(float), min_size=3, max_size=3)),
        "object_tag": draw(awkward_text.filter(bool)),
    }
    node.update((key, draw(awkward_text)) for key in OPTIONAL_TEXT_KEYS if draw(st.booleans()))
    for change in draw(st.lists(mutation(), max_size=3)):
        if isinstance(node, dict):
            node = change(node)
    return node


def assert_reads_as_reference(text):
    count, nodes, issues = reference_read(text)
    got_count, got_issues = scene_issues(text)
    assert (got_count, [(str(e), e.node_index, e.field_name) for e in got_issues]) == (count, issues)
    if issues:
        with pytest.raises(SceneError) as exc:
            parse_scene(text)
        assert (str(exc.value), exc.value.node_index, exc.value.field_name) == issues[0]
        return
    scene = parse_scene(text)
    # repr tells -0.0 from 0.0 and 1 from 1.0.
    assert repr(scene.nodes) == repr(tuple(nodes))
    for node in scene.nodes:
        assert type(node) is ObjectNode
        assert type(node.bbox_extent) is Vec3 and type(node.bbox_center) is Vec3
        assert all(type(c) is float for c in node.bbox_extent + node.bbox_center)


VALID_NODE = {"id": 1, "bbox_extent": [1.0, 0.5, 0.25], "bbox_center": [0.0, -2.5, 1e-3], "object_tag": "box"}


@pytest.mark.parametrize(
    "change",
    [
        {"bbox_extent": [-0.0, 1.0, 1.0], "bbox_center": [-0.0, -0.0, 0.0]},
        {"bbox_extent": [MAX_COORDINATE, 0.0, 0.0], "bbox_center": [-MAX_COORDINATE, MAX_COORDINATE, 0.0]},
        {"bbox_extent": [1, 2, 3], "bbox_center": [10**9, -(10**9), 0]},
        {"bbox_extent": [-1, 0.0, float("nan")], "bbox_center": [0.0, float("inf"), 0.0]},
        {"bbox_extent": [1.0, 1.0]},
        {"bbox_center": [1.0, 1.0, 1.0, 1.0]},
        {"bbox_extent": "1 1 1"},
        {"object_tag": ""},
        {"object_tag": 5},
        {"id": True},
        {"id": -1},
        {"id": 1.0},
        {"id": 2**70},
        {"caption": None},
        {"color": 3},
        {"material": ["wood"]},
        {"caption": "a -0.0 box", "color": "", "material": "é"},
        {"score": 0.9, "tags": ["a"]},
        {"zz": None, "bbox_center": [0.0, 0.0, 0.0]},
    ],
)
def test_each_field_change_reads_as_reference(change):
    node = {**VALID_NODE, **change}
    for missing in (None, *REQUIRED_KEYS):
        row = {k: v for k, v in node.items() if k != missing}
        assert_reads_as_reference(json.dumps([row, [1.0], row]))


@pytest.mark.parametrize("key", BOXES)
def test_each_box_number_reads_as_reference(key):
    for i in range(3):
        for value in ODD_NUMBERS:
            box = [0.5, 0.5, 0.5]
            box[i] = value
            assert_reads_as_reference(json.dumps([{**VALID_NODE, key: box}]))


@settings(max_examples=200, deadline=None)
@given(st.lists(node_dicts(), max_size=4))
def test_parse_matches_reference(rows):
    """Nodes changed field by field are read as the field-by-field parser
    reads them: the same nodes, or the same errors in the same order. Each
    node is also read alone, so a valid one is compared however its
    neighbours fare."""
    assert_reads_as_reference(json.dumps(rows))
    for row in rows:
        assert_reads_as_reference(json.dumps([row]))
