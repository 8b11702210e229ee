"""Scene-graph data model and JSON load/save.

A scene is a flat list of objects, each described by an id, an
axis-aligned bounding box (center + per-axis extents, z up) and a few
semantic attributes (tag, caption, color, material). Spatial edges are
derived by the oracle, never stored in the file format.

`parse_scene` makes one test of each whole node and builds the nodes that
pass it directly; only a node that fails it goes through the per-field
checks, which word the error (or, for int box numbers, convert them). An
`ObjectNode` is a NamedTuple, so it equals the plain tuple of its fields.
Each box number is kept within MAX_COORDINATE of 0; the writer relies on
that bound to write a node's id and both boxes at one decimal with one
format call. `serialize_scene` writes the bytes
json.dumps would, in one of the three forms a prompt sends (FORMS): the
full scene, the scene without captions, and the scene without captions,
colors and materials. A scene encodes each node once, on its first
serialization, into the pieces those forms are joined from, and keeps the
pieces, each form's length, each form's node JSON and joined array, and
the node ids in node order for every later call: the length of a form is
known without building it, and a form is joined once per scene.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, NamedTuple

# JSON keys, in canonical output order.
NODE_KEYS = ("id", "bbox_extent", "bbox_center", "object_tag", "caption", "color", "material")
REQUIRED_KEYS = ("id", "bbox_extent", "bbox_center", "object_tag")
OPTIONAL_TEXT_KEYS = ("caption", "color", "material")
_NODE_KEY_SET = frozenset(NODE_KEYS)
# The node fields left out of each form of the scene a prompt sends: the
# full scene, the caption-less one and the attribute-less one.
FORMS = (frozenset(), frozenset({"caption"}), frozenset(OPTIONAL_TEXT_KEYS))
# The largest magnitude of a box number, in metres.
MAX_COORDINATE = 1e9


class SceneError(ValueError):
    """Malformed scene input. Carries the node index and field when known."""

    def __init__(self, message: str, node_index: int | None = None, field_name: str | None = None):
        self.node_index = node_index
        self.field_name = field_name
        prefix = ""
        if node_index is not None:
            prefix = f"node[{node_index}]"
            if field_name:
                prefix += f".{field_name}"
            prefix += ": "
        super().__init__(prefix + message)


class Vec3(NamedTuple):
    x: float
    y: float
    z: float

    def __sub__(self, other):
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)


class ObjectNode(NamedTuple):
    """One object of a scene, as `parse_scene` accepts it: an int id >= 0,
    box numbers that are floats within MAX_COORDINATE of 0 (extents >= 0),
    and extras whose keys are distinct and name no node field. So no sum,
    square or volume of box numbers overflows, and every node is written
    the one way `encoded_nodes` writes it. A NamedTuple: immutable,
    hashable when its extras are, and equal to the tuple of its fields."""

    id: int
    bbox_extent: Vec3
    bbox_center: Vec3
    object_tag: str
    caption: str = ""
    color: str = ""
    material: str = ""
    # Unknown JSON keys, preserved verbatim for round-tripping.
    extra: tuple[tuple[str, Any], ...] = ()

    def volume(self) -> float:
        return self.bbox_extent.x * self.bbox_extent.y * self.bbox_extent.z


@dataclass(frozen=True)
class SceneGraph:
    nodes: tuple[ObjectNode, ...]
    # id -> node, built from `nodes`; left out of equality, hash and repr.
    _by_id: dict[int, ObjectNode] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id = {n.id: n for n in self.nodes}
        if len(by_id) != len(self.nodes):
            seen: set[int] = set()
            for n in self.nodes:
                if n.id in seen:
                    raise SceneError(f"duplicate node id {n.id}")
                seen.add(n.id)
        object.__setattr__(self, "_by_id", by_id)
        # The serialization cache, an _Encoding set on first use by
        # `encoded_nodes` and `serialized_length`. No dataclass field, so
        # equality, hash and repr leave it out. It and each form it builds
        # are pure functions of the immutable nodes, so threads that race
        # to fill one store equal values.
        object.__setattr__(self, "_encoding", None)

    def node(self, node_id: int) -> ObjectNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._by_id


# `_parse_node` and the checks behind it take values from json.loads, which
# makes no subclass of int, float, str, list or dict but bool. So there
# `type(v) is int` tests what `isinstance(v, int) and not isinstance(v, bool)`
# does, and `type(v) is T` what `isinstance(v, T)` does for the others.

_new = tuple.__new__


def _parse_vec3(value: Any, index: int, field_name: str) -> list[float]:
    if type(value) is not list or len(value) != 3:
        raise SceneError("expected a 3-element array", index, field_name)
    for c in value:
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise SceneError(f"non-numeric component {c!r}", index, field_name)
        # `not <=`: NaN compares false; an int is compared exactly.
        if not abs(c) <= MAX_COORDINATE:
            raise SceneError(f"component must be a number within {MAX_COORDINATE:g} m of 0", index, field_name)
    return [float(c) for c in value]


def _checked_boxes(obj: dict, index: int) -> tuple[list[float], list[float]]:
    """Check a node that failed `_parse_node`'s test field by field, in a
    fixed order, and raise SceneError for the first field at fault. A node
    these checks pass has an int box number, the one thing they accept and
    the test does not; its extent and centre are returned as floats."""
    for key in REQUIRED_KEYS:
        if key not in obj:
            raise SceneError(f"missing required field {key!r}", index, key)

    node_id = obj["id"]
    if type(node_id) is not int:
        raise SceneError(f"id must be an integer, got {node_id!r}", index, "id")
    if node_id < 0:
        raise SceneError(f"id must be non-negative, got {node_id}", index, "id")

    extent = _parse_vec3(obj["bbox_extent"], index, "bbox_extent")
    if not (extent[0] >= 0 and extent[1] >= 0 and extent[2] >= 0):
        c = next(c for c in extent if c < 0)
        raise SceneError(f"negative extent component {c}", index, "bbox_extent")
    center = _parse_vec3(obj["bbox_center"], index, "bbox_center")

    tag = obj["object_tag"]
    if type(tag) is not str or not tag:
        raise SceneError("object_tag must be a non-empty string", index, "object_tag")

    for key in OPTIONAL_TEXT_KEYS:
        if type(obj.get(key, "")) is not str:
            raise SceneError(f"{key} must be a string", index, key)
    return extent, center


def _parse_node(obj: Any, index: int) -> ObjectNode:
    """The node `obj` describes, or SceneError naming its first field at
    fault.

    One test accepts a whole node: a dict with the required keys, an int id
    >= 0, two 3-element lists of floats within MAX_COORDINATE of 0 (extents
    >= 0), a non-empty str tag and str caption, color and material. A node
    that passes is built with no further call. One that fails goes to
    `_checked_boxes`, which words the error.
    """
    if type(obj) is not dict:
        raise SceneError("expected a JSON object", index)
    get = obj.get
    node_id = get("id")
    extent = get("bbox_extent")
    center = get("bbox_center")
    tag = get("object_tag")
    caption = get("caption", "")
    color = get("color", "")
    material = get("material", "")
    m = MAX_COORDINATE
    whole = False
    if (
        type(node_id) is int
        and node_id >= 0
        and type(extent) is list
        and len(extent) == 3
        and type(center) is list
        and len(center) == 3
        and type(tag) is str
        and tag
        and type(caption) is str
        and type(color) is str
        and type(material) is str
    ):
        ex, ey, ez = extent
        cx, cy, cz = center
        # NaN fails every comparison.
        whole = (
            type(ex) is type(ey) is type(ez) is type(cx) is type(cy) is type(cz) is float
            and 0.0 <= ex <= m
            and 0.0 <= ey <= m
            and 0.0 <= ez <= m
            and -m <= cx <= m
            and -m <= cy <= m
            and -m <= cz <= m
        )
    if not whole:
        extent, center = _checked_boxes(obj, index)
    extra = () if obj.keys() <= _NODE_KEY_SET else tuple((k, v) for k, v in obj.items() if k not in _NODE_KEY_SET)
    return _new(ObjectNode, (node_id, _new(Vec3, extent), _new(Vec3, center), tag, caption, color, material, extra))


def _read_nodes(json_text: str) -> tuple[int, list[ObjectNode], list[SceneError]]:
    """(array length, valid nodes, node issues in input order).

    A bad node or a repeated id is an issue and the scan goes on; JSON
    that is malformed, nested too deep or not an array raises SceneError.
    """
    try:
        data = json.loads(json_text)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, or an integer past the int/str
        # conversion limit; RecursionError: arrays or objects nested too deep.
        raise SceneError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, list):
        raise SceneError("top-level value must be an array")

    nodes: list[ObjectNode] = []
    issues: list[SceneError] = []
    seen: set[int] = set()
    for index, obj in enumerate(data):
        try:
            node = _parse_node(obj, index)
        except SceneError as exc:
            issues.append(exc)
            continue
        if node.id in seen:
            issues.append(SceneError(f"duplicate id {node.id}", index, "id"))
        seen.add(node.id)
        nodes.append(node)
    return len(data), nodes, issues


def parse_scene(json_text: str) -> SceneGraph:
    """Parse scene JSON into a SceneGraph.

    Input must be a top-level array of node objects. Any structural
    problem raises SceneError naming the offending node and field;
    a partial scene is never returned.
    """
    _, nodes, issues = _read_nodes(json_text)
    if issues:
        raise issues[0]
    return SceneGraph(nodes=tuple(nodes))


# The id and box items of a node's JSON object, and the tag's key.
_ID_AND_BOXES = '"id": %d, "bbox_extent": [%.1f, %.1f, %.1f], "bbox_center": [%.1f, %.1f, %.1f], "object_tag": '


def _encode_node(node: ObjectNode) -> tuple[str, str, str, str]:
    """The node's JSON object as json.dumps writes it, in four pieces, each
    encoded once: the id, box and tag items; ', "caption": …';
    ', "color": …, "material": …'; and ', ' + each extra item, in order.
    A form's object is "{" + its pieces + "}".

    json writes each box number rounded to one decimal as float.__repr__
    does, with -0.0 written as 0.0. For a box number within MAX_COORDINATE,
    "%.1f" writes the correctly rounded digits that round(c, 1) keeps, and
    float.__repr__ of a one-decimal float below 1e16 writes those digits
    back. "%.1f" writes "-0.0" only as a whole box number, for one that
    rounds to zero from below, and no id or key holds it, so one replace
    over the id and box items, before the tag is added, writes 0.0."""
    e = encode_basestring_ascii
    return (
        (_ID_AND_BOXES % (node.id, *node.bbox_extent, *node.bbox_center)).replace("-0.0", "0.0") + e(node.object_tag),
        ', "caption": ' + e(node.caption),
        ', "color": ' + e(node.color) + ', "material": ' + e(node.material),
        # json.dumps of a one-item dict is "{" + that item + "}".
        "".join([", " + json.dumps({key: value})[1:-1] for key, value in node.extra]),
    )


class _Encoding:
    """A scene's node ids in node order; its nodes, each encoded once by
    `_encode_node`; the length of each form's array; and each form's node
    objects and joined array, each built on first use."""

    __slots__ = ("ids", "pieces", "lengths", "forms", "texts")

    def __init__(self, nodes: tuple[ObjectNode, ...]):
        self.ids = tuple([n.id for n in nodes])
        self.pieces = pieces = [_encode_node(n) for n in nodes]
        # In the array each object adds its length + 2: a ", " after all
        # but the last, whose 2 pay for the brackets. An empty array is "[]".
        core = sum(len(c) + len(x) + 4 for c, _, _, x in pieces)
        caption = sum(len(p[1]) for p in pieces)
        attributes = sum(len(p[2]) for p in pieces)
        self.lengths = tuple(max(n, 2) for n in (core + caption + attributes, core + attributes, core))
        self.forms: list[tuple[str, ...] | None] = [None] * len(FORMS)
        self.texts: list[str | None] = [None] * len(FORMS)

    def nodes_of(self, form: int) -> tuple[str, ...]:
        """Each node's object in FORMS[form]."""
        out = self.forms[form]
        if out is None:
            out = self.forms[form] = _form_nodes(self.pieces, form)
        return out

    def text_of(self, form: int) -> str:
        """The JSON array of FORMS[form]."""
        text = self.texts[form]
        if text is None:
            text = self.texts[form] = "[" + ", ".join(self.nodes_of(form)) + "]"
        return text


def _form_nodes(pieces: list[tuple[str, str, str, str]], form: int) -> tuple[str, ...]:
    """Each node's object in FORMS[form]."""
    if form == 0:
        return tuple(["{" + c + caption + a + x + "}" for c, caption, a, x in pieces])
    if form == 1:
        return tuple(["{" + c + a + x + "}" for c, _, a, x in pieces])
    return tuple(["{" + c + x + "}" for c, _, _, x in pieces])


def _scene_encoding(scene: SceneGraph) -> _Encoding:
    """The scene's encoding, built on first use."""
    encoding = scene._encoding
    if encoding is None:
        encoding = _Encoding(scene.nodes)
        object.__setattr__(scene, "_encoding", encoding)
    return encoding


def _encoding_and_form(scene: SceneGraph, omit: Iterable[str]) -> tuple[_Encoding, int]:
    """The scene's encoding, built on first use, and the index in FORMS of
    `omit`."""
    omit = frozenset(omit)
    try:
        form = FORMS.index(omit)
    except ValueError:
        raise ValueError(f"omit must be one of FORMS, {[sorted(f) for f in FORMS]}; got {sorted(omit)}") from None
    return _scene_encoding(scene), form


def encoded_nodes(scene: SceneGraph, omit: Iterable[str] = frozenset()) -> tuple[str, ...]:
    """Each node's JSON object in the form that leaves out the fields in
    `omit`, one of FORMS, in node order: the items of serialize_scene's
    array. Each node is encoded once per scene, and each form is built
    once per scene."""
    encoding, form = _encoding_and_form(scene, omit)
    return encoding.nodes_of(form)


def serialized_length(scene: SceneGraph, omit: Iterable[str] = frozenset()) -> int:
    """len(serialize_scene(scene, omit)) for `omit` one of FORMS, kept with
    the scene's encoding: no node's JSON is built."""
    encoding, form = _encoding_and_form(scene, omit)
    return encoding.lengths[form]


def serialize_scene(scene: SceneGraph, omit: Iterable[str] = frozenset()) -> str:
    """The canonical JSON array in the form that leaves out the fields in
    `omit`, one of FORMS: the bytes json.dumps writes for the node objects,
    box numbers at one decimal. Joined once per scene and form, and kept
    with the scene's encoding."""
    encoding, form = _encoding_and_form(scene, omit)
    return encoding.text_of(form)


def node_ids(scene: SceneGraph) -> tuple[int, ...]:
    """The ids of the scene's nodes in node order, kept with its encoding."""
    return _scene_encoding(scene).ids


def scene_issues(json_text: str) -> tuple[int, list[SceneError]]:
    """Lenient validation pass: (node count, all issues found).

    Unlike parse_scene, keeps going after the first bad node so a
    validation report can list every problem at once.
    """
    try:
        count, _, issues = _read_nodes(json_text)
    except SceneError as exc:
        return 0, [exc]
    return count, issues
