"""Scene-graph data model and JSON load/save.

A scene is a flat list of objects, each described by an id, an
axis-aligned bounding box (center + per-axis extents, z up) and a few
semantic attributes (tag, caption, color, material). Spatial edges are
derived by the oracle, never stored in the file format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import zip_longest
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, NamedTuple

# JSON keys, in canonical output order.
NODE_KEYS = ("id", "bbox_extent", "bbox_center", "object_tag", "caption", "color", "material")
REQUIRED_KEYS = ("id", "bbox_extent", "bbox_center", "object_tag")
OPTIONAL_TEXT_KEYS = ("caption", "color", "material")
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

    def __add__(self, other):  # type: ignore[override]
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)


@dataclass(frozen=True)
class ObjectNode:
    """One object of a scene, as `parse_scene` accepts it: an int id >= 0,
    box numbers that are floats within MAX_COORDINATE of 0 (extents >= 0),
    and extras whose keys are distinct and name no node field. So no sum,
    square or volume of box numbers overflows, and every node is written
    the one way `encoded_nodes` writes it."""

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
        # The serialization cache, filled by `encoded_nodes`: None -> each
        # node's encoded fields, each omit set -> each node's JSON object.
        # No dataclass field, so equality, hash and repr leave it out. An
        # entry is a pure function of the immutable nodes and its key, so
        # threads that race to fill one store equal values.
        object.__setattr__(self, "_json_by_omit", {})

    def node(self, node_id: int) -> ObjectNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._by_id


def _parse_vec3(value: Any, index: int, field_name: str) -> Vec3:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SceneError("expected a 3-element array", index, field_name)
    for c in value:
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise SceneError(f"non-numeric component {c!r}", index, field_name)
        # `not <=`: NaN compares false; an int is compared exactly.
        if not abs(c) <= MAX_COORDINATE:
            raise SceneError(f"component must be a number within {MAX_COORDINATE:g} m of 0", index, field_name)
    return Vec3(*map(float, value))


def _parse_node(obj: Any, index: int) -> ObjectNode:
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

    extent = _parse_vec3(obj["bbox_extent"], index, "bbox_extent")
    for c in extent:
        if c < 0:
            raise SceneError(f"negative extent component {c}", index, "bbox_extent")
    center = _parse_vec3(obj["bbox_center"], index, "bbox_center")

    tag = obj["object_tag"]
    if not isinstance(tag, str) or not tag:
        raise SceneError("object_tag must be a non-empty string", index, "object_tag")

    texts = {}
    for key in OPTIONAL_TEXT_KEYS:
        value = obj.get(key, "")
        if not isinstance(value, str):
            raise SceneError(f"{key} must be a string", index, key)
        texts[key] = value

    extra = tuple((k, v) for k, v in obj.items() if k not in NODE_KEYS)
    return ObjectNode(
        id=node_id,
        bbox_extent=extent,
        bbox_center=center,
        object_tag=tag,
        caption=texts["caption"],
        color=texts["color"],
        material=texts["material"],
        extra=extra,
    )


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


def _round(value: float) -> float:
    # One decimal; adding 0.0 keeps -0.0 out of the output.
    return round(value, 1) + 0.0


def _encode_fields(node: ObjectNode) -> tuple[str, ...]:
    """The node's items, each encoded once as json.dumps writes it inside
    the node's object: '"key": value' for each of NODE_KEYS in order, then
    for each of its extras in order."""
    core = (
        '"id": ' + str(node.id),
        '"bbox_extent": ' + _encode_vec3(node.bbox_extent),
        '"bbox_center": ' + _encode_vec3(node.bbox_center),
        '"object_tag": ' + encode_basestring_ascii(node.object_tag),
        '"caption": ' + encode_basestring_ascii(node.caption),
        '"color": ' + encode_basestring_ascii(node.color),
        '"material": ' + encode_basestring_ascii(node.material),
    )
    # json.dumps of a one-item dict is "{" + that item + "}".
    return core + tuple(json.dumps({key: value})[1:-1] for key, value in node.extra)


def _encode_vec3(v: Vec3) -> str:
    """json.dumps of the rounded components: json writes a finite float as
    float.__repr__ does."""
    return "[" + ", ".join(map(float.__repr__, map(_round, v))) + "]"


def _node_json(fields: tuple[str, ...], omit: frozenset[str]) -> str:
    # An extra pairs with key None, so it is never omitted.
    return "{" + ", ".join([item for key, item in zip_longest(NODE_KEYS, fields) if key not in omit]) + "}"


def encoded_nodes(scene: SceneGraph, omit: Iterable[str] = frozenset()) -> tuple[str, ...]:
    """Each node's JSON object without the fields named in `omit`, in node
    order: the items of serialize_scene's array. Each node is encoded once
    per scene, and each omit set is joined once per scene."""
    omit = frozenset(omit)
    cache = scene._json_by_omit
    out = cache.get(omit)
    if out is None:
        fields = cache.get(None)
        if fields is None:
            fields = cache[None] = tuple(_encode_fields(n) for n in scene.nodes)
        out = cache[omit] = tuple(_node_json(f, omit) for f in fields)
    return out


def serialize_scene(scene: SceneGraph, omit: Iterable[str] = frozenset()) -> str:
    """The canonical JSON array without the fields named in `omit`: the bytes
    json.dumps writes for the node objects, box numbers at one decimal."""
    return "[" + ", ".join(encoded_nodes(scene, omit)) + "]"


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
