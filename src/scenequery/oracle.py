"""Deterministic spatial/geometric reasoner over axis-aligned boxes.

Answers the decidable query categories (size comparison, containment,
on-top-of, relative position) directly from box geometry, and doubles as
the ground-truth verifier for LLM answers. Affordance and negation
queries need world knowledge and are declared out of the oracle's reach.

`answer_query_deterministic` is the one place that decides a structured
query and words the answer: the STEP4 sentence, the final object and the
explanation that `llm.oracle_backed_mock` lays out as a five-step reply.
Objects are referred to as `tag (id: N)` (`object_ref`), the form
`interpret_query` reads back; it folds the query once, and an ASCII query
folds to its lowered text. A decidable query that names an id the scene
lacks, or fewer than two objects, is answered as unsupported, with that
reason. The value records (`StructuredQuery`, `OracleAnswer`,
`SizeComparison`, `RelativePosition`) are NamedTuples; the validated
`OracleConfig` stays a frozen dataclass.
"""

from __future__ import annotations

import math
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .parsing import fold_case
from .scene_model import MAX_COORDINATE, ObjectNode, SceneGraph, Vec3


class SpatialRelation(str, Enum):
    ON_TOP_OF = "OnTopOf"
    NEAR = "Near"


class SizeOrdering(str, Enum):
    BIGGER = "Bigger"
    SMALLER = "Smaller"
    SIMILAR = "Similar"


class QueryCategory(str, Enum):
    AFFORDANCE = "Affordance"
    NEGATION = "Negation"
    SIZE_COMPARE = "SizeCompare"
    CONTAINMENT = "Containment"
    ON_TOP_OF = "OnTopOf"
    RELATIVE_POSITION = "RelativePosition"
    FREEFORM = "Freeform"


# Categories the geometry oracle can decide on its own.
DECIDABLE_CATEGORIES = frozenset(
    {
        QueryCategory.SIZE_COMPARE,
        QueryCategory.CONTAINMENT,
        QueryCategory.ON_TOP_OF,
        QueryCategory.RELATIVE_POSITION,
    }
)


def require_finite(obj, names: tuple[str, ...]) -> None:
    """Raise ValueError unless each named field of a config is an int or
    float within the float range. json reads NaN and Infinity, and a bool
    is an int to Python; neither is a threshold, a timeout or a count."""
    for name in names:
        value = getattr(obj, name)
        # `not <=`: NaN compares false.
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class OracleConfig:
    near_threshold: float = 1.0
    vertical_gap_tolerance: float = 0.15
    similar_volume_ratio: float = 1.1

    def __post_init__(self):
        names = ("near_threshold", "vertical_gap_tolerance", "similar_volume_ratio")
        require_finite(self, names)
        for name in names:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        # Bounded like scene numbers, so derive_edges' sweep bounds stay finite.
        if self.near_threshold > MAX_COORDINATE:
            raise ValueError(f"near_threshold must be at most {MAX_COORDINATE:g}")
        # Below 1, equal volumes are Smaller both ways round.
        if self.similar_volume_ratio < 1:
            raise ValueError("similar_volume_ratio must be >= 1")


class SizeComparison(NamedTuple):
    ordering: SizeOrdering
    volume_ratio: float  # volume(a) / volume(b); 1.0 for the degenerate fallback


class RelativePosition(NamedTuple):
    delta: Vec3  # center(a) - center(b)
    directions: tuple[str, ...]  # one phrase per axis on which a and b differ
    near: bool
    distance: float


class StructuredQuery(NamedTuple):
    category: QueryCategory
    subject_id: Optional[int] = None
    object_id: Optional[int] = None
    text: str = ""


class OracleAnswer(NamedTuple):
    """A decided query (`supported`) carries the STEP4 sentence and the
    final object; an unsupported one only says why in `sentence` and
    `explanation`."""

    supported: bool
    sentence: str
    explanation: str
    object_id: Optional[int] = None
    object_tag: str = ""


# derive_edges snaps a raw value before comparing it only within this
# distance of its bound; farther out, snapping cannot change the result.
# round(x, 9) is the double nearest the decimal rounding of x. That
# decimal is within 5e-10 of x, and as x is a double, the nearest double
# to it is no farther: round(x, 9) lies within 1e-9 of x. Subtraction
# rounds monotonically and the margin is a double, so a computed
# difference `x - bound` at or beyond ±SNAP_MARGIN means x is at least
# SNAP_MARGIN - 1e-20 from the bound: more than snapping can move it.
SNAP_MARGIN = 1e-8


def _snap(value: float) -> float:
    # Quantize derived quantities before threshold comparisons so that
    # float noise from a common translation cannot flip a predicate at
    # an exact boundary (e.g. gap == tolerance).
    return round(value, 9)


def _distance(a: Vec3, b: Vec3) -> float:
    """Snapped distance between two centres. Exactly symmetric: negation
    is exact and the squares are summed in the same order either way."""
    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return _snap(math.sqrt(dx**2 + dy**2 + dz**2))


# A flat box: (min x, max x, min y, max y, min z, max z, centre z).
Box = tuple[float, float, float, float, float, float, float]


def _box(node: ObjectNode) -> Box:
    """The node's box as plain floats: each face is centre ± half extent."""
    (cx, cy, cz), (ex, ey, ez) = node.bbox_center, node.bbox_extent
    hx, hy, hz = ex * 0.5, ey * 0.5, ez * 0.5
    return (cx - hx, cx + hx, cy - hy, cy + hy, cz - hz, cz + hz, cz)


def _footprints_overlap(a: Box, b: Box) -> bool:
    """True if the xy footprints touch or overlap after snapping.
    Symmetric: swapping a and b tests the same four differences."""
    for d in (b[1] - a[0], a[1] - b[0], b[3] - a[2], a[3] - b[2]):
        # A difference >= 0 passes without snapping, as its snap is >= 0 too.
        if not (d >= 0 or _snap(d) >= 0):
            return False
    return True


def _rise(a: Box, b: Box) -> float:
    """Snapped z-centre difference, > 0 when a is higher. Swapping a and
    b flips its sign exactly: subtraction, negation and rounding to
    nearest commute with a sign change."""
    return _snap(a[6] - b[6])


def _rests_on(a: Box, b: Box, tolerance: float) -> bool:
    """True if a's bottom face is within the tolerance of b's top face."""
    return _snap(abs(a[4] - b[5])) <= tolerance


def _box_on_top_of(a: Box, b: Box, tolerance: float) -> bool:
    """`on_top_of` on the two nodes' boxes."""
    return _footprints_overlap(a, b) and _rise(a, b) > 0 and _rests_on(a, b, tolerance)


# Per axis (x, y, z): the phrase for a positive and for a negative delta.
_AXIS_PHRASES = (
    ("in the positive x direction from", "in the negative x direction from"),
    ("in the positive y direction from", "in the negative y direction from"),
    ("above", "below"),
)


def relative_position(a: ObjectNode, b: ObjectNode, cfg: OracleConfig = OracleConfig()) -> RelativePosition:
    """Center deltas, plus a's direction from b on each axis they differ on."""
    delta = a.bbox_center - b.bbox_center
    directions = tuple(
        positive if d > 0 else negative for d, (positive, negative) in zip(map(_snap, delta), _AXIS_PHRASES) if d
    )
    distance = _distance(a.bbox_center, b.bbox_center)
    return RelativePosition(
        delta=delta,
        directions=directions,
        near=distance <= cfg.near_threshold,
        distance=distance,
    )


def on_top_of(a: ObjectNode, b: ObjectNode, cfg: OracleConfig = OracleConfig()) -> bool:
    """True if a rests on b: overlapping xy footprints, a's center higher,
    and a's bottom face within the gap tolerance of b's top face."""
    if a.id == b.id:
        raise ValueError(f"on_top_of requires distinct nodes, got id {a.id} twice")
    return _box_on_top_of(_box(a), _box(b), cfg.vertical_gap_tolerance)


def size_compare(a: ObjectNode, b: ObjectNode, cfg: OracleConfig = OracleConfig()) -> SizeComparison:
    """Compare box volumes; zero-volume boxes fall back to sorted extents."""
    vol_a, vol_b = a.volume(), b.volume()
    if vol_a > 0 and vol_b > 0:
        ratio = vol_a / vol_b
        # max/min, not max(ratio, 1/ratio): the two roundings of the latter
        # can put a pair inside the band one way round and outside the other.
        if max(vol_a, vol_b) / min(vol_a, vol_b) <= cfg.similar_volume_ratio:
            return SizeComparison(SizeOrdering.SIMILAR, ratio)
        ordering = SizeOrdering.BIGGER if ratio > 1 else SizeOrdering.SMALLER
        return SizeComparison(ordering, ratio)
    # Degenerate box: compare extents largest-first, lexicographically.
    ranked_a = tuple(sorted(a.bbox_extent, reverse=True))
    ranked_b = tuple(sorted(b.bbox_extent, reverse=True))
    if ranked_a == ranked_b:
        return SizeComparison(SizeOrdering.SIMILAR, 1.0)
    ordering = SizeOrdering.BIGGER if ranked_a > ranked_b else SizeOrdering.SMALLER
    return SizeComparison(ordering, 1.0)


def can_contain(outer: ObjectNode, inner: ObjectNode) -> bool:
    """True if inner fits in outer allowing axis-permutation rotations only:
    sorted extents of inner strictly dominated by sorted extents of outer."""
    sorted_outer = sorted(outer.bbox_extent)
    sorted_inner = sorted(inner.bbox_extent)
    return all(i < o for i, o in zip(sorted_inner, sorted_outer))


def near(a: ObjectNode, b: ObjectNode, cfg: OracleConfig = OracleConfig()) -> bool:
    return _distance(a.bbox_center, b.bbox_center) <= cfg.near_threshold


def derive_edges(scene: SceneGraph, cfg: OracleConfig = OracleConfig()) -> list[tuple[int, SpatialRelation, int]]:
    """OnTopOf/Near edges over every ordered node pair.

    One sweep finds the candidate pairs: each box gets an interval on x
    and on y that covers its footprint and its centre ± half the near
    threshold, and a pair is a candidate when both of its intervals
    overlap. A pair whose centres are within the threshold, or whose
    footprints touch, is always a candidate. Each candidate pair is
    tested once, with the tests `near` and `on_top_of` make written out
    on the boxes' numbers, so the result equals testing every ordered
    pair with them. Like them, it snaps a distance, gap, rise or face
    difference to 9 decimals before comparing it, but only when the
    value lies within `SNAP_MARGIN` of its bound (the threshold, the
    tolerance or 0); any other value decides its test unsnapped.

    Output is sorted by (subject id, relation name, object id) so the
    edge list is stable for a given scene.
    """
    if len(scene.nodes) < 2:
        return []
    threshold, tolerance = cfg.near_threshold, cfg.vertical_gap_tolerance
    half = threshold * 0.5
    # Per box: centre x and y, and the interval's half width on each axis.
    # Rounding is monotone, so `cx - max(hx, half)` is the lower of the
    # footprint's face `cx - hx` and `cx - half`: the union of the spans.
    halves = [
        (n.bbox_center[0], n.bbox_center[1], max(n.bbox_extent[0] * 0.5, half), max(n.bbox_extent[1] * 0.5, half))
        for n in scene.nodes
    ]
    reach = max(max(abs(cx) + rx, abs(cy) + ry) for cx, cy, rx, ry in halves)
    # The tests accept a difference up to half a snapping step (5e-10)
    # past a face or past the threshold, and rounding in an interval
    # bound or in a tested difference errs by far less than
    # reach * 2**-40. Widened by `margin` on each side, the intervals
    # of a pair either test could pass overlap, so plain comparisons
    # decide the candidates.
    margin = 1e-9 + reach * 2**-40
    intervals = [(cx - rx - margin, cx + rx + margin, cy - ry - margin, cy + ry + margin) for cx, cy, rx, ry in halves]
    # The mean y interval, at least 2 * margin wide: a box meets about
    # three bands.
    width = sum(hi - lo for _, _, lo, hi in intervals) / len(intervals)
    bands = [(math.floor(lo / width), math.floor(hi / width)) for _, _, lo, hi in intervals]
    # A span: the x and y interval, the first and last y band, the box's
    # six faces (as `_box` gives them), its centre and its id.
    spans = sorted(
        (
            (*interval, *band, *_box(n)[:6], *n.bbox_center, n.id)
            for n, interval, band in zip(scene.nodes, intervals, bands)
        ),
        key=lambda span: span[0],
    )
    # Sweep in order of interval start on x. An active box leaves a band
    # once its interval ends before the current start: later starts are
    # no smaller, so it overlaps no later box either. Active boxes sit
    # in every y band their interval meets. Flooring `y / width` is
    # monotone in y, so two overlapping intervals share the bands from
    # the later of their first bands on, and the pair is tested in that
    # band only.
    sqrt, low, high = math.sqrt, -SNAP_MARGIN, SNAP_MARGIN
    on_top_of_rel, near_rel = SpatialRelation.ON_TOP_OF, SpatialRelation.NEAR
    active_in: dict[int, list] = defaultdict(list)
    edges = []
    append = edges.append
    for span in spans:
        lo_x, _, lo_y, hi_y, first, last, x0, x1, y0, y1, z0, z1, cx, cy, cz, a_id = span
        for band in range(first, last + 1):
            active = [s for s in active_in[band] if s[1] >= lo_x]
            for _, _, b_lo_y, b_hi_y, b_first, _, u0, u1, v0, v1, w0, w1, bx, by, bz, b_id in active:
                if not (b_hi_y >= lo_y and hi_y >= b_lo_y and (band == first or band == b_first)):
                    continue
                # The tests of `_footprints_overlap`, `_rise`, `_rests_on`
                # and `_distance` on the same floats. The footprints
                # overlap when all four face differences are >= 0 (for
                # finite floats, `u1 >= x0` is `u1 - x0 >= 0`). When
                # none is below -SNAP_MARGIN, they also overlap if the
                # least of them (snapping is monotone) snaps to 0.
                dz = cz - bz
                if (
                    u1 >= x0
                    and x1 >= u0
                    and v1 >= y0
                    and y1 >= v0
                    or u1 - x0 >= low
                    and x1 - u0 >= low
                    and v1 - y0 >= low
                    and y1 - v0 >= low
                    and round(min(u1 - x0, x1 - u0, v1 - y0, y1 - v0), 9) >= 0
                ):
                    rise = round(dz, 9) if low <= dz <= high else dz
                    if rise > 0:
                        # a's bottom against b's top: abs() written out.
                        gap = z0 - w1 if z0 >= w1 else w1 - z0
                        off = gap - tolerance
                        if off <= low or off <= high and round(gap, 9) <= tolerance:
                            append((a_id, on_top_of_rel, b_id))
                    elif rise < 0:
                        gap = w0 - z1 if w0 >= z1 else z1 - w0
                        off = gap - tolerance
                        if off <= low or off <= high and round(gap, 9) <= tolerance:
                            append((b_id, on_top_of_rel, a_id))
                # `_distance`'s expression: `dx * dx` is not always
                # `dx ** 2` under the C library's pow. The distance is
                # symmetric, so one test gives both edges.
                dx, dy = cx - bx, cy - by
                distance = sqrt(dx**2 + dy**2 + dz**2)
                off = distance - threshold
                if off <= low or off <= high and round(distance, 9) <= threshold:
                    append((a_id, near_rel, b_id))
                    append((b_id, near_rel, a_id))
            active.append(span)
            active_in[band] = active
    # SpatialRelation members compare as their str values.
    edges.sort()
    return edges


def _fmt_vec(v: Vec3) -> str:
    """The vector as "[x, y, z]", each number in %g form."""
    return "[%g, %g, %g]" % v


def _unsupported(reason: str) -> OracleAnswer:
    return OracleAnswer(False, f"The question cannot be answered from box geometry alone; {reason}.", reason)


def answer_query_deterministic(
    scene: SceneGraph, q: StructuredQuery, cfg: OracleConfig = OracleConfig()
) -> OracleAnswer:
    """Decide a structured query and word the answer.

    Affordance/negation/freeform queries, queries naming an id that is
    not in the scene and queries naming fewer than two objects come back
    with supported=False rather than an error; the caller decides whether
    to fall back to an LLM for those. An absent id is the reason given
    when a query has both faults.
    """
    if q.category not in DECIDABLE_CATEGORIES:
        return _unsupported("requires world knowledge beyond box geometry")
    subject_id, object_id = q.subject_id, q.object_id
    if not (scene.has_node(subject_id) and scene.has_node(object_id)):
        named = [i for i in (subject_id, object_id) if i is not None]
        if all(map(scene.has_node, named)):
            return _unsupported("the query names fewer than two objects of the scene")
        return _unsupported("query references objects not in the scene")

    a, b = scene.node(subject_id), scene.node(object_id)
    ref_a, ref_b = object_ref(a), object_ref(b)
    final = a
    if q.category is QueryCategory.ON_TOP_OF:
        box_a, box_b = _box(a), _box(b)
        # A node never rests on itself.
        yes = a.id != b.id and _box_on_top_of(box_a, box_b, cfg.vertical_gap_tolerance)
        sentence = f"{'Yes' if yes else 'No'}, the {ref_a} {'is' if yes else 'is not'} on top of the {ref_b}."
        gap = abs(box_a[4] - box_b[5])
        explanation = (
            f"{ref_a} center {_fmt_vec(a.bbox_center)} vs {ref_b} center {_fmt_vec(b.bbox_center)}; "
            f"vertical gap {gap:.3g}"
        )
    elif q.category is QueryCategory.SIZE_COMPARE:
        cmp = size_compare(a, b, cfg)
        if cmp.ordering is SizeOrdering.SIMILAR:
            sentence = f"The {ref_a} and the {ref_b} are similar in size."
        else:
            final = a if cmp.ordering is SizeOrdering.BIGGER else b
            sentence = f"The {object_ref(final)} is bigger."
        explanation = (
            f"extent of {ref_a} is {_fmt_vec(a.bbox_extent)} and of {ref_b} is {_fmt_vec(b.bbox_extent)}; "
            f"volume ratio {cmp.volume_ratio:.3g} -> {cmp.ordering.value}"
        )
    elif q.category is QueryCategory.CONTAINMENT:
        yes = can_contain(a, b)
        sentence = f"{'Yes' if yes else 'No'}, the {ref_a} {'can' if yes else 'cannot'} contain the {ref_b}."
        explanation = (
            f"sorted extents: {a.object_tag} {sorted(a.bbox_extent)} vs {b.object_tag} {sorted(b.bbox_extent)}; "
            f"strict dominance is {'satisfied' if yes else 'violated'}"
        )
    else:  # RelativePosition: the sentence carries the explanation's direction words.
        rel = relative_position(a, b, cfg)
        explanation = (
            f"{ref_a} is {describe_relations(rel)} {ref_b}; "
            f"center delta {_fmt_vec(rel.delta)}, distance {rel.distance:.3g}"
        )
        sentence = f"The {ref_a} is positioned as follows: {explanation}"
    return OracleAnswer(True, sentence, explanation, final.id, final.object_tag)


def describe_relations(rel: RelativePosition) -> str:
    phrase = " and ".join(rel.directions) or "at the same position as"
    if rel.near:
        phrase += " and near"
    return phrase


def object_ref(node: ObjectNode) -> str:
    """`tag (id: N)`: how queries, answers and explanations name a node,
    and what `_ID_PATTERN` reads back."""
    return f"{node.object_tag} (id: {node.id})"


# Read from the folded query (`fold_case`), which lets it match
# case-sensitively what it would match in the query under re.IGNORECASE.
_ID_PATTERN = re.compile(r"id\s*[:=]?\s*(\d+)")


def _id_value(digits: str) -> int:
    """The id that `_ID_PATTERN`'s digits name. Digits past the int/str
    conversion limit name no node, since parse_scene rejects JSON with such
    a number: they read as -1, an id no node has."""
    try:
        return int(digits)
    except ValueError:
        return -1


def interpret_query(scene: SceneGraph, text: str) -> StructuredQuery:
    """Best-effort mapping of a natural-language query onto a structured one.

    Object references are resolved first from explicit "(id: N)" markers,
    then by matching object tags as substrings (longest tag first).
    Category comes from keyword cues; anything unrecognized is Freeform.
    """
    lowered = text.lower()
    # An ASCII text folds to its lowered form.
    ids = [_id_value(m) for m in _ID_PATTERN.findall(lowered if text.isascii() else fold_case(text))]
    if len(ids) < 2:
        mentioned = []
        for node in sorted(scene.nodes, key=lambda n: -len(n.object_tag)):
            if node.object_tag.lower() in lowered and node.id not in ids + mentioned:
                mentioned.append(node.id)
        # Preserve mention order in the query text, not tag-length order.
        mentioned.sort(key=lambda i: lowered.find(scene.node(i).object_tag.lower()))
        ids.extend(m for m in mentioned if m not in ids)

    subject = ids[0] if ids else None
    obj = ids[1] if len(ids) > 1 else None

    if "on top of" in lowered or "on the" in lowered and "top" in lowered:
        category = QueryCategory.ON_TOP_OF
    elif "bigger" in lowered or "larger" in lowered or "smaller" in lowered or "size" in lowered:
        category = QueryCategory.SIZE_COMPARE
    elif "contain" in lowered or "fit inside" in lowered or "fit in" in lowered:
        category = QueryCategory.CONTAINMENT
    elif "relative position" in lowered or "with respect to" in lowered or "w.r.t" in lowered or "where is" in lowered and obj is not None:
        category = QueryCategory.RELATIVE_POSITION
    elif "not " in lowered:
        category = QueryCategory.NEGATION
    elif "used to" in lowered or "used for" in lowered or "can be used" in lowered:
        category = QueryCategory.AFFORDANCE
    else:
        category = QueryCategory.FREEFORM

    return StructuredQuery(category=category, subject_id=subject, object_id=obj, text=text)
