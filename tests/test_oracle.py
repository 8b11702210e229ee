import itertools
import json
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from scenequery.oracle import (
    DECIDABLE_CATEGORIES,
    SNAP_MARGIN,
    OracleConfig,
    QueryCategory,
    SizeOrdering,
    SpatialRelation,
    StructuredQuery,
    _fmt_vec,
    _footprints_overlap,
    _id_value,
    answer_query_deterministic,
    can_contain,
    derive_edges,
    describe_relations,
    interpret_query,
    near,
    on_top_of,
    relative_position,
    size_compare,
)
from scenequery.scene_model import MAX_COORDINATE, ObjectNode, SceneError, SceneGraph, Vec3, parse_scene


def box(node_id, extent, center, tag="obj"):
    return ObjectNode(node_id, Vec3(*extent), Vec3(*center), tag)


class TestRelativePosition:
    def test_pillow_vs_couch(self, pillow, couch):
        rel = relative_position(pillow, couch)
        assert rel.delta == pytest.approx((0.1, 0.2, 0.4))
        assert "above" in rel.directions
        assert rel.near

    def test_self(self, couch):
        rel = relative_position(couch, couch)
        assert rel.delta == Vec3(0, 0, 0)
        assert rel.directions == ()

    def test_far_above(self):
        a = box(1, (1, 1, 1), (0, 0, 5))
        b = box(2, (1, 1, 1), (0, 0, 0))
        rel = relative_position(a, b)
        assert "above" in rel.directions
        assert not rel.near
        assert rel.distance == pytest.approx(5.0)


# Each axis's phrase for a positive and a negative snapped delta, in the
# order describe_relations joins them.
AXIS_PHRASES = (
    ("in the positive x direction from", "in the negative x direction from"),
    ("in the positive y direction from", "in the negative y direction from"),
    ("above", "below"),
)


@pytest.mark.parametrize("step", [0.3, 2.0], ids=["near", "far"])
@pytest.mark.parametrize(
    "signs",
    list(itertools.product((1, 0, -1), repeat=3)),
    ids=lambda signs: "".join("+0-"[1 - s] for s in signs),
)
def test_every_direction_phrase(signs, step):
    b = box(2, (1, 1, 1), (1.5, -2.5, 0.7))
    a = box(1, (1, 1, 1), tuple(c + s * step for c, s in zip(b.bbox_center, signs)))
    words = [pos if s > 0 else neg for s, (pos, neg) in zip(signs, AXIS_PHRASES) if s]
    phrase = " and ".join(words) if words else "at the same position as"
    # Centres 0.3 apart per axis are at most 0.52 apart, and 2.0 apart per
    # axis at least 2.0; equal centres are near at either step.
    near = step < 1 or not words
    assert describe_relations(relative_position(a, b)) == phrase + (" and near" if near else "")


class TestOnTopOf:
    def test_pillow_on_couch(self, pillow, couch):
        assert on_top_of(pillow, couch) is True

    def test_couch_not_on_pillow(self, pillow, couch):
        assert on_top_of(couch, pillow) is False

    def test_disjoint_footprints(self):
        a = box(1, (1, 1, 1), (0, 0, 0))
        b = box(2, (1, 1, 1), (10, 0, 0))
        assert on_top_of(a, b) is False

    def test_same_id_rejected(self, couch):
        with pytest.raises(ValueError, match="distinct"):
            on_top_of(couch, couch)

    def test_gap_exceeds_tolerance(self):
        lower = box(1, (1, 1, 1), (0, 0, 0))
        upper = box(2, (1, 1, 1), (0, 0, 1.5))  # bottom at 1.0, top of lower at 0.5
        assert on_top_of(upper, lower) is False
        assert on_top_of(upper, lower, OracleConfig(vertical_gap_tolerance=0.6)) is True


class TestSizeCompare:
    def test_couch_bigger_than_pillow(self, couch, pillow):
        cmp = size_compare(couch, pillow)
        assert cmp.ordering is SizeOrdering.BIGGER
        assert cmp.volume_ratio == pytest.approx(0.54 / 0.126)

    def test_equal_extents_similar(self, couch):
        other = ObjectNode(1, couch.bbox_extent, Vec3(0, 0, 0), "twin")
        cmp = size_compare(couch, other)
        assert cmp.ordering is SizeOrdering.SIMILAR
        assert cmp.volume_ratio == pytest.approx(1.0)

    def test_zero_volume_fallback(self):
        a = box(1, (2, 1, 0), (0, 0, 0))
        b = box(2, (1, 1, 0), (0, 0, 0))
        assert size_compare(a, b).ordering is SizeOrdering.BIGGER
        assert size_compare(b, a).ordering is SizeOrdering.SMALLER

    def test_similar_band(self):
        a = box(1, (1, 1, 1.05), (0, 0, 0))
        b = box(2, (1, 1, 1), (0, 0, 0))
        assert size_compare(a, b).ordering is SizeOrdering.SIMILAR


class TestCanContain:
    def test_couch_contains_pillow(self, couch, pillow):
        assert can_contain(couch, pillow) is True
        assert can_contain(pillow, couch) is False

    def test_irreflexive(self, couch):
        assert can_contain(couch, couch) is False

    def test_long_thin_object(self):
        outer = box(1, (1, 1, 1), (0, 0, 0))
        inner = box(2, (2, 0.1, 0.1), (0, 0, 0))
        assert can_contain(outer, inner) is False

    def test_axis_permutation_allowed(self):
        outer = box(1, (1, 2, 3), (0, 0, 0))
        inner = box(2, (2.5, 0.5, 1.5), (9, 9, 9))
        assert can_contain(outer, inner) is True


class TestNear:
    def test_couch_pillow(self, couch, pillow):
        assert near(couch, pillow) is True

    def test_coincident(self):
        a = box(1, (1, 1, 1), (0, 0, 0))
        b = box(2, (2, 2, 2), (0, 0, 0))
        assert near(a, b) is True

    def test_far(self):
        a = box(1, (1, 1, 1), (0, 0, 0))
        b = box(2, (1, 1, 1), (10, 0, 0))
        assert near(a, b) is False


class TestDeriveEdges:
    def test_couch_pillow_scene(self, couch_pillow_scene):
        edges = derive_edges(couch_pillow_scene)
        assert (27, SpatialRelation.ON_TOP_OF, 28) in edges
        assert (27, SpatialRelation.NEAR, 28) in edges
        assert (28, SpatialRelation.NEAR, 27) in edges

    def test_single_node(self):
        scene = SceneGraph(nodes=(box(0, (1, 1, 1), (0, 0, 0)),))
        assert derive_edges(scene) == []

    def test_matches_brute_force(self):
        scene = random_scene(random.Random(42), 20)
        cfg = OracleConfig()
        assert derive_edges(scene, cfg) == brute_force_edges(scene, cfg)


class TestAnswerQuery:
    def test_on_top_of_query(self, couch_pillow_scene):
        ans = answer_query_deterministic(
            couch_pillow_scene, StructuredQuery(QueryCategory.ON_TOP_OF, 27, 28)
        )
        assert ans.supported
        assert ans.sentence == "Yes, the pillow (id: 27) is on top of the white couch (id: 28)."
        assert "vertical gap 0.05" in ans.explanation
        assert "pillow (id: 27) center [2.9, 2.5, -0.8]" in ans.explanation

    def test_size_query(self, couch_pillow_scene):
        ans = answer_query_deterministic(
            couch_pillow_scene, StructuredQuery(QueryCategory.SIZE_COMPARE, 28, 27)
        )
        assert ans.sentence == "The white couch (id: 28) is bigger."
        assert ans.object_id == 28

    def test_affordance_unsupported(self, couch_pillow_scene):
        ans = answer_query_deterministic(
            couch_pillow_scene, StructuredQuery(QueryCategory.AFFORDANCE, text="hold flowers")
        )
        assert not ans.supported

    def test_unknown_id(self, couch_pillow_scene):
        ans = answer_query_deterministic(
            couch_pillow_scene, StructuredQuery(QueryCategory.ON_TOP_OF, 99, 28)
        )
        assert not ans.supported
        assert ans.explanation == "query references objects not in the scene"
        assert ans.object_id is None

    @pytest.mark.parametrize("category", sorted(DECIDABLE_CATEGORIES))
    @pytest.mark.parametrize("subject, obj", [(28, None), (None, 27), (None, None)])
    def test_fewer_than_two_objects(self, couch_pillow_scene, category, subject, obj):
        ans = answer_query_deterministic(couch_pillow_scene, StructuredQuery(category, subject, obj))
        assert not ans.supported
        assert ans.explanation == "the query names fewer than two objects of the scene"
        assert ans.sentence == (
            "The question cannot be answered from box geometry alone; "
            "the query names fewer than two objects of the scene."
        )
        assert ans.object_id is None

    @pytest.mark.parametrize("subject, obj", [(99, None), (None, 99), (99, 98)])
    def test_absent_id_outranks_a_missing_object(self, couch_pillow_scene, subject, obj):
        ans = answer_query_deterministic(couch_pillow_scene, StructuredQuery(QueryCategory.ON_TOP_OF, subject, obj))
        assert ans.explanation == "query references objects not in the scene"

    def test_query_naming_one_object(self, couch_pillow_scene):
        q = interpret_query(couch_pillow_scene, "What is on top of the white couch?")
        assert (q.category, q.subject_id, q.object_id) == (QueryCategory.ON_TOP_OF, 28, None)
        ans = answer_query_deterministic(couch_pillow_scene, q)
        assert ans.explanation == "the query names fewer than two objects of the scene"

    @pytest.mark.parametrize("category", sorted(DECIDABLE_CATEGORIES))
    def test_same_node_twice(self, couch_pillow_scene, category):
        ans = answer_query_deterministic(couch_pillow_scene, StructuredQuery(category, 27, 27))
        assert ans.supported and ans.object_id == 27
        if category in (QueryCategory.ON_TOP_OF, QueryCategory.CONTAINMENT):
            assert ans.sentence.startswith("No, the pillow (id: 27)")


class TestInterpretQuery:
    def test_on_top_of(self, couch_pillow_scene):
        q = interpret_query(couch_pillow_scene, "Is the pillow on top of the white couch?")
        assert q.category is QueryCategory.ON_TOP_OF
        assert (q.subject_id, q.object_id) == (27, 28)

    def test_explicit_ids_win(self, couch_pillow_scene):
        q = interpret_query(couch_pillow_scene, "Which is bigger, (id: 28) or (id: 27)?")
        assert q.category is QueryCategory.SIZE_COMPARE
        assert (q.subject_id, q.object_id) == (28, 27)

    def test_freeform(self, couch_pillow_scene):
        q = interpret_query(couch_pillow_scene, "describe the room")
        assert q.category is QueryCategory.FREEFORM

    def test_overlong_id_reads_as_an_absent_id(self, couch_pillow_scene):
        # More digits than int() converts, so no parsed scene has this id:
        # the query is read as one naming an id not in the scene.
        query = "Is the pillow (id: {}) on top of the white couch?"
        absent = interpret_query(couch_pillow_scene, query.format(99))
        overlong = interpret_query(couch_pillow_scene, query.format("9" * 5000))
        assert overlong.category is absent.category is QueryCategory.ON_TOP_OF
        assert not couch_pillow_scene.has_node(overlong.subject_id)
        assert overlong.object_id == absent.object_id == 27
        answers = [answer_query_deterministic(couch_pillow_scene, q) for q in (overlong, absent)]
        assert answers[0] == answers[1] and not answers[0].supported


# How ids were read before the query text was folded: under re.IGNORECASE.
_REFERENCE_ID_PATTERN = re.compile(r"\(?\s*id\s*[:=]?\s*(\d+)\s*\)?", re.IGNORECASE)
NO_NODES = SceneGraph(nodes=())

id_query = st.lists(
    st.one_of(
        st.sampled_from(
            ["id", "ID", "iD", "ıd", "İD", "(", ")", ":", "=", " ", "\xa0", "\x1c", "\u2028", "\u212a", "ſ", "7", "42",
             "\u0663", "9" * 4301, "(id: 27)", "( ID = 28 )", "on top of"]
        ),
        st.text(max_size=6),
    ),
    max_size=20,
).map("".join)


@given(id_query)
@example("is the (ıd: 5) on the (İD=6)?")
@example("(id: " + "9" * 4301 + ") or id 3")
def test_query_ids_match_the_reference_pattern(text):
    """On a scene with no tags to match, the subject and object are the
    first two ids the reference pattern reads from the query."""
    ids = [_id_value(d) for d in _REFERENCE_ID_PATTERN.findall(text)] + [None, None]
    q = interpret_query(NO_NODES, text)
    assert (q.subject_id, q.object_id) == (ids[0], ids[1])


# --- properties -----------------------------------------------------------

vector_component = st.one_of(
    st.floats(-1e9, 1e9),
    # %g writes an exponent below 1e-4 (so at 1e-5) and from 1e6 once
    # rounded to six digits; 1e16 is where float repr starts one.
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e-5, 9.99995e-5, 0.0001, 0.000099999, 999999.5, 1e6, 1e16]),
    st.integers(-30, 30).map(lambda e: float(f"1e{e}")),
)


@given(st.tuples(vector_component, vector_component, vector_component))
@example((-0.0, 5e-324, 1e16))
@example((1e-5, 9.999995e-5, 123456789.0))
def test_fmt_vec_matches_per_component_format(v):
    assert _fmt_vec(Vec3(*v)) == "[" + ", ".join(f"{c:g}" for c in v) + "]"


grid_coord = st.integers(min_value=-50, max_value=50).map(lambda n: n / 10)
grid_extent = st.integers(min_value=0, max_value=30).map(lambda n: n / 10)


def nodes_pair():
    def make(i, ext, ctr):
        return ObjectNode(i, Vec3(*ext), Vec3(*ctr), f"obj{i}")

    triple = lambda s: st.tuples(s, s, s)
    return st.tuples(
        st.builds(make, st.just(1), triple(grid_extent), triple(grid_coord)),
        st.builds(make, st.just(2), triple(grid_extent), triple(grid_coord)),
    )


@given(nodes_pair())
def test_on_top_of_antisymmetric(pair):
    a, b = pair
    assert not (on_top_of(a, b) and on_top_of(b, a))


MIRRORED = {
    SizeOrdering.BIGGER: SizeOrdering.SMALLER,
    SizeOrdering.SMALLER: SizeOrdering.BIGGER,
    SizeOrdering.SIMILAR: SizeOrdering.SIMILAR,
}
# Extents parse_scene accepts, from the subnormal to the bound.
parsed_extent = st.one_of(
    st.floats(0, MAX_COORDINATE),
    st.integers(0, int(MAX_COORDINATE)),
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, MAX_COORDINATE]),
)


@st.composite
def parsed_pair(draw):
    extents = [draw(st.lists(parsed_extent, min_size=3, max_size=3)) for _ in range(2)]
    rows = [{"id": i, "bbox_extent": e, "bbox_center": [0, 0, 0], "object_tag": "obj"} for i, e in enumerate(extents)]
    return parse_scene(json.dumps(rows)).nodes


@given(st.one_of(nodes_pair(), parsed_pair()))
@example((box(1, (0.5, 2.6, 2.8), (0, 0, 0)), box(2, (1.3, 2.2, 1.4), (0, 0, 0))))
@example((box(1, (MAX_COORDINATE,) * 3, (0, 0, 0)), box(2, (MAX_COORDINATE, MAX_COORDINATE, 999999936.0), (0, 0, 0))))
@example((box(1, (5e-324, 1, 1), (0, 0, 0)), box(2, (MAX_COORDINATE,) * 3, (0, 0, 0))))
@example((box(1, (5e-324,) * 3, (0, 0, 0)), box(2, (1e-310,) * 3, (0, 0, 0))))
def test_size_compare_consistent(pair):
    """size_compare(b, a) mirrors size_compare(a, b), on grid boxes and on
    boxes parse_scene accepts, from subnormal extents to the bound."""
    a, b = pair
    assert size_compare(b, a).ordering is MIRRORED[size_compare(a, b).ordering]


@given(nodes_pair())
def test_can_contain_antisymmetric(pair):
    a, b = pair
    assert not (can_contain(a, b) and can_contain(b, a))


@given(nodes_pair())
def test_near_symmetric(pair):
    a, b = pair
    assert near(a, b) == near(b, a)


def random_scene(rng: random.Random, count: int) -> SceneGraph:
    nodes = []
    for i in range(count):
        nodes.append(
            ObjectNode(
                id=i,
                bbox_extent=Vec3(rng.randint(1, 20) / 10, rng.randint(1, 20) / 10, rng.randint(1, 20) / 10),
                bbox_center=Vec3(rng.randint(-50, 50) / 10, rng.randint(-50, 50) / 10, rng.randint(-50, 50) / 10),
                object_tag=f"obj{i}",
            )
        )
    return SceneGraph(nodes=tuple(nodes))


def brute_force_edges(scene, cfg):
    """Independent reference: direct double loop over predicates.

    It must keep calling the plain `on_top_of` and `near`: derive_edges
    writes their tests out and snaps only near a bound, and this is what
    checks that shortcut against the definition."""
    found = []
    for a in scene.nodes:
        for b in scene.nodes:
            if a.id == b.id:
                continue
            if on_top_of(a, b, cfg):
                found.append((a.id, SpatialRelation.ON_TOP_OF, b.id))
            if near(a, b, cfg):
                found.append((a.id, SpatialRelation.NEAR, b.id))
    return sorted(found, key=lambda e: (e[0], e[1].value, e[2]))


@st.composite
def boundary_scenes(draw):
    """(scene, cfg) whose pairs sit on the Near and OnTopOf boundaries,
    moved by a translation of up to 1e4 on each axis.

    Each box after the first is placed off an earlier one. On each axis
    the offset is zero, a grid step, the near threshold (or its 0.6 and
    0.8 parts, which make a diagonal of exactly the threshold), the
    half-extent sum at which footprints touch, or in z the height at
    which the gap equals the tolerance. Ids are sparse and in no
    particular order.
    """
    cfg = OracleConfig(
        near_threshold=draw(st.sampled_from([1.0, 0.05, 0.3])),
        vertical_gap_tolerance=draw(st.sampled_from([0.15, 0.05])),
    )
    t, tol = cfg.near_threshold, cfg.vertical_gap_tolerance
    extent = st.integers(0, 12).map(lambda k: k / 10)
    coord = st.integers(-60, 60).map(lambda k: k / 20)
    count = draw(st.integers(1, 24))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=count, max_size=count, unique=True))
    nodes: list[ObjectNode] = []
    for i in ids:
        ext = Vec3(draw(extent), draw(extent), draw(extent))
        if not nodes:
            centre = Vec3(draw(coord), draw(coord), draw(coord))
        else:
            base = draw(st.sampled_from(nodes))
            bx, by, bz = base.bbox_extent
            dx = draw(st.sampled_from([0, 0.05, t, 0.6 * t, (bx + ext.x) / 2]))
            dy = draw(st.sampled_from([0, 0.05, t, 0.8 * t, (by + ext.y) / 2]))
            dz = draw(st.sampled_from([0, t, (bz + ext.z) / 2, (bz + ext.z) / 2 + tol]))
            signs = draw(st.tuples(*[st.sampled_from([-1, 1])] * 3))
            centre = Vec3(*(c + s * d for c, s, d in zip(base.bbox_center, signs, (dx, dy, dz))))
        nodes.append(ObjectNode(i, ext, centre, f"obj{i}"))
    shift = draw(st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-1e4, 1e4)] * 3)))
    return translated(SceneGraph(nodes=tuple(nodes)), Vec3(*shift)), cfg


# Centres 1 + 4e-10 apart straddle two cell boundaries at 0 and 1, yet
# their distance snaps down onto the threshold of 1.
SNAPPED_ONTO_THRESHOLD = (
    SceneGraph(nodes=(box(0, (0.2, 0.2, 0.2), (-2e-10, 0, 0)), box(1, (0.2, 0.2, 0.2), (1 + 2e-10, 0, 0)))),
    OracleConfig(near_threshold=1.0),
)


# Tiny boxes with centres exactly one threshold apart on x: only the
# half threshold in each sweep interval makes them overlap. Their y
# intervals straddle the band edge at 0.
NEAR_ONLY_ACROSS_A_BAND_EDGE = (
    SceneGraph(nodes=(box(0, (0.01, 0.01, 0.01), (0, 0, 0)), box(1, (0.01, 0.01, 0.01), (1.0, 0, 0)))),
    OracleConfig(near_threshold=1.0),
)
# Boxes at the bound of the scene contract under the largest threshold:
# the sweep's margin is at its widest. Boxes 0 and 2 are not near; the
# other pairs are, at exactly the threshold.
FAR_RANGE = (
    SceneGraph(
        nodes=(
            box(0, (1, 1, 1), (MAX_COORDINATE, 0, 0)),
            box(1, (1, 1, 1), (0, 0, 0)),
            box(2, (1, 1, 1), (-MAX_COORDINATE, 0, 0)),
        )
    ),
    OracleConfig(near_threshold=MAX_COORDINATE),
)
# The same threshold on y, with extents at the bound: box 3 rests on the
# top face of box 0, half the bound up. Boxes 0 and 2 are not near.
LARGE_THRESHOLD = (
    SceneGraph(
        nodes=(
            box(0, (MAX_COORDINATE,) * 3, (0, -MAX_COORDINATE, 0)),
            box(1, (1, 1, 1), (0, 0, 0)),
            box(2, (1, 1, 1), (0, MAX_COORDINATE, 0)),
            box(3, (1, 1, 1), (0, -MAX_COORDINATE, MAX_COORDINATE / 2 + 0.5)),
        )
    ),
    OracleConfig(near_threshold=MAX_COORDINATE),
)


# Float noise that only snapping decides. The cup and mug centres, at x
# 1.2 and 2.2, are 1.0000000000000002 apart: Near at the threshold of 1.
# The book's bottom is 0.15000000000000036 above the tray's top: OnTopOf
# at the tolerance of 0.15.
FLOAT_NOISE = SceneGraph(
    nodes=(
        box(1, (0.1, 0.1, 0.1), (1.2, 0, 0), "cup"),
        box(2, (0.1, 0.1, 0.1), (2.2, 0, 0), "mug"),
        box(3, (1, 1, 0.1), (5, 0, -10.0), "tray"),
        box(4, (0.2, 0.2, 0.2), (5, 0, -9.7), "book"),
    )
)


@settings(deadline=None)
@given(boundary_scenes())
@example(SNAPPED_ONTO_THRESHOLD)
@example(NEAR_ONLY_ACROSS_A_BAND_EDGE)
@example(FAR_RANGE)
@example(LARGE_THRESHOLD)
@example((FLOAT_NOISE, OracleConfig()))
# The tolerance has no upper bound, and no lower one but 0.
@example((FLOAT_NOISE, OracleConfig(vertical_gap_tolerance=1e-12)))
@example((random_scene(random.Random(42), 20), OracleConfig(vertical_gap_tolerance=1e-12)))
@example((random_scene(random.Random(42), 20), OracleConfig(vertical_gap_tolerance=1e300)))
def test_derive_edges_matches_brute_force_on_boundaries(scene_cfg):
    scene, cfg = scene_cfg
    assert derive_edges(scene, cfg) == brute_force_edges(scene, cfg)


def test_float_noise_is_decided_by_snapping():
    cup, mug, tray, book = FLOAT_NOISE.nodes
    assert mug.bbox_center.x - cup.bbox_center.x > 1.0
    assert (book.bbox_center.z - 0.1) - (tray.bbox_center.z + 0.05) > 0.15
    near_edge, on_top = SpatialRelation.NEAR, SpatialRelation.ON_TOP_OF
    expected = [(1, near_edge, 2), (2, near_edge, 1), (3, near_edge, 4), (4, near_edge, 3), (4, on_top, 3)]
    assert derive_edges(FLOAT_NOISE, OracleConfig()) == expected


# derive_edges compares a raw value with its bound and snaps it only
# within SNAP_MARGIN of the bound. These restate its comparisons; each
# must decide as the snapped value does.
def sweep_within(x, bound):
    """The sweep's `round(x, 9) <= bound`, for a distance or a gap."""
    off = x - bound
    return off <= -SNAP_MARGIN or off <= SNAP_MARGIN and round(x, 9) <= bound


def sweep_rise(d):
    """The sweep's rise: d itself, unless it lies within the margin of 0."""
    return round(d, 9) if -SNAP_MARGIN <= d <= SNAP_MARGIN else d


def sweep_footprints(ds):
    """The sweep's footprint test on the four face differences."""
    return all(d >= 0 for d in ds) or all(d >= -SNAP_MARGIN for d in ds) and round(min(ds), 9) >= 0


def sign(x):
    return (x > 0) - (x < 0)


# Every difference of box numbers within the scene bound is below 2e9 in
# size; tenths of a snapping step either side of a bound are where the
# snapped and the raw comparison can part.
snap_bound = st.one_of(st.sampled_from([1.0, 0.15, 1e-12, 1e9, 1e300]), st.floats(1e-12, 1e9))
difference = st.one_of(st.integers(-40, 40).map(lambda k: k * 1e-10), st.floats(-2e9, 2e9))


@st.composite
def value_and_bound(draw):
    bound = draw(snap_bound)
    return draw(st.one_of(st.integers(-40, 40).map(lambda k: bound + k * 1e-10), st.floats(0, 2e9))), bound


@given(value_and_bound())
# Accepted unsnapped, but the value snaps to 1.000000001.
@example((1.0000000006, 1.0000000006))
# Refused unsnapped, but the value snaps to 1.0.
@example((1.0000000000000002, 1.0))
def test_sweep_bound_test_decides_as_snapped(x_bound):
    x, bound = x_bound
    assert sweep_within(x, bound) == (round(x, 9) <= bound)


@given(difference)
@example(3e-10)
@example(-5e-10)
def test_sweep_rise_has_the_snapped_sign(d):
    assert sign(sweep_rise(d)) == sign(round(d, 9))


@given(st.tuples(difference, difference, difference, difference))
@example((1.0, -3e-10, 2.0, 0.0))
def test_sweep_footprint_test_decides_as_snapped(ds):
    d1, d2, d3, d4 = ds
    # Boxes whose four face differences, as _footprints_overlap takes
    # them, are exactly ds.
    a = (0.0, d2, 0.0, d4, 0.0, 0.0, 0.0)
    b = (0.0, d1, 0.0, d3, 0.0, 0.0, 0.0)
    assert sweep_footprints(ds) == _footprints_overlap(a, b)


@st.composite
def pairs_beside_a_bound(draw):
    """(scene, cfg): two boxes whose distance, gap, rise or x face
    difference lies k * 1e-10 from its bound, k in -40..40, moved by up
    to 1e4 on each axis."""
    threshold = draw(st.sampled_from([1.0, 0.15, 0.3]))
    tolerance = draw(st.sampled_from([0.15, 0.05]))
    k = draw(st.integers(-40, 40)) * 1e-10
    tray, flat = box(1, (1, 1, 0.1), (0, 0, 0)), box(1, (1, 1, 0), (0, 0, 0))
    lower, upper = draw(
        st.sampled_from(
            [
                (tray, box(2, (0.01, 0.01, 0.01), (threshold + k, 0, 0))),
                # The cube's bottom over the tray's top.
                (tray, box(2, (0.2, 0.2, 0.2), (0, 0, 0.15 + tolerance + k))),
                # Flat boxes rest on each other at any tolerance.
                (flat, box(2, (1, 1, 0), (0, 0, k))),
                # The cube on the tray, its x face beside the tray's.
                (tray, box(2, (0.2, 0.2, 0.2), (0.6 + k, 0, 0.15))),
            ]
        )
    )
    shift = draw(st.tuples(*[st.floats(-1e4, 1e4)] * 3))
    scene = translated(SceneGraph(nodes=(lower, upper)), Vec3(*shift))
    return scene, OracleConfig(near_threshold=threshold, vertical_gap_tolerance=tolerance)


@settings(deadline=None)
@given(pairs_beside_a_bound())
def test_derive_edges_matches_brute_force_beside_each_bound(scene_cfg):
    scene, cfg = scene_cfg
    assert derive_edges(scene, cfg) == brute_force_edges(scene, cfg)


def multi_room_scene(rooms: int = 4, per_room: int = 30) -> SceneGraph:
    """Rooms 4 m wide at a 5 m pitch, two to a row: furniture on the
    floor, boxes stacked on it touching, 0.1 m or 0.2 m above, and small
    floor items."""
    rng = random.Random(7)
    nodes: list[ObjectNode] = []

    def add(extent, centre):
        nodes.append(ObjectNode(len(nodes), Vec3(*extent), Vec3(*centre), f"obj{len(nodes)}"))
        return nodes[-1]

    def dm(lo, hi):
        return rng.randint(lo, hi) / 10

    for room in range(rooms):
        ox, oy = (room % 2) * 5.0, (room // 2) * 5.0
        supports = []
        for _ in range(per_room // 3):
            ez = rng.choice([0.4, 0.6, 0.8])
            supports.append(add((dm(6, 20), dm(6, 20), ez), (ox + dm(0, 40), oy + dm(0, 40), ez / 2)))
        for _ in range(per_room // 3):
            base = rng.choice(supports)
            ez = rng.choice([0.2, 0.4])
            cx, cy, cz = base.bbox_center
            top = cz + base.bbox_extent.z / 2 + rng.choice([0.0, 0.1, 0.2]) + ez / 2
            supports.append(add((dm(2, 6), dm(2, 6), ez), (cx + dm(-3, 3), cy + dm(-3, 3), top)))
        while len(nodes) < (room + 1) * per_room:
            add((dm(2, 6),) * 3, (ox + dm(0, 40), oy + dm(0, 40), 0.1))
    return SceneGraph(nodes=tuple(nodes))


def test_multi_room_scene_matches_brute_force():
    scene = multi_room_scene()
    cfg = OracleConfig()
    edges = derive_edges(scene, cfg)
    assert len(scene.nodes) == 120
    assert {rel for _, rel, _ in edges} == {SpatialRelation.ON_TOP_OF, SpatialRelation.NEAR}
    assert edges == brute_force_edges(scene, cfg)


def test_three_rows_of_rooms_match_brute_force():
    # Rows 5 m apart in y put boxes in several y bands at every x.
    scene = multi_room_scene(rooms=6)
    moved = translated(scene, Vec3(123.4, -56.7, 8.9))
    for cfg in (OracleConfig(), OracleConfig(near_threshold=0.3, vertical_gap_tolerance=0.05)):
        assert derive_edges(scene, cfg) == brute_force_edges(scene, cfg)
        assert derive_edges(moved, cfg) == brute_force_edges(moved, cfg)


def test_one_wide_footprint_matches_brute_force():
    # A floor slab under all six rooms, far wider than any other box,
    # spans every y band; each floor item rests on it. At a threshold of
    # 0.05 no box's sweep interval is wider than its footprint.
    rooms = multi_room_scene(rooms=6)
    slab = box(10_000, (12.0, 17.0, 0.2), (4.5, 7.0, -0.1), "floor")
    scene = SceneGraph(nodes=(slab,) + rooms.nodes)
    for cfg in (OracleConfig(), OracleConfig(near_threshold=0.05)):
        edges = derive_edges(scene, cfg)
        on_slab = [s for s, rel, o in edges if rel is SpatialRelation.ON_TOP_OF and o == slab.id]
        assert len(on_slab) > 60
        assert edges == brute_force_edges(scene, cfg)


def test_footprints_touching_across_a_band_boundary():
    # 3e-10 apart in y, the footprints still touch after snapping, and
    # the y band boundary at 0 lies in the gap between them.
    lower = box(1, (1, 1, 1), (0, -0.5 - 3e-10, 0))
    upper = box(2, (1, 1, 1), (0, 0.5, 1))
    scene = SceneGraph(nodes=(lower, upper))
    cfg = OracleConfig()
    assert derive_edges(scene, cfg) == brute_force_edges(scene, cfg) == [(2, SpatialRelation.ON_TOP_OF, 1)]


def test_box_face_at_infinity():
    # A face at infinity cannot be parsed; at the bound the slab reaches
    # 1.5 times it, and the y bands still split it.
    rows = [
        {"id": 1, "bbox_extent": [1, 1.6e308, 1], "bbox_center": [0, 1e308, 0], "object_tag": "slab"},
        {"id": 2, "bbox_extent": [1, 1, 1], "bbox_center": [0, 1e308, 0.9], "object_tag": "box"},
    ]
    with pytest.raises(SceneError, match=r"node\[0\]\.bbox_extent"):
        parse_scene(json.dumps(rows))
    scene = SceneGraph(
        nodes=(box(1, (1, MAX_COORDINATE, 1), (0, MAX_COORDINATE, 0)), box(2, (1, 1, 1), (0, MAX_COORDINATE, 0.9)))
    )
    cfg = OracleConfig()
    assert derive_edges(scene, cfg) == brute_force_edges(scene, cfg)
    assert (2, SpatialRelation.ON_TOP_OF, 1) in brute_force_edges(scene, cfg)


def translated(scene: SceneGraph, offset: Vec3) -> SceneGraph:
    return SceneGraph(
        nodes=tuple(
            ObjectNode(n.id, n.bbox_extent, Vec3(*(c + d for c, d in zip(n.bbox_center, offset))), n.object_tag)
            for n in scene.nodes
        )
    )


def test_translation_invariance():
    rng = random.Random(3)
    scene = random_scene(rng, 15)
    cfg = OracleConfig()
    base = derive_edges(scene, cfg)
    for _ in range(5):
        offset = Vec3(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20))
        assert derive_edges(translated(scene, offset), cfg) == base


def test_scale_monotonicity():
    rng = random.Random(4)
    scene = random_scene(rng, 12)
    cfg = OracleConfig()
    base = derive_edges(scene, cfg)
    for k in (0.5, 2.0, 10.0):
        scaled = SceneGraph(
            nodes=tuple(
                ObjectNode(
                    n.id, Vec3(*(c * k for c in n.bbox_extent)), Vec3(*(c * k for c in n.bbox_center)), n.object_tag
                )
                for n in scene.nodes
            )
        )
        scaled_cfg = OracleConfig(
            near_threshold=cfg.near_threshold * k,
            vertical_gap_tolerance=cfg.vertical_gap_tolerance * k,
            similar_volume_ratio=cfg.similar_volume_ratio,
        )
        assert derive_edges(scaled, scaled_cfg) == base


def test_can_contain_transitive():
    rng = random.Random(5)
    for _ in range(200):
        ext = lambda: Vec3(rng.uniform(0.1, 3), rng.uniform(0.1, 3), rng.uniform(0.1, 3))
        a = ObjectNode(1, ext(), Vec3(0, 0, 0), "a")
        b = ObjectNode(2, ext(), Vec3(0, 0, 0), "b")
        c = ObjectNode(3, ext(), Vec3(0, 0, 0), "c")
        if can_contain(a, b) and can_contain(b, c):
            assert can_contain(a, c)
