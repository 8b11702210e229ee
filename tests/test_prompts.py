import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from scenequery.prompts import (
    ACTION_DROP_ATTRIBUTES,
    ACTION_DROP_CAPTIONS,
    ACTION_PRUNE_NODE,
    ACTION_ROUND_NUMERICS,
    _FORMS,
    _words,
    BudgetInfeasible,
    PromptBundle,
    build_prompt,
    compact_scene,
    estimate_tokens,
    template_parts,
)
from scenequery.scene_model import (
    NODE_KEYS,
    ObjectNode,
    SceneGraph,
    Vec3,
    parse_scene,
    serialize_scene,
    serialized_length,
)


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_eight_chars(self):
        assert estimate_tokens("12345678") == 2

    def test_ceiling(self):
        assert estimate_tokens("123456789") == 3

    def test_monotone(self):
        text = "x" * 100
        assert all(estimate_tokens(text[:i]) <= estimate_tokens(text[: i + 1]) for i in range(100))


# The packaged demonstrations, read from the file rather than through the program.
DATA = Path(__file__).resolve().parents[1] / "src" / "scenequery" / "data"
EXAMPLES_JSON = DATA / "examples.json"


def packaged_template():
    return (DATA / "system_prompt.txt").read_text(encoding="utf-8")


def packaged_examples():
    return json.loads(EXAMPLES_JSON.read_text(encoding="utf-8"))


def reference_examples_text():
    return "\n\n".join(f'QUESTION = "{e["question"]}"\n\nANSWER = "{e["answer"]}"' for e in packaged_examples())


PLACEHOLDERS = ("{scenegraph}", "{examples}", "{input}")


def reference_render(scene_json, query):
    """The template filled in one pass: text put in for a placeholder is
    never searched for placeholders itself."""
    values = dict(zip(PLACEHOLDERS, (scene_json, reference_examples_text(), query)))
    return re.sub("|".join(map(re.escape, PLACEHOLDERS)), lambda m: values[m.group()], packaged_template())


def reference_omit(actions):
    """The node fields the attribute-dropping actions leave out."""
    omit = set()
    if ACTION_DROP_CAPTIONS in actions:
        omit.add("caption")
    if ACTION_DROP_ATTRIBUTES in actions:
        omit.update({"color", "material"})
    return omit


def examples_block(scene, query):
    """The in-context examples block of the built prompt, up to the query line."""
    text = build_prompt(scene, query).system_text.split("Following are the in-context examples: ", 1)[1]
    return text.split("\nQuestion: " + query, 1)[0]


class TestSelectExamples:
    def test_builtins_always_included(self, sample_scene_json):
        examples = packaged_examples()
        assert [e["category"] for e in examples] == ["RelativePosition", "SizeCompare"]
        scene = parse_scene(sample_scene_json)
        for query in ("Which is bigger, the vase or the mirror?", "Is the vase on top of the mirror?", "anything?"):
            assert examples_block(scene, query) == reference_examples_text()

    def test_size_compare_has_extent_demo(self, sample_scene_json):
        size_demo = packaged_examples()[1]
        assert "bigger" in size_demo["question"].lower()
        block = examples_block(parse_scene(sample_scene_json), "Which is bigger, the vase or the mirror?")
        assert f'QUESTION = "{size_demo["question"]}"' in block
        assert "box_extent" in block

    def test_freeform_gets_both_builtins(self, sample_scene_json):
        block = examples_block(parse_scene(sample_scene_json), "anything?")
        assert block.count('QUESTION = "') == 2
        assert block.count('ANSWER = "') == 2
        assert block == reference_examples_text()


def big_scene(node_count=150, caption_len=320):
    nodes = []
    for i in range(node_count):
        tag = "vase" if i == 0 else f"object{i}"
        nodes.append(
            ObjectNode(
                id=i,
                bbox_extent=Vec3(0.5, 0.5, 0.5),
                bbox_center=Vec3(float(i), 0.0, 0.25),
                object_tag=tag,
                caption="descriptive filler text " * (caption_len // 24),
                color="red",
                material="clay",
            )
        )
    return SceneGraph(nodes=tuple(nodes))


class TestBuildPrompt:
    def test_small_scene_no_compaction(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        bundle = build_prompt(scene, "where is the vase?")
        assert bundle.compaction_report == ()
        assert bundle.included_node_ids == (0, 5)
        assert "where is the vase?" in bundle.system_text
        assert "vase" in bundle.system_text
        assert bundle.token_estimate == estimate_tokens(bundle.system_text)
        assert bundle.token_estimate <= 16000

    def test_empty_scene(self):
        bundle = build_prompt(SceneGraph(nodes=()), "anything here?")
        assert "3D scene description : []" in bundle.system_text

    def test_large_scene_compacts(self):
        scene = big_scene()
        bundle = build_prompt(scene, "where is the red vase", budget=16000)
        assert bundle.compaction_report != ()
        assert bundle.token_estimate <= 16000
        # the mentioned vase survives
        assert 0 in bundle.included_node_ids

    def test_determinism(self):
        scene = big_scene()
        a = build_prompt(scene, "where is the red vase", budget=16000)
        b = build_prompt(scene, "where is the red vase", budget=16000)
        assert a == b

    def test_template_placeholders_filled(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        bundle = build_prompt(scene, "q")
        for placeholder in PLACEHOLDERS:
            assert placeholder not in bundle.system_text

    def test_placeholder_text_in_scene_and_query_kept_verbatim(self):
        node = ObjectNode(
            4, Vec3(1, 1, 1), Vec3(0, 0, 0.5), "box {examples}", "holds {input} and {scenegraph}",
            extra=(("note", "{scenegraph}{examples}{input}"),),
        )
        scene, query = SceneGraph(nodes=(node,)), "is the box {examples} near {input} or {scenegraph}?"
        bundle = build_prompt(scene, query, budget=800)
        for text in (node.object_tag, node.caption, node.extra[0][1], query):
            assert text in bundle.system_text
        assert bundle.system_text == reference_render(serialize_scene(scene), query)
        assert bundle.token_estimate == estimate_tokens(bundle.system_text) <= 800


class TestCompactScene:
    def test_noop_when_fitting(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        kept, actions, scene_json = compact_scene(scene, "q", budget=16000, template_overhead=100)
        assert kept == tuple(n.id for n in scene.nodes)
        assert actions == []
        assert scene_json == serialize_scene(scene)

    def test_action_order(self):
        scene = big_scene()
        overhead = 300
        budget = overhead + estimate_tokens(serialize_scene(scene)) // 4
        _, actions, _ = compact_scene(scene, "where is the red vase", budget, overhead)
        canonical = [ACTION_DROP_CAPTIONS, ACTION_DROP_ATTRIBUTES, ACTION_ROUND_NUMERICS]
        non_prune = [a for a in actions if not a.startswith(ACTION_PRUNE_NODE)]
        assert non_prune == canonical[: len(non_prune)]
        prune_positions = [i for i, a in enumerate(actions) if a.startswith(ACTION_PRUNE_NODE)]
        if prune_positions:
            assert prune_positions[0] >= len(non_prune)

    def test_mentioned_node_retained(self):
        scene = big_scene()
        overhead = 300
        # Tight budget: forces deep pruning but the vase must survive.
        budget = overhead + 200
        kept, actions, _ = compact_scene(scene, "where is the red vase", budget, overhead)
        assert any(scene.node(i).object_tag == "vase" for i in kept)

    def test_kept_ids_are_the_prompts_in_node_order(self):
        # Ids descending along the node list, so node order is not id order.
        scene = SceneGraph(nodes=big_scene(node_count=40).nodes[::-1])
        query = "where is the red vase"
        overhead = overhead_for(query)
        budget = overhead + 600
        kept, actions, _ = compact_scene(scene, query, budget, overhead)
        assert any(a.startswith(ACTION_PRUNE_NODE) for a in actions)
        assert kept == build_prompt(scene, query, budget).included_node_ids
        assert list(kept) == [n.id for n in scene.nodes if n.id in kept]

    def test_fitting_scene_keeps_every_id_in_node_order(self):
        # Ids descending along the node list, so node order is not id order.
        scene = SceneGraph(nodes=big_scene(node_count=40).nodes[::-1])
        expected = tuple(n.id for n in scene.nodes)
        for query in ("where is the red vase", "and the lamp?"):
            bundle = build_prompt(scene, query, budget=10**6)
            assert bundle.compaction_report == ()
            assert bundle.included_node_ids == expected

    def test_monotone_token_estimate(self):
        scene = big_scene(node_count=40)
        overhead = 300
        budget = overhead + 50
        try:
            compact_scene(scene, "where is the red vase", budget, overhead)
        except BudgetInfeasible:
            pass
        # Replay the canonical attribute-drop sequence and check estimates shrink.
        estimates = []
        actions: list[str] = []
        for action in (ACTION_DROP_CAPTIONS, ACTION_DROP_ATTRIBUTES, ACTION_ROUND_NUMERICS):
            actions.append(action)
            estimates.append(estimate_tokens(serialize_scene(scene, reference_omit(actions))))
        assert estimates == sorted(estimates, reverse=True)

    def test_budget_infeasible(self):
        scene = big_scene(node_count=5)
        with pytest.raises(BudgetInfeasible) as exc:
            compact_scene(scene, "impossible", budget=10, template_overhead=9)
        assert exc.value.overflow_tokens > 0

    def test_budget_below_overhead(self):
        scene = big_scene(node_count=2)
        with pytest.raises(BudgetInfeasible):
            compact_scene(scene, "q", budget=10, template_overhead=50)


def test_template_asset_loads():
    template = packaged_template()
    # Each placeholder once, in this order: the template splits around them.
    assert [template.count(p) for p in PLACEHOLDERS] == [1, 1, 1]
    assert sorted(PLACEHOLDERS, key=template.index) == list(PLACEHOLDERS)
    assert "STEP1" in template and "STEP-5" in template
    head, middle, tail = template_parts()
    filled = template.replace("{examples}", reference_examples_text())
    assert head + "{scenegraph}" + middle + "{input}" + tail == filled


# --- reference compaction ----------------------------------------------------
# The straightforward version: rebuild and re-serialize the whole scene after
# every step and every prune. build_prompt must produce exactly what it does.

_WORD = re.compile(r"[a-z0-9]+")


def _reference_round_node(node):
    def r(v):
        return Vec3(*(round(c, 1) + 0.0 for c in v))

    return ObjectNode(
        node.id, r(node.bbox_extent), r(node.bbox_center), node.object_tag,
        node.caption, node.color, node.material, node.extra,
    )


def reference_compact_scene(scene, query, budget, template_overhead):
    actions = []
    current = scene

    def overflow():
        return template_overhead + estimate_tokens(serialize_scene(current, reference_omit(actions))) - budget

    if budget <= template_overhead:
        raise BudgetInfeasible(template_overhead - budget + 1)
    if overflow() <= 0:
        return current, []
    for action in (ACTION_DROP_CAPTIONS, ACTION_DROP_ATTRIBUTES, ACTION_ROUND_NUMERICS):
        actions.append(action)
        if action == ACTION_ROUND_NUMERICS:
            current = SceneGraph(nodes=tuple(_reference_round_node(n) for n in current.nodes))
        if overflow() <= 0:
            return current, actions

    def relevance(node):
        return len(set(_WORD.findall((node.object_tag + " " + node.caption).lower())) & query_words)

    lowered = query.lower()
    query_words = set(_WORD.findall(lowered))
    protected = {n.id for n in current.nodes if n.object_tag.lower() in lowered}
    prunable = sorted((n for n in current.nodes if n.id not in protected), key=lambda n: (relevance(n), -n.id))
    if not protected and prunable:
        prunable = prunable[:-1]
    for victim in prunable:
        current = SceneGraph(nodes=tuple(n for n in current.nodes if n.id != victim.id))
        actions.append(f"{ACTION_PRUNE_NODE}:{victim.id}")
        if overflow() <= 0:
            return current, actions
    raise BudgetInfeasible(overflow())


def reference_build_prompt(scene, query, budget):
    overhead = overhead_for(query)
    actions = []
    scene_json = serialize_scene(scene)
    if overhead + estimate_tokens(scene_json) > budget:
        scene, actions = reference_compact_scene(scene, query, budget, overhead)
        scene_json = serialize_scene(scene, reference_omit(actions))
    system_text = reference_render(scene_json, query)
    return PromptBundle(system_text, estimate_tokens(system_text), tuple(n.id for n in scene.nodes), tuple(actions))


def outcome(build, scene, query, budget):
    """The bundle, or the overflow and message of BudgetInfeasible."""
    try:
        return build(scene, query, budget)
    except BudgetInfeasible as exc:
        return ("infeasible", exc.overflow_tokens, str(exc))


def overhead_for(query):
    return estimate_tokens(reference_render("", query))


def scene_tokens(scene, actions):
    return estimate_tokens(serialize_scene(scene, reference_omit(actions)))


STOPS = ("fits", "captions", "attributes", "mid_prune", "prune_boundary", "infeasible", "below_overhead")


def budget_for(stop, scene, query, pick=0):
    """A budget that ends compaction at `stop` (when the scene allows it).

    `pick` in [0, 1) places a mid-prune budget between the smallest
    scene and the scene without attributes."""
    overhead = overhead_for(query)
    full = scene_tokens(scene, [])
    captions = scene_tokens(scene, [ACTION_DROP_CAPTIONS])
    attributes = scene_tokens(scene, [ACTION_DROP_CAPTIONS, ACTION_DROP_ATTRIBUTES])
    if stop == "fits":
        return overhead + full
    if stop == "captions":
        return overhead + captions
    if stop == "attributes":
        return overhead + attributes
    if stop in ("mid_prune", "prune_boundary"):
        budget = overhead + 1 + int(pick * max(attributes - 1, 0))
        if stop == "mid_prune":
            return budget
        # Exactly the size of the scene pruning stops at: nothing to spare.
        try:
            kept, actions = reference_compact_scene(scene, query, budget, overhead)
        except BudgetInfeasible:
            return budget
        return overhead + scene_tokens(kept, actions)
    if stop == "infeasible":
        return overhead + 1
    return overhead - int(pick * 5)


coordinate = st.one_of(
    st.floats(-1e4, 1e4, allow_nan=False),
    st.integers(-2000, 2000).map(lambda k: k / 20),  # halves of the last kept decimal
    st.sampled_from([0.0, -0.0, -0.04, 0.05, -0.05, 0.15, 2.675]),
)
vec = st.builds(Vec3, coordinate, coordinate, coordinate)
words = st.sampled_from(
    [
        "vase", "mirror", "red", "table", "café", "Über", "雪", "on", "the", "chair",
        # KELVIN SIGN lowers to "k"; U+0130 to "i" and a combining dot.
        "\u212aettle", "kettle", "\u0130nk", "ink", "a\ud800b", "nul\x00l", "2nd", "k-9", "r2d2!",
    ]
)
phrase = st.lists(words, min_size=1, max_size=4).map(" ".join)
text = st.one_of(st.just(""), phrase, st.text(max_size=20))
extra = st.lists(
    st.tuples(
        st.text(min_size=1, max_size=6).filter(lambda k: k not in NODE_KEYS),
        st.one_of(st.integers(), st.text(max_size=8), st.lists(st.integers(), max_size=3)),
    ),
    max_size=2,
    unique_by=lambda kv: kv[0],
).map(tuple)


@st.composite
def scenes(draw):
    ids = draw(st.lists(st.integers(0, 10**6), max_size=12, unique=True))
    nodes = tuple(
        ObjectNode(i, draw(vec), draw(vec), draw(phrase), draw(text), draw(text), draw(text), draw(extra))
        for i in ids
    )
    return SceneGraph(nodes=nodes)


@st.composite
def queries(draw, scene):
    parts = draw(st.lists(words, max_size=3))
    if scene.nodes and draw(st.booleans()):
        # Name a node by its tag, which protects it from pruning.
        parts.append(draw(st.sampled_from(scene.nodes)).object_tag)
    return "where is the " + " ".join(parts) + "?"


EMPTY = SceneGraph(nodes=())
ONE = SceneGraph(nodes=(ObjectNode(3, Vec3(0.25, -0.0, 1e-9), Vec3(-0.05, 0.15, 2.675), "vase", "a vase", "red"),))
NON_ASCII = SceneGraph(
    nodes=(
        ObjectNode(0, Vec3(1, 1, 1), Vec3(0, 0, 0), "café table", "Über ☃ 雪", "rouge", extra=(("tags", ["é"]),)),
        ObjectNode(1, Vec3(0.5, 0.5, 0.5), Vec3(-0.0, 0.0, 0.45), "mirror", "a mirror", extra=(("score", 7),)),
    )
)


@settings(deadline=None, max_examples=150)
@given(st.data(), scenes(), st.sampled_from(STOPS), st.floats(0, 1, exclude_max=True))
@example(None, EMPTY, "fits", 0.0)
@example(None, EMPTY, "below_overhead", 0.5)
@example(None, ONE, "infeasible", 0.0)
@example(None, ONE, "mid_prune", 0.5)
@example(None, NON_ASCII, "captions", 0.0)
@example(None, NON_ASCII, "mid_prune", 0.9)
@example(None, NON_ASCII, "prune_boundary", 0.9)
def test_build_prompt_matches_reference(data, scene, stop, pick):
    query = data.draw(queries(scene)) if data is not None else "where is the café table?"
    budget = budget_for(stop, scene, query, pick)
    assert outcome(build_prompt, scene, query, budget) == outcome(reference_build_prompt, scene, query, budget)
    overhead = overhead_for(query)
    try:
        kept, actions, scene_json = compact_scene(scene, query, budget, overhead)
    except BudgetInfeasible:
        return
    reference_kept, reference_actions = reference_compact_scene(scene, query, budget, overhead)
    assert list(kept) == [n.id for n in reference_kept.nodes]
    assert actions == reference_actions
    assert scene_json == serialize_scene(reference_kept, reference_omit(reference_actions))


@given(scenes())
@example(EMPTY)
@example(ONE)
@example(NON_ASCII)
def test_form_lengths_match_serialization(scene):
    """compact_scene fit-checks each form by the length kept with the
    scene's items; it must be the length of the form's JSON, cold and warm."""
    lengths = [serialized_length(scene, omit) for _, omit in _FORMS]
    assert lengths == [len(serialize_scene(scene, omit)) for _, omit in _FORMS]
    assert [serialized_length(scene, omit) for _, omit in _FORMS] == lengths


@given(scenes())
@example(EMPTY)
@example(ONE)
@example(NON_ASCII)
def test_repeated_serialization_is_equal(scene):
    """Each form's text is joined once and kept with the scene: later
    calls give the same text, which a cold copy of the scene gives too."""
    first = [serialize_scene(scene, omit) for _, omit in _FORMS]
    assert [serialize_scene(scene, omit) for _, omit in _FORMS] == first
    assert [serialize_scene(SceneGraph(nodes=scene.nodes), omit) for _, omit in _FORMS] == first


@settings(deadline=None, max_examples=100)
@given(st.data(), scenes(), st.floats(0, 1, exclude_max=True))
@example(None, EMPTY, 0.0)
@example(None, ONE, 0.5)
@example(None, NON_ASCII, 0.9)
def test_warm_scene_prompts_equal_fresh_parse(data, scene, pick):
    """Prompts on a scene that has served prompts before, and so keeps its
    joined forms and ids, equal prompts on a fresh parse of the same JSON,
    at a budget that fits and at one that prunes."""
    query = data.draw(queries(scene)) if data is not None else "where is the café table?"
    scene = SceneGraph(nodes=tuple(n._replace(bbox_extent=Vec3(*map(abs, n.bbox_extent))) for n in scene.nodes))
    text = serialize_scene(scene)
    warm = parse_scene(text)
    budgets = [budget_for(stop, warm, query, pick) for stop in ("fits", "captions", "attributes", "mid_prune")]
    for _ in range(2):
        for budget in budgets:
            assert outcome(build_prompt, warm, query, budget) == outcome(build_prompt, parse_scene(text), query, budget)


def captioned_scene():
    scene = big_scene(node_count=30, caption_len=96)
    # One long caption on an unnamed node: dropping captions alone can fit.
    return SceneGraph(nodes=scene.nodes[:-1] + (ObjectNode(29, Vec3(1, 1, 1), Vec3(0, 0, 0), "lamp", "x" * 4000),))


@pytest.mark.parametrize(
    "stop, expected_actions",
    [
        ("fits", []),
        ("captions", [ACTION_DROP_CAPTIONS]),
        ("attributes", [ACTION_DROP_CAPTIONS, ACTION_DROP_ATTRIBUTES]),
        ("mid_prune", [ACTION_DROP_CAPTIONS, ACTION_DROP_ATTRIBUTES, ACTION_ROUND_NUMERICS, "prune"]),
        ("prune_boundary", [ACTION_DROP_CAPTIONS, ACTION_DROP_ATTRIBUTES, ACTION_ROUND_NUMERICS, "prune"]),
        ("infeasible", None),
        ("below_overhead", None),
    ],
)
def test_each_compaction_branch_matches_reference(stop, expected_actions):
    scene, query = captioned_scene(), "where is the vase?"
    budget = budget_for(stop, scene, query, 0.5)
    got = outcome(build_prompt, scene, query, budget)
    assert got == outcome(reference_build_prompt, scene, query, budget)
    if expected_actions is None:
        assert got[0] == "infeasible"
        return
    actions = list(got.compaction_report)
    if expected_actions[-1:] == ["prune"]:
        assert actions[:3] == expected_actions[:3] and len(actions) > 3
        assert 0 < len(got.included_node_ids) < len(scene.nodes)
    else:
        assert actions == expected_actions


word_char = st.one_of(
    st.characters(),
    st.sampled_from(["\u212a", "\u0130", "\ud800", "\udfff", "\x00", "\x7f", "\xff", "ß", "\ufb01", "7", "-", ".", "K", " "]),
)


@settings(max_examples=500)
@given(st.text(word_char, max_size=30))
@example("\u212aettle \u0130nk a\ud800b nul\x00l 2nd-K9, r2d2! caf\xe9")
def test_byte_words_match_regex(text):
    """Prune ranking splits words on bytes; it must find the regex's words."""
    assert [w.decode("ascii") for w in _words(text)] == _WORD.findall(text.lower())


def test_prune_ranking_with_awkward_characters_matches_reference():
    tags = ["\u212aettle", "kettle", "\u0130nk pot", "ink", "a\ud800b", "nul\x00l", "2nd k-9", "r2d2", "lamp", "cup"]
    captions = ["Kettle by the INK", "\u0130nk 2nd", "", "a\ud800b k 9", "\x00", "r2d2 kettle", "lamp ink", "ß", "", "k"]
    scene = SceneGraph(
        nodes=tuple(
            ObjectNode(i, Vec3(0.5, 0.5, 0.5), Vec3(float(i), 0.0, 0.0), tag, caption)
            for i, (tag, caption) in enumerate(zip(tags, captions))
        )
    )

    def kept_and_actions(compact, query, budget):
        try:
            kept, actions = compact(scene, query, budget, overhead_for(query))[:2]
        except BudgetInfeasible as exc:
            return exc.overflow_tokens
        # The reference returns the kept scene, compact_scene the kept ids.
        return (list(kept) if compact is compact_scene else [n.id for n in kept.nodes]), actions

    pruned = 0
    for query in ("is the KETTLE by the ink?", "where is \u212a-9 or r2d2?", "what is \u0130nk?", "a chair"):
        for pick in (0.1, 0.4, 0.7, 0.95):
            budget = budget_for("mid_prune", scene, query, pick)
            got = kept_and_actions(compact_scene, query, budget)
            assert got == kept_and_actions(reference_compact_scene, query, budget)
            pruned += type(got) is tuple
    assert pruned >= 8
