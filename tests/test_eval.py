import collections
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from scenequery import llm, prompts, scene_model
from scenequery.cli import main
from scenequery.evalharness import (
    EvalConfig,
    EvalReport,
    Layout,
    SceneRecipe,
    _verdict_from_text,
    answer,
    generate_queries,
    generate_scene,
    load_lexicon,
    run_eval,
)
from scenequery.llm import MockBackend, OracleMockBackend
from scenequery.oracle import (
    DECIDABLE_CATEGORIES,
    QueryCategory,
    can_contain,
    near,
    on_top_of,
)
from scenequery.scene_model import parse_scene, serialize_scene


class TestGenerateScene:
    def test_deterministic_in_seed(self):
        a = generate_scene(SceneRecipe(seed=7, layout=Layout.STACKS, node_count=4))
        b = generate_scene(SceneRecipe(seed=7, layout=Layout.STACKS, node_count=4))
        assert serialize_scene(a.scene) == serialize_scene(b.scene)
        assert a.planted == b.planted

    def test_different_seeds_differ(self):
        a = generate_scene(SceneRecipe(seed=1, node_count=8))
        b = generate_scene(SceneRecipe(seed=2, node_count=8))
        assert serialize_scene(a.scene) != serialize_scene(b.scene)

    def test_stacks_plant_on_top_of(self):
        for seed in range(10):
            gen = generate_scene(SceneRecipe(seed=seed, layout=Layout.STACKS, node_count=8))
            assert gen.planted
            for fact in gen.planted:
                assert fact.category is QueryCategory.ON_TOP_OF
                assert on_top_of(gen.scene.node(fact.subject_id), gen.scene.node(fact.object_id))

    def test_containers_plant_dominance(self):
        for seed in range(10):
            gen = generate_scene(SceneRecipe(seed=seed, layout=Layout.CONTAINERS, node_count=8))
            assert gen.planted
            for fact in gen.planted:
                assert can_contain(gen.scene.node(fact.subject_id), gen.scene.node(fact.object_id))

    def test_clusters_plant_near(self):
        for seed in range(10):
            gen = generate_scene(SceneRecipe(seed=seed, layout=Layout.CLUSTERS, node_count=8))
            for fact in gen.planted:
                assert near(gen.scene.node(fact.subject_id), gen.scene.node(fact.object_id))

    def test_single_node(self):
        gen = generate_scene(SceneRecipe(seed=0, node_count=1))
        assert len(gen.scene.nodes) == 1
        assert gen.planted == ()

    def test_node_count_respected(self):
        for count in (1, 2, 5, 12):
            gen = generate_scene(SceneRecipe(seed=3, node_count=count))
            assert len(gen.scene.nodes) == count

    def test_tags_come_from_lexicon(self):
        lexicon = load_lexicon()
        gen = generate_scene(SceneRecipe(seed=11, node_count=10))
        assert all(n.object_tag in lexicon for n in gen.scene.nodes)

    @pytest.mark.parametrize("layout", list(Layout))
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), node_count=st.integers(1, 40))
    @example(seed=0, node_count=10)
    def test_survives_serialization(self, layout, seed, node_count):
        """Every box number is exact at the one decimal that prompts show,
        so the prompt's scene is the scene the ground truth was taken from."""
        scene = generate_scene(SceneRecipe(seed=seed, node_count=node_count, layout=layout)).scene
        assert parse_scene(serialize_scene(scene)) == scene


def test_load_lexicon_returns_a_fresh_copy():
    before = load_lexicon()
    mutated = load_lexicon()
    tag = sorted(mutated)[0]
    mutated[tag]["affordances"].append("juggling")
    mutated[tag]["properties"].append("weightless")
    del mutated[sorted(mutated)[-1]]
    assert load_lexicon() == before


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"budget": 0}, "token budget must be positive"),
        ({"budget": -1}, "token budget must be positive"),
        ({"budget": 900.0}, "budget must be an integer, got 900.0"),
        ({"budget": True}, "budget must be an integer, got True"),
        ({"strict_parse": 1}, "strict_parse must be true or false, got 1"),
        ({"strict_parse": None}, "strict_parse must be true or false, got None"),
    ],
)
def test_eval_config_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError) as exc:
        EvalConfig(**fields)
    assert str(exc.value) == message


class TestGenerateQueries:
    def test_planted_stack_query(self):
        gen = generate_scene(SceneRecipe(seed=5, layout=Layout.STACKS, node_count=6))
        queries = generate_queries(gen)
        positives = [q for q in queries if q.category is QueryCategory.ON_TOP_OF and q.expected_bool]
        assert len(positives) == len(gen.planted)
        for q in positives:
            assert "on top of" in q.query_text

    def test_affordance_query_expects_matching_tags(self):
        lexicon = load_lexicon()
        gen = generate_scene(SceneRecipe(seed=5, node_count=10))
        queries = generate_queries(gen)
        affordance = [q for q in queries if q.category is QueryCategory.AFFORDANCE]
        assert affordance
        q = affordance[0]
        assert q.expected_object_ids
        for node_id in q.expected_object_ids:
            tag = gen.scene.node(node_id).object_tag
            assert any(a in q.query_text for a in lexicon[tag]["affordances"])

    def test_negation_query_expects_non_opaque(self):
        lexicon = load_lexicon()
        # Seed 0 draws a mirror, a window, a bottle and a glass.
        gen = generate_scene(SceneRecipe(seed=0, node_count=6))
        queries = generate_queries(gen)
        negation = [q for q in queries if q.category is QueryCategory.NEGATION]
        assert any(n.object_tag == "window" for n in gen.scene.nodes)
        assert negation
        for node_id in negation[0].expected_object_ids:
            assert "opaque" not in lexicon[gen.scene.node(node_id).object_tag]["properties"]

    def test_expected_ids_exist(self):
        gen = generate_scene(SceneRecipe(seed=9, node_count=12))
        for q in generate_queries(gen):
            for node_id in q.expected_object_ids:
                assert gen.scene.has_node(node_id)

    def test_mixed_scene_queries_pinned(self):
        """Every planted category, each yes/no fact asked both ways, and
        the size question right after its OnTopOf pair."""
        queries = generate_queries(generate_scene(SceneRecipe(seed=0, node_count=10, layout=Layout.MIXED)))
        assert [q.query_text for q in queries] == [
            "Is the window (id: 1) located on top of the mirror (id: 0)?",
            "Is the mirror (id: 0) located on top of the window (id: 1)?",
            "Which is bigger, the mirror (id: 0) or the window (id: 1)?",
            "Can the mirror (id: 2) contain the box (id: 3)?",
            "Can the box (id: 3) contain the mirror (id: 2)?",
            "Where is the bottle (id: 4) with respect to the glass (id: 5)?",
            "Is the bed (id: 7) located on top of the vase (id: 6)?",
            "Is the vase (id: 6) located on top of the bed (id: 7)?",
            "Which is bigger, the vase (id: 6) or the bed (id: 7)?",
            "Can the plant (id: 8) contain the microwave (id: 9)?",
            "Can the microwave (id: 9) contain the plant (id: 8)?",
            "Something that can be used to see your reflection",
            "Something that is not opaque",
        ]
        assert all(q.structured.category is q.category for q in queries)
        structured = [(q.category.value, q.structured.subject_id, q.structured.object_id, q.structured.text) for q in queries]
        assert structured == [
            ("OnTopOf", 1, 0, ""),
            ("OnTopOf", 0, 1, ""),
            ("SizeCompare", 0, 1, ""),
            ("Containment", 2, 3, ""),
            ("Containment", 3, 2, ""),
            ("RelativePosition", 4, 5, ""),
            ("OnTopOf", 7, 6, ""),
            ("OnTopOf", 6, 7, ""),
            ("SizeCompare", 6, 7, ""),
            ("Containment", 8, 9, ""),
            ("Containment", 9, 8, ""),
            ("Affordance", None, None, "used to see your reflection"),
            ("Negation", None, None, "not opaque"),
        ]
        assert [(q.expected_object_ids, q.expected_bool, q.expected_keywords) for q in queries] == [
            ((), True, ()),
            ((), False, ()),
            ((0,), None, ()),
            ((), True, ()),
            ((), False, ()),
            ((), None, ("in the positive x direction from and near",)),
            ((), True, ()),
            ((), False, ()),
            ((6,), None, ()),
            ((), True, ()),
            ((), False, ()),
            ((0, 2), None, ()),
            ((0, 1, 2, 4, 5), None, ()),
        ]


def tasks_for(seeds, layout=Layout.MIXED, node_count=10):
    out = []
    for seed in seeds:
        gen = generate_scene(SceneRecipe(seed=seed, node_count=node_count, layout=layout))
        out.append((gen, generate_queries(gen)))
    return out


class TestRunEval:
    def test_closed_loop_decidable_categories(self):
        report = run_eval(tasks_for(range(5)), backend="oracle")
        for category in DECIDABLE_CATEGORIES:
            assert report.accuracy(category) == 1.0, category
        assert all(r.verdict != "unparseable" for r in report.records)
        assert all(r.verdict != "ungrounded" for r in report.records)

    def test_garbage_backend_counts_unparseable(self):
        tasks = tasks_for([0])
        backend = MockBackend({"": "complete nonsense with no steps"})
        report = run_eval(tasks, backend=backend)
        assert report.records
        assert all(r.verdict == "unparseable" for r in report.records)

    def test_empty_query_set(self):
        gen = generate_scene(SceneRecipe(seed=0, node_count=3))
        report = run_eval([(gen, [])], backend="oracle")
        assert report.records == ()
        assert report.counts() == {}

    def test_counts_conserved(self):
        report = run_eval(tasks_for(range(3)), backend="oracle")
        counts = report.counts()
        total = sum(sum(row.values()) for row in counts.values())
        assert total == len(report.records)
        for row in counts.values():
            assert set(row) == {"correct", "incorrect", "ungrounded", "unparseable"}

    def test_reproducible_report_bytes(self):
        a = run_eval(tasks_for(range(3)), backend="oracle").to_json()
        b = run_eval(tasks_for(range(3)), backend="oracle").to_json()
        assert a == b

    def test_null_reply_counts_unparseable(self):
        tasks = tasks_for([0])
        count = len(tasks[0][1])
        backend = MockBackend([None] + ["complete nonsense with no steps"] * (count - 1))
        report = run_eval(tasks, backend=backend)
        first = report.records[0]
        assert first.verdict == "unparseable"
        assert first.raw_response == ""
        assert json.loads(report.to_jsonl().splitlines()[0])["raw_response"] == ""

    @pytest.mark.parametrize("layout", list(Layout))
    def test_oracle_string_is_a_per_scene_oracle_backend(self, layout):
        tasks = tasks_for(range(4), layout=layout)
        records = []
        for gen, queries in tasks:
            records += run_eval([(gen, queries)], backend=OracleMockBackend(gen.scene)).records
        assert run_eval(tasks, backend="oracle").to_json() == EvalReport(records=tuple(records)).to_json()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_eval(tasks_for([0]), backend="nonsense")

    def test_jsonl_audit_has_raw_responses(self):
        report = run_eval(tasks_for([0]), backend="oracle")
        lines = [json.loads(l) for l in report.to_jsonl().splitlines()]
        assert len(lines) == len(report.records)
        assert all("raw_response" in l and l["raw_response"] for l in lines)

    def test_text_report_totals(self):
        report = run_eval(tasks_for([0]), backend="oracle")
        text = report.to_text()
        assert f"total queries: {len(report.records)}" in text


@pytest.mark.parametrize(
    "text, expected",
    [
        ("Now, yes it is.", True),
        ("Nothing fits.", None),
        ("No, it is not.", False),
        ("Yes!", True),
    ],
)
def test_verdict_from_text_matches_whole_words(text, expected):
    assert _verdict_from_text(text) is expected


def test_layers_are_reached_through_their_module_attributes(monkeypatch):
    """Per-layer tracing replaces `prompts.compact_scene` and `llm.complete`
    on their modules; a caller that bypasses either would hide its time."""
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(prompts, "compact_scene", spy("compact_scene", prompts.compact_scene))
    monkeypatch.setattr(llm, "complete", spy("complete", llm.complete))
    scene = generate_scene(SceneRecipe(seed=0, node_count=150)).scene
    query = f"Where is the {scene.nodes[0].object_tag}?"

    bundle = prompts.build_prompt(scene, query, budget=3000)
    assert any(a.startswith(prompts.ACTION_PRUNE_NODE) for a in bundle.compaction_report)
    assert calls == ["compact_scene"]

    result = answer(scene, query, OracleMockBackend(scene), EvalConfig(budget=3000))
    assert result.parsed is not None
    assert calls == ["compact_scene", "compact_scene", "complete"]


class TestSceneEncodedOnce:
    """A scene encodes each node on its first serialization and reuses the
    pieces for every later prompt on it."""

    @pytest.fixture
    def encodings(self, monkeypatch):
        counts = collections.Counter()
        original = scene_model._encode_node

        def counting(node):
            counts[node.id] += 1
            return original(node)

        monkeypatch.setattr(scene_model, "_encode_node", counting)
        return counts

    def test_run_eval_over_one_scene(self, encodings):
        [(gen, queries)] = tasks_for([3])
        assert len(queries) >= 10
        report = run_eval([(gen, queries)], backend="oracle")
        assert len(report.records) == len(queries)
        assert encodings == {n.id: 1 for n in gen.scene.nodes}

    def test_pruning_prompts(self, encodings):
        # The full, caption-less and attribute-less forms share one encoding.
        scene = generate_scene(SceneRecipe(seed=0, node_count=150)).scene
        for node in scene.nodes[:3]:
            bundle = prompts.build_prompt(scene, f"Where is the {node.object_tag}?", budget=3000)
            assert any(a.startswith(prompts.ACTION_PRUNE_NODE) for a in bundle.compaction_report)
        assert encodings == {n.id: 1 for n in scene.nodes}

    @pytest.mark.parametrize(
        "budget, sent", [(3000, frozenset({"caption", "color", "material"})), (16000, frozenset())]
    )
    def test_cold_prompt_joins_one_form(self, monkeypatch, budget, sent):
        # Forms are fit-checked by length: only the form sent, the
        # attribute-less one when pruning, builds node JSON.
        omits = collections.Counter()
        original = scene_model._form_nodes

        def counting(pieces, form):
            omits[scene_model.FORMS[form]] += 1
            return original(pieces, form)

        monkeypatch.setattr(scene_model, "_form_nodes", counting)
        scene = generate_scene(SceneRecipe(seed=0, node_count=150)).scene
        bundle = prompts.build_prompt(scene, f"Where is the {scene.nodes[0].object_tag}?", budget=budget)
        assert any(a.startswith(prompts.ACTION_PRUNE_NODE) for a in bundle.compaction_report) == (budget == 3000)
        assert omits == {sent: 1}

    def test_describe_and_validate_encode_nothing(self, encodings, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(serialize_scene(generate_scene(SceneRecipe(seed=1)).scene), encoding="utf-8")
        encodings.clear()
        assert main(["describe", str(path), "--relations"]) == 0
        assert main(["--format", "json", "describe", str(path)]) == 0
        assert main(["validate", str(path)]) == 0
        assert not encodings
