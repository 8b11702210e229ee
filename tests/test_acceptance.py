"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion summary."""

import functools
import random
import time


from conftest import SAMPLE_SCENE_JSON
from scenequery.evalharness import (
    EvalConfig,
    Layout,
    SceneRecipe,
    generate_queries,
    generate_scene,
    run_eval,
)
from scenequery.llm import oracle_backed_mock
from scenequery.oracle import (
    DECIDABLE_CATEGORIES,
    OracleConfig,
    QueryCategory,
    SpatialRelation,
    StructuredQuery,
    can_contain,
    derive_edges,
    near,
    on_top_of,
    size_compare,
    SizeOrdering,
)
from scenequery.parsing import (
    IssueKind,
    ParsedResponse,
    UnparseableResponse,
    parse_response,
    validate_grounding,
)
from scenequery.prompts import (
    ACTION_DROP_ATTRIBUTES,
    ACTION_DROP_CAPTIONS,
    ACTION_PRUNE_NODE,
    ACTION_ROUND_NUMERICS,
    build_prompt,
)
from scenequery.scene_model import (
    ObjectNode,
    SceneGraph,
    Vec3,
    parse_scene,
    serialize_scene,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL — {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS — {description}")

        return wrapper

    return decorate


@criterion(1, "sample-scene parse fidelity and round trip")
def test_criterion_1_sample_scene_fidelity():
    start = time.monotonic()
    scene = parse_scene(SAMPLE_SCENE_JSON)
    vase = scene.node(0)
    assert vase.object_tag == "vase"
    assert vase.bbox_extent == Vec3(0.7, 0.6, 0.4)
    assert vase.bbox_center == Vec3(-4.2, -2.0, 0.1)
    assert vase.color == "silver"
    assert vase.material == "metal/silver"
    mirror = scene.node(5)
    assert mirror.object_tag == "mirror"
    assert mirror.bbox_extent == Vec3(0.9, 0.7, 0.2)
    assert mirror.bbox_center == Vec3(-4.5, -1.6, 0.1)
    assert mirror.color == "brown"
    assert mirror.material == "wood"
    assert parse_scene(serialize_scene(scene)) == scene
    assert time.monotonic() - start < 1.0


@criterion(2, "pillow-on-couch verdicts under default config")
def test_criterion_2_on_top_of(pillow, couch):
    assert on_top_of(pillow, couch) is True
    assert on_top_of(couch, pillow) is False


@criterion(3, "couch/pillow size comparison and containment")
def test_criterion_3_size_and_containment(couch, pillow):
    assert size_compare(couch, pillow).ordering is SizeOrdering.BIGGER
    assert can_contain(couch, pillow) is True


@criterion(4, "edge derivation equals brute force; translation invariant")
def test_criterion_4_brute_force_equivalence():
    start = time.monotonic()
    cfg = OracleConfig()

    def brute_force(scene):
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

    for seed in range(200):
        rng = random.Random(seed)
        count = rng.randint(1, 50)
        nodes = tuple(
            ObjectNode(
                id=i,
                bbox_extent=Vec3(rng.randint(1, 20) / 10, rng.randint(1, 20) / 10, rng.randint(1, 20) / 10),
                bbox_center=Vec3(
                    rng.randint(-40, 40) / 10, rng.randint(-40, 40) / 10, rng.randint(-40, 40) / 10
                ),
                object_tag=f"obj{i}",
            )
            for i in range(count)
        )
        scene = SceneGraph(nodes=nodes)
        edges = derive_edges(scene, cfg)
        assert edges == brute_force(scene)
        for _ in range(10):
            offset = Vec3(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-30, 30))
            moved = SceneGraph(
                nodes=tuple(
                    ObjectNode(n.id, n.bbox_extent, Vec3(*(c + d for c, d in zip(n.bbox_center, offset))), n.object_tag)
                    for n in nodes
                )
            )
            assert derive_edges(moved, cfg) == edges
    assert time.monotonic() - start < 30.0


@criterion(5, "closed-loop pipeline scores 100% on decidable categories")
def test_criterion_5_closed_loop():
    start = time.monotonic()
    tasks = []
    for seed in range(20):
        gen = generate_scene(SceneRecipe(seed=seed, node_count=10, layout=Layout.MIXED))
        tasks.append((gen, generate_queries(gen)))
    report = run_eval(tasks, backend="oracle", cfg=EvalConfig())

    decidable = [r for r in report.records if QueryCategory(r.category) in DECIDABLE_CATEGORIES]
    assert decidable
    present = {r.category for r in decidable}
    assert present == DECIDABLE_CATEGORIES
    assert all(r.verdict == "correct" for r in decidable)
    assert all(r.verdict != "ungrounded" for r in report.records)
    assert all(r.verdict != "unparseable" for r in report.records)
    assert time.monotonic() - start < 10.0


@criterion(6, "oversized scene compacts within the 16k budget")
def test_criterion_6_compaction():
    gen = generate_scene(SceneRecipe(seed=0, node_count=150))
    caption = "a wordy caption describing this object at great length " * 5  # > 200 chars
    assert len(caption) >= 200
    scene = SceneGraph(
        nodes=tuple(
            ObjectNode(n.id, n.bbox_extent, n.bbox_center, n.object_tag, caption, n.color, n.material)
            for n in gen.scene.nodes
        )
    )
    query = f"where is the {scene.nodes[0].object_tag}?"

    # Before compaction the full prompt exceeds the budget.
    full = build_prompt(scene, query, budget=10**9)
    assert full.token_estimate > 16000

    bundle = build_prompt(scene, query, budget=16000)
    assert bundle.token_estimate <= 16000
    assert bundle.compaction_report != ()

    canonical = [ACTION_DROP_CAPTIONS, ACTION_DROP_ATTRIBUTES, ACTION_ROUND_NUMERICS]
    non_prune = [a for a in bundle.compaction_report if not a.startswith(ACTION_PRUNE_NODE)]
    assert non_prune == canonical[: len(non_prune)]
    prune_idx = [i for i, a in enumerate(bundle.compaction_report) if a.startswith(ACTION_PRUNE_NODE)]
    assert all(i >= len(non_prune) for i in prune_idx)

    # The query-mentioned node survives pruning.
    assert scene.nodes[0].id in bundle.included_node_ids


@criterion(7, "parser robustness corpus and render/parse inverse")
def test_criterion_7_parser_robustness(couch_pillow_scene):
    well_formed = (
        "STEP1 - inferred_query: find it\n"
        "STEP2 - relevant_objects: [27, 28]\n"
        "STEP3 - reason for relevance: named\n"
        'STEP4 - Final Answer: here. {"object_tag": "pillow", "object_id": 27}\n'
        "STEP-5 - Explanation: done.\n"
    )
    corpus: list[tuple[str, str]] = []
    for i in range(10):
        corpus.append((well_formed.replace("find it", f"find it v{i}"), "parsed"))
    for i in range(10):
        hyphenated = well_formed.replace("STEP1", "STEP-1").replace("STEP2", "STEP-2")
        corpus.append((hyphenated.replace("find it", f"hyph v{i}"), "parsed"))
    for i in range(10):
        missing_json = well_formed.replace(' {"object_tag": "pillow", "object_id": 27}', f" v{i}")
        corpus.append((missing_json, "parsed-no-json"))
    for i in range(10):
        fenced = well_formed.replace(
            '{"object_tag": "pillow", "object_id": 27}',
            f'```json\n{{"object_tag": "pillow", "object_id": 27, "v": {i}}}\n```',
        )
        corpus.append((fenced, "parsed"))
    for garbage in ("", "nonsense", "{}", "12345", "no structure at all", "###", "null", "[]", "??", "-"):
        corpus.append((garbage, "unparseable"))
    assert len(corpus) == 50

    for text, expectation in corpus:
        try:
            parsed = parse_response(text)
        except UnparseableResponse:
            assert expectation == "unparseable", text
            continue
        assert isinstance(parsed, ParsedResponse)
        if expectation == "parsed":
            assert parsed.final_object_id == 27
        elif expectation == "parsed-no-json":
            assert parsed.final_object_id is None
            assert any(n.kind is IssueKind.MISSING_STEP and n.step == 4 for n in parsed.notes)

    # Render/parse inverse over every decidable mock output.
    for query in (
        StructuredQuery(QueryCategory.ON_TOP_OF, 27, 28, "a"),
        StructuredQuery(QueryCategory.ON_TOP_OF, 28, 27, "b"),
        StructuredQuery(QueryCategory.SIZE_COMPARE, 28, 27, "c"),
        StructuredQuery(QueryCategory.SIZE_COMPARE, 27, 28, "d"),
        StructuredQuery(QueryCategory.CONTAINMENT, 28, 27, "e"),
        StructuredQuery(QueryCategory.CONTAINMENT, 27, 28, "f"),
        StructuredQuery(QueryCategory.RELATIVE_POSITION, 27, 28, "g"),
    ):
        rendered = oracle_backed_mock(couch_pillow_scene, query)
        parsed = parse_response(rendered)
        assert parsed.notes == ()
        assert validate_grounding(parsed, couch_pillow_scene, (27, 28)) == []
        assert set(parsed.relevant_object_ids) == {27, 28}
        assert parsed.final_object_id is not None
        assert query.text in parsed.inferred_query


@criterion(8, "byte-identical prompts, responses and reports across runs")
def test_criterion_8_determinism():
    def one_run():
        tasks = []
        for seed in range(3):
            gen = generate_scene(SceneRecipe(seed=seed, node_count=10))
            tasks.append((gen, generate_queries(gen)))
        prompts = []
        for gen, queries in tasks:
            for q in queries:
                bundle = build_prompt(gen.scene, q.query_text)
                prompts.append(bundle.system_text)
                prompts.append(oracle_backed_mock(gen.scene, q.structured))
        report = run_eval(tasks, backend="oracle")
        return "\x00".join(prompts), report.to_json(), report.to_jsonl()

    assert one_run() == one_run()
