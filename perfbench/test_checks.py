"""Each output check must reject a corrupted output and accept a sound one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from scenequery import cli, evalharness, llm  # noqa: E402
from scenequery.oracle import DECIDABLE_CATEGORIES  # noqa: E402


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


# --- relations --------------------------------------------------------------------


@pytest.fixture(scope="module")
def relations(tmp_path_factory):
    nodes, _ = inputs.dense_scene(7, rooms=2)
    moved = inputs.translated(nodes, (123, -45, 6))
    out = []
    for name, scene in (("scene", nodes), ("moved", moved)):
        path = tmp_path_factory.mktemp("rel") / f"{name}.json"
        inputs.write_scene(path, scene)
        out.append((scene, _cli(["--format", "json", "describe", str(path), "--relations"])))
    return out


def _with_edges(stdout, edges):
    payload = json.loads(stdout)
    payload["edges"] = [list(e) for e in edges]
    return json.dumps(payload)


def test_relations_sound_output_passes(relations):
    (nodes, stdout), (moved_nodes, moved_stdout) = relations
    assert checks.check_relations(nodes, stdout) == []
    assert checks.check_relations(moved_nodes, moved_stdout) == []
    assert checks.check_translation(stdout, moved_stdout) == []
    kinds = {rel for _, rel, _ in checks.edges_of_describe(stdout)}
    assert kinds == {"OnTopOf", "Near"}


def test_relations_dropped_edge_fails(relations):
    (nodes, stdout), _ = relations
    edges = checks.edges_of_describe(stdout)
    on_top = next(e for e in edges if e[1] == "OnTopOf")
    corrupted = _with_edges(stdout, [e for e in edges if e != on_top])
    assert any("missing" in e for e in checks.check_relations(nodes, corrupted))


def test_relations_extra_edge_fails(relations):
    (nodes, stdout), _ = relations
    edges = checks.edges_of_describe(stdout)
    extra = next((a["id"], "OnTopOf", b["id"]) for a in nodes for b in nodes
                 if a is not b and (a["id"], "OnTopOf", b["id"]) not in edges)
    assert any("unexpected" in e for e in checks.check_relations(nodes, _with_edges(stdout, edges + [extra])))


def test_relations_one_sided_near_fails(relations):
    (nodes, stdout), _ = relations
    edges = checks.edges_of_describe(stdout)
    near = next(e for e in edges if e[1] == "Near")
    errors = checks.check_relations(nodes, _with_edges(stdout, [e for e in edges if e != near]))
    assert any("symmetric" in e for e in errors)


def test_translation_change_fails(relations):
    (_, stdout), (_, moved_stdout) = relations
    edges = checks.edges_of_describe(moved_stdout)
    assert checks.check_translation(stdout, _with_edges(moved_stdout, edges[1:])) != []


# --- ask ----------------------------------------------------------------------------

BUDGET = 2000


@pytest.fixture(scope="module")
def asked(tmp_path_factory):
    nodes, stacks = inputs.dense_scene(11, rooms=3)
    path = tmp_path_factory.mktemp("ask") / "scene.json"
    inputs.write_scene(path, nodes)
    seen = []
    original = llm.OracleMockBackend.complete

    def capture(backend, system_text, user_text):
        seen.append(system_text)
        return original(backend, system_text, user_text)

    llm.OracleMockBackend.complete = capture
    try:
        results = []
        for query in inputs.ask_queries(nodes, stacks, 3, 4):
            stdout = _cli(["--format", "json", "--budget", str(BUDGET), "ask", str(path), query])
            results.append((query, seen[-1], stdout))
    finally:
        llm.OracleMockBackend.complete = original
    return nodes, results


def test_ask_sound_output_passes(asked):
    nodes, results = asked
    for query, prompt, stdout in results:
        assert checks.check_ask(nodes, query, BUDGET, prompt, stdout) == []
        assert len(checks.prompt_scene(prompt)) < len(nodes)  # the budget forced pruning


def test_ask_flipped_verdict_fails(asked):
    nodes, results = asked
    query, prompt, stdout = results[0]  # an on-top-of question answered "Yes"
    answer = json.loads(stdout)
    assert answer["final_text"].startswith("Yes")
    answer["final_text"] = "No" + answer["final_text"][3:]
    assert any("geometry says" in e for e in checks.check_ask(nodes, query, BUDGET, prompt, json.dumps(answer)))


def test_ask_prompt_over_budget_fails(asked):
    nodes, results = asked
    query, prompt, stdout = results[0]
    padded = prompt + " " * (4 * BUDGET)
    assert any("exceeds budget" in e for e in checks.check_ask(nodes, query, BUDGET, padded, stdout))


def _replace_prompt_scene(prompt, kept):
    start = prompt.index(checks.SCENE_MARKER) + len(checks.SCENE_MARKER)
    start = prompt.index("[", start)
    _, end = json.JSONDecoder().raw_decode(prompt, start)
    return prompt[:start] + json.dumps(kept) + prompt[end:]


def test_ask_pruned_named_node_fails(asked):
    nodes, results = asked
    query, prompt, stdout = results[0]
    named_id = int(query.split("(id: ")[1].split(")")[0])
    kept = [n for n in checks.prompt_scene(prompt) if n["id"] != named_id]
    errors = checks.check_ask(nodes, query, BUDGET, _replace_prompt_scene(prompt, kept), stdout)
    assert any("pruned" in e for e in errors)


def test_ask_moved_box_fails(asked):
    nodes, results = asked
    query, prompt, stdout = results[0]
    kept = checks.prompt_scene(prompt)
    kept[0]["bbox_center"][0] += 0.2
    errors = checks.check_ask(nodes, query, BUDGET, _replace_prompt_scene(prompt, kept), stdout)
    assert any("does not match input" in e for e in errors)


# --- eval ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def evaluated():
    gen = evalharness.generate_scene(evalharness.SceneRecipe(seed=5, node_count=10))
    queries = evalharness.generate_queries(gen)
    records = evalharness.run_eval([(gen, queries)], backend=llm.OracleMockBackend(gen.scene)).records
    return gen, queries, records


def test_eval_sound_output_passes(evaluated):
    assert checks.check_eval(*evaluated) == []


def test_eval_flipped_verdict_fails(evaluated):
    gen, queries, records = evaluated
    flipped = (replace(records[0], verdict="incorrect"),) + records[1:]
    assert any("scored incorrect" in e for e in checks.check_eval(gen, queries, flipped))


def test_eval_dropped_record_fails(evaluated):
    gen, queries, records = evaluated
    assert checks.check_eval(gen, queries, records[:-1]) != []


def _remote_records(gen, queries, kind, corrupt=None):
    plan = {(0, q.query_text): kind for q in queries}
    backend = inputs.RemoteStandIn(llm.OracleMockBackend(gen.scene), 0, plan, frozenset(), 0.0)
    if corrupt is not None:
        complete = backend.complete
        backend.complete = lambda system_text, user_text: corrupt(complete(system_text, user_text))
    return evalharness.run_eval([(gen, queries)], backend=backend).records


@pytest.mark.parametrize("kind", inputs.DRIFT_KINDS)
def test_each_drift_scores_as_its_clean_twin(evaluated, kind):
    gen, queries, clean = evaluated
    drifted = _remote_records(gen, queries, kind)
    decidable = [i for i, q in enumerate(queries) if q.category in DECIDABLE_CATEGORIES]
    assert all(drifted[i].raw_response != clean[i].raw_response for i in decidable)
    assert checks.check_twins(drifted, clean) == []


def test_drifted_reply_scored_differently_fails(evaluated):
    gen, queries, clean = evaluated
    drifted = _remote_records(gen, queries, "prose", corrupt=lambda text: text.replace("Yes,", "No,"))
    assert checks.check_twins(drifted, clean) != []


def test_yes_no_reads_whole_words():
    assert checks.yes_no("Now, yes it is.") is True
    assert checks.yes_no("No, the cup is not on the table.") is False
    assert checks.yes_no("Nothing decides it.") is None


def test_reported_metrics_match_benchmark_json():
    import run
    from tracer import Tracer

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {name: unit for name, (_, unit) in run.per_layer_metrics(Tracer(), 0.0).items()}
    assert per_layer == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])
