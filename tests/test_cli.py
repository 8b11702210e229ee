import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from scenequery import cli
from scenequery.cli import build_parser, main
from scenequery.evalharness import EvalConfig, answer
from scenequery.llm import OracleMockBackend
from scenequery.oracle import OracleConfig, derive_edges
from scenequery.prompts import estimate_tokens
from scenequery.scene_model import MAX_COORDINATE, NODE_KEYS, parse_scene, serialize_scene
from conftest import SAMPLE_SCENE_JSON
from test_oracle import brute_force_edges, multi_room_scene


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(SAMPLE_SCENE_JSON, encoding="utf-8")
    return str(path)


@pytest.fixture
def couch_pillow_file(tmp_path):
    nodes = [
        {
            "id": 27,
            "bbox_extent": [0.7, 0.6, 0.3],
            "bbox_center": [2.9, 2.5, -0.8],
            "object_tag": "pillow",
        },
        {
            "id": 28,
            "bbox_extent": [1.0, 0.9, 0.6],
            "bbox_center": [2.8, 2.3, -1.2],
            "object_tag": "white couch",
        },
    ]
    path = tmp_path / "couch.json"
    path.write_text(json.dumps(nodes), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_valid_scene(self, scene_file, capsys):
        assert main(["validate", scene_file]) == 0
        out = capsys.readouterr().out
        assert "2 nodes, 0 issues" in out

    def test_duplicate_ids(self, tmp_path, capsys):
        nodes = json.loads(SAMPLE_SCENE_JSON)
        nodes[1]["id"] = 0
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(nodes), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "duplicate" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_json_format(self, scene_file, capsys):
        assert main(["--format", "json", "validate", scene_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"nodes": 2, "issues": []}


class TestDescribe:
    def test_relations(self, couch_pillow_file, capsys):
        assert main(["describe", couch_pillow_file, "--relations"]) == 0
        out = capsys.readouterr().out
        assert "27 OnTopOf 28" in out

    def test_single_node_empty_relations(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps([{"id": 0, "bbox_extent": [1, 1, 1], "bbox_center": [0, 0, 0], "object_tag": "box"}]),
            encoding="utf-8",
        )
        assert main(["describe", str(path), "--relations"]) == 0
        assert "(none)" in capsys.readouterr().out

    def test_json_format_edges(self, couch_pillow_file, capsys):
        assert main(["--format", "json", "describe", couch_pillow_file, "--relations"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [27, "OnTopOf", 28] in payload["edges"]

    @staticmethod
    def rooms_file(tmp_path):
        """A six-room scene, its describe rows and the path of its file."""
        scene = multi_room_scene(rooms=6)
        rows = [
            {
                "id": n.id,
                "object_tag": n.object_tag,
                "bbox_center": list(n.bbox_center),
                "bbox_extent": list(n.bbox_extent),
            }
            for n in scene.nodes
        ]
        path = tmp_path / "rooms.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        return scene, rows, str(path)

    def test_json_bytes_on_multi_room_scene(self, tmp_path, capsys):
        scene, rows, path = self.rooms_file(tmp_path)
        assert main(["--format", "json", "describe", path, "--relations"]) == 0
        edges = [[s, rel.value, o] for s, rel, o in brute_force_edges(scene, OracleConfig())]
        expected = json.dumps({"nodes": rows, "edges": edges}, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected

    def test_text_bytes_on_multi_room_scene(self, tmp_path, capsys):
        scene, rows, path = self.rooms_file(tmp_path)
        assert main(["describe", path, "--relations"]) == 0
        edges = brute_force_edges(scene, OracleConfig())
        assert edges
        lines = [
            f"{r['id']:>4}  {r['object_tag']:<20} center {r['bbox_center']}  extent {r['bbox_extent']}" for r in rows
        ]
        lines += ["", "relations:"] + [f"  {s} {rel.value} {o}" for s, rel, o in edges]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_text_without_relations(self, tmp_path, capsys):
        _, rows, path = self.rooms_file(tmp_path)
        assert main(["describe", path]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == len(rows) and "relations:" not in out


awkward_tag = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "é", "雪", "😀"]),
    ),
    min_size=1,
    max_size=8,
)
special_coordinate = st.sampled_from([-0.0, 5e-324, MAX_COORDINATE])
extent = st.lists(st.one_of(st.integers(0, 4), st.floats(0, 4), special_coordinate), min_size=3, max_size=3)
centre = st.lists(st.one_of(st.integers(-6, 6), st.floats(-6, 6), special_coordinate), min_size=3, max_size=3)
extra_keys = st.dictionaries(
    st.text(max_size=6).filter(lambda k: k not in NODE_KEYS),
    st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), awkward_tag, st.lists(st.integers(), max_size=2)),
    max_size=2,
)


@st.composite
def describe_rows(draw):
    """Scene-file rows: 0 to 12 nodes with ids up to 10**30, awkward tags,
    int and float coordinates, and keys describe does not print."""
    ids = draw(st.lists(st.integers(0, 10**30), max_size=12, unique=True))
    return [
        {
            **draw(extra_keys),
            "id": i,
            "bbox_extent": draw(extent),
            "bbox_center": draw(centre),
            "object_tag": draw(awkward_tag),
        }
        for i in ids
    ]


def box_row(node_id, center, tag="box"):
    return {"id": node_id, "bbox_extent": [1, 1, 1], "bbox_center": center, "object_tag": tag}


@settings(deadline=None)
@given(describe_rows())
@example([])
@example([box_row(0, [0, 0, 0]), box_row(7, [50, 0, 0], 'far "x" \\ \x01 雪 \ud800')])
@example([box_row(10**30, [0, 0, 0.5]), box_row(3, [0.2, 0, -0.5], "table"), box_row(4, [-0.0, 5e-324, 1e9])])
def test_describe_json_bytes_are_json_dumps(rows):
    """`--format json describe` prints the bytes json.dumps writes for the
    rows and edge triples, with and without --relations."""
    scene = parse_scene(json.dumps(rows))
    nodes = [
        {
            "id": n.id,
            "object_tag": n.object_tag,
            "bbox_center": list(n.bbox_center),
            "bbox_extent": list(n.bbox_extent),
        }
        for n in scene.nodes
    ]
    edges = [[s, rel.value, o] for s, rel, o in derive_edges(scene, OracleConfig())]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        for argv, payload in [
            ([], {"nodes": nodes}),
            (["--relations"], {"nodes": nodes, "edges": edges}),
        ]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["--format", "json", "describe", str(path), *argv]) == 0
            assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def far_apart_file(tmp_path, x_cup, x_vase):
    nodes = [
        {"id": i, "bbox_extent": [1, 1, 1], "bbox_center": [x, 0, 0], "object_tag": tag}
        for i, (tag, x) in enumerate([("cup", x_cup), ("vase", x_vase)])
    ]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(nodes), encoding="utf-8")
    return str(path)


class TestFarApartCentres:
    """Centres at opposite ends of the bound are 2e9 m apart; past the
    bound a scene is invalid."""

    def test_ask_relative_position(self, tmp_path, capsys):
        path = far_apart_file(tmp_path, -MAX_COORDINATE, MAX_COORDINATE)
        assert main(["ask", path, "where is the cup with respect to the vase?"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "distance 2e+09" in captured.out
        path = far_apart_file(tmp_path, 0, 1e200)
        assert main(["ask", path, "where is the cup with respect to the vase?"]) == 1
        assert_one_error_line(capsys.readouterr(), "error: invalid scene: node[1].bbox_center: ")

    def test_describe_relations_in_adjacent_cells(self, tmp_path, capsys):
        path = far_apart_file(tmp_path, MAX_COORDINATE - 2, MAX_COORDINATE)
        assert main(["describe", path, "--relations"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.out.endswith("relations:\n  (none)\n")
        path = far_apart_file(tmp_path, 1e200, 1.0000000000001e200)
        assert main(["describe", path, "--relations"]) == 1
        assert_one_error_line(capsys.readouterr(), "error: invalid scene: node[0].bbox_center: ")


def crate_box_file(tmp_path):
    """Two boxes with extents of 1e200: their volumes would overflow."""
    nodes = [
        {"id": 1, "bbox_extent": [1e200, 1e200, 2e200], "bbox_center": [0, 0, 0], "object_tag": "crate"},
        {"id": 2, "bbox_extent": [1e200, 1e200, 1e200], "bbox_center": [5, 0, 0], "object_tag": "box"},
    ]
    path = tmp_path / "crate_box.json"
    path.write_text(json.dumps(nodes), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "query",
    [
        "Which is bigger, the crate (id: 1) or the box (id: 2)?",
        "Which is bigger, the box (id: 2) or the crate (id: 1)?",
    ],
)
def test_size_question_past_the_bound_is_invalid_either_way(tmp_path, capsys, query):
    path = crate_box_file(tmp_path)
    assert main(["ask", path, query]) == 1
    assert_one_error_line(capsys.readouterr(), "error: invalid scene: node[0].bbox_extent: ")
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("2 nodes, 2 issues\n")
    assert "node[0].bbox_extent" in out and "node[1].bbox_extent" in out
    assert main(["describe", path]) == 1
    assert_one_error_line(capsys.readouterr(), "error: invalid scene: node[0].bbox_extent: ")


class TestAsk:
    def test_oracle_backend(self, couch_pillow_file, capsys):
        code = main(["ask", couch_pillow_file, "Is the pillow on top of the white couch?", "--backend", "oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Yes" in out

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_step_header_in_the_query(self, couch_pillow_file, capsys, strict):
        # The oracle echoes the query into STEP1: its "Step 4" opens no step.
        query = "Step 4: is the pillow (id: 27) on top of the white couch (id: 28)?"
        assert main(strict + ["ask", couch_pillow_file, query]) == 0
        assert "answer         : Yes, the pillow (id: 27) is on top of the white couch" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_overlong_id_answered_as_an_absent_id(self, couch_pillow_file, capsys, fmt):
        query = "Is the pillow {} on top of the white couch?"
        absent, overlong = "(id: 99)", "(id: " + "9" * 5000 + ")"
        assert main(fmt + ["ask", couch_pillow_file, query.format(absent)]) == 0
        expected = capsys.readouterr()
        assert main(fmt + ["ask", couch_pillow_file, query.format(overlong)]) == 0
        got = capsys.readouterr()
        assert "not in the scene" in expected.out
        assert got.out == expected.out.replace(absent, overlong)
        assert got.err == expected.err == ""

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_query_naming_one_object(self, couch_pillow_file, capsys, fmt):
        # Only the couch is named: there is nothing to test it against.
        assert main(fmt + ["ask", couch_pillow_file, "What is on top of the white couch?"]) == 0
        out = capsys.readouterr().out
        assert "the query names fewer than two objects of the scene" in out
        assert "not in the scene" not in out

    def test_mock_garbage_exits_3(self, couch_pillow_file, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["garbage with no steps"]), encoding="utf-8")
        code = main(
            ["ask", couch_pillow_file, "anything", "--backend", "mock", "--mock-script", str(script)]
        )
        assert code == 3

    def test_null_reply_exits_3_with_one_line_error(self, couch_pillow_file, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([None]), encoding="utf-8")
        code = main(["ask", couch_pillow_file, "anything", "--backend", "mock", "--mock-script", str(script)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: unparseable response")

    @pytest.mark.parametrize("strict, code", [(False, 0), (True, 3)])
    def test_deeply_nested_final_json(self, couch_pillow_file, tmp_path, capsys, strict, code):
        reply = (
            "STEP1 - inferred_query: where is the pillow\n"
            "STEP2 - relevant_objects: [27]\n"
            "STEP3 - reason for relevance: named\n"
            "STEP4 - Final Answer: here " + '{"a": ' * 3000 + "1" + "}" * 3000 + "\n"
            "STEP-5 - Explanation: done\n"
        )
        script = tmp_path / "script.json"
        script.write_text(json.dumps([reply]), encoding="utf-8")
        flags = ["--strict"] if strict else []
        ask = ["ask", couch_pillow_file, "where is the pillow?", "--backend", "mock", "--mock-script", str(script)]
        assert main(flags + ask) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if strict:
            assert err.startswith("error: unparseable response: STEP4 JSON does not parse")

    @pytest.mark.parametrize("strict, code", [(False, 0), (True, 3)])
    @pytest.mark.parametrize(
        "old, new, note",
        [
            ("[27]", "[27, {n}]", "STEP2 id is too long to read"),
            ('"object_id": 27', '"object_id": {n}', "STEP4 JSON does not parse"),
            ('"object_id": 27', '"object_id": "{n}"', "STEP4 object_id is too long to read"),
        ],
        ids=["step2-list", "step4-number", "step4-string"],
    )
    def test_integer_too_long_to_convert(self, couch_pillow_file, tmp_path, capsys, old, new, note, strict, code):
        reply = (
            "STEP1 - inferred_query: where is the pillow\n"
            "STEP2 - relevant_objects: [27]\n"
            "STEP3 - reason for relevance: named\n"
            'STEP4 - Final Answer: here {"object_tag": "pillow", "object_id": 27}\n'
            "STEP-5 - Explanation: done\n"
        ).replace(old, new.format(n="1" * 4301))
        script = tmp_path / "script.json"
        script.write_text(json.dumps([reply]), encoding="utf-8")
        flags = ["--strict"] if strict else []
        ask = ["ask", couch_pillow_file, "where is the pillow?", "--backend", "mock", "--mock-script", str(script)]
        assert main(flags + ask) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if strict:
            assert captured.err.startswith(f"error: unparseable response: {note}")

    def test_reply_citing_a_pruned_node_is_not_grounded(self, couch_pillow_file, tmp_path, capsys):
        # At a budget of 720 the couch (id 28) is pruned from the prompt.
        reply = (
            "STEP1 - inferred_query: where is the pillow\n"
            "STEP2 - relevant_objects: [27, 28]\n"
            "STEP3 - reason for relevance: named\n"
            'STEP4 - Final Answer: on the couch {"object_tag": "white couch", "object_id": 28}\n'
            "STEP-5 - Explanation: done\n"
        )
        script = tmp_path / "script.json"
        script.write_text(json.dumps([reply, reply]), encoding="utf-8")
        ask = ["ask", couch_pillow_file, "where is the pillow?", "--backend", "mock", "--mock-script", str(script)]
        assert main(["--format", "json"] + ask) == 0
        assert json.loads(capsys.readouterr().out)["grounding_issues"] == []
        assert main(["--format", "json", "--budget", "720"] + ask) == 1
        assert json.loads(capsys.readouterr().out)["grounding_issues"] == [
            "NotInPrompt: id 28 not in the prompt",
            "NotInPrompt: final id 28 not in the prompt",
        ]

    def test_live_wrong_shape_body_exits_2(self, couch_pillow_file, monkeypatch, capsys):
        class WrongShape:
            status_code, text, headers = 200, "", {}

            def json(self):
                return {"choices": None}

        class Session:
            def post(self, *args, **kwargs):
                return WrongShape()

        monkeypatch.setenv("SCENEGPT_API_KEY", "k")
        monkeypatch.setattr("requests.Session", Session)
        assert main(["ask", couch_pillow_file, "where is the pillow?", "--backend", "live"]) == 2
        assert capsys.readouterr().err.startswith("error: unexpected response shape")

    def test_live_huge_retry_after_exits_2(self, couch_pillow_file, monkeypatch, capsys):
        class RateLimited:
            status_code, text, headers = 429, "", {"Retry-After": "1e308"}

        class Session:
            def post(self, *args, **kwargs):
                return RateLimited()

        monkeypatch.setenv("SCENEGPT_API_KEY", "k")
        monkeypatch.setattr("requests.Session", Session)
        assert main(["ask", couch_pillow_file, "where is the pillow?", "--backend", "live"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rate limited (429): the endpoint asks to wait 1e+308 s")
        assert err.count("\n") == 1

    def test_infeasible_budget_exits_1(self, couch_pillow_file, capsys):
        assert main(["--budget", "10", "ask", couch_pillow_file, "where is the pillow?"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_json_matches_answer(self, couch_pillow_file, capsys):
        query = "Which is bigger, the pillow or the white couch?"
        assert main(["--format", "json", "ask", couch_pillow_file, query]) == 0
        payload = json.loads(capsys.readouterr().out)
        scene = parse_scene(Path(couch_pillow_file).read_text(encoding="utf-8"))
        result = answer(scene, query, OracleMockBackend(scene), EvalConfig())
        assert payload["final_object_id"] == result.parsed.final_object_id == 28
        assert payload["final_text"] == result.parsed.final_text

    def test_live_without_key_exits_2(self, couch_pillow_file, monkeypatch):
        monkeypatch.delenv("SCENEGPT_API_KEY", raising=False)
        code = main(["ask", couch_pillow_file, "where is the pillow?", "--backend", "live"])
        assert code == 2

    def test_invalid_scene_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[{", encoding="utf-8")
        assert main(["ask", str(path), "q", "--backend", "oracle"]) == 1

    def test_json_format(self, couch_pillow_file, capsys):
        code = main(
            [
                "--format",
                "json",
                "ask",
                couch_pillow_file,
                "Is the pillow on top of the white couch?",
                "--backend",
                "oracle",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["final_object_id"] == 27
        assert payload["grounding_issues"] == []


def assert_one_error_line(captured, prefix="error: "):
    assert "Traceback" not in captured.err
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "content, message",
    [(None, "No such file"), ("[1,", "Expecting value"), ("5", "expected a list or an object, got int")],
    ids=["missing", "invalid_json", "number"],
)
def test_bad_mock_script_exits_2(couch_pillow_file, tmp_path, capsys, content, message):
    script = tmp_path / "script.json"
    if content is not None:
        script.write_text(content, encoding="utf-8")
    assert main(["ask", couch_pillow_file, "q", "--backend", "mock", "--mock-script", str(script)]) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured, f"error: bad mock script {script}: ")
    assert message in captured.err


@pytest.mark.parametrize("command", ["describe", "validate", "ask", "compact", "repl"])
def test_scene_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[{"id": 0, "object_tag": "caf\xe9"}]')
    assert main([command, str(path)] + (["q"] if command == "ask" else [])) == 2
    assert_one_error_line(capsys.readouterr(), f"error: cannot read {path}: 'utf-8' codec can't decode")


SCENES_PAST_PARSER_LIMITS = {
    "int_coordinate_past_float": (
        json.dumps([box_row(0, [10**400, 0, 0])]),
        "component must be a number within 1e+09 m",
    ),
    "int_past_str_conversion_limit": (
        '[{"id": 0, "bbox_extent": [1, 1, 1], "bbox_center": [0, 0, 0], "object_tag": "box", "note": 1'
        + "0" * 4400
        + "}]",
        "malformed JSON: Exceeds the limit",
    ),
    "nested_too_deep": ("[" * 100_000 + "]" * 100_000, "malformed JSON: maximum recursion depth"),
}


@pytest.mark.parametrize("content, message", SCENES_PAST_PARSER_LIMITS.values(), ids=SCENES_PAST_PARSER_LIMITS)
@pytest.mark.parametrize("command", ["validate", "describe", "ask", "compact"])
def test_scene_past_parser_limits_is_invalid(tmp_path, capsys, command, content, message):
    path = tmp_path / "scene.json"
    path.write_text(content, encoding="utf-8")
    assert main([command, str(path)] + (["q"] if command == "ask" else [])) == 1
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    if command == "validate":
        assert "Traceback" not in captured.err and captured.out.count("\n") == 2
    else:
        assert_one_error_line(captured, "error: invalid scene: ")


class TestRepl:
    def test_quit(self, couch_pillow_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(":quit\n"))
        assert main(["repl", couch_pillow_file]) == 0

    def test_two_queries_stateless(self, couch_pillow_file, capsys, monkeypatch):
        import io

        queries = "Is the pillow on top of the white couch?\nIs the pillow on top of the white couch?\n:quit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(queries))
        assert main(["repl", couch_pillow_file]) == 0
        out = capsys.readouterr().out
        assert out.count("Yes, the pillow") == 2

    def test_mock_list_script_consumed_across_queries(self, couch_pillow_file, tmp_path, capsys, monkeypatch):
        import io

        reply = (
            "STEP1 - inferred_query: {}\nSTEP2 - relevant_objects: []\nSTEP3 - reason for relevance: none\n"
            "STEP4 - Final Answer: none\nSTEP-5 - Explanation: none\n"
        )
        script = tmp_path / "two.json"
        script.write_text(json.dumps([reply.format("first"), reply.format("second")]), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO("q1\n:oracle on\nwhere is the pillow?\n:oracle off\nq2\n:quit\n"))
        assert main(["repl", couch_pillow_file, "--backend", "mock", "--mock-script", str(script)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("inferred query")]
        assert lines[0] == "inferred query : first"
        assert lines[2] == "inferred query : second"
        assert len(lines) == 3


class TestEval:
    def test_oracle_backend_full_marks(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        code = main(
            ["eval", "--backend", "oracle", "--scenes", "3", "--seed", "1", "--out", str(out_dir)]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        for category in ("OnTopOf", "SizeCompare", "Containment", "RelativePosition"):
            row = report["per_category"].get(category)
            if row:
                assert row["incorrect"] == 0 and row["ungrounded"] == 0 and row["unparseable"] == 0
        assert (out_dir / "records.jsonl").exists()
        assert (out_dir / "report.txt").exists()

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["eval", "--backend", "live", "--scenes", "1"], 2, "error: no API key"),
            (["--budget", "50", "eval", "--backend", "oracle", "--scenes", "1"], 1, "error: prompt exceeds token budget"),
        ],
        ids=["live_without_key", "infeasible_budget"],
    )
    def test_failure_exits_with_one_error_line(self, tmp_path, monkeypatch, capsys, argv, code, message):
        monkeypatch.delenv("SCENEGPT_API_KEY", raising=False)
        out_dir = tmp_path / "report"
        assert main(argv + ["--out", str(out_dir)]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out_dir.exists()


    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "report"
        out.write_text("keep me", encoding="utf-8")
        assert main(["eval", "--scenes", "1", "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr(), f"error: cannot write reports to {out}: ")
        assert out.read_text(encoding="utf-8") == "keep me"
        assert sorted(tmp_path.iterdir()) == [out]

    def test_zero_nodes_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--nodes", "0"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "scenequery eval: error: argument --nodes: expected a whole number of at least 1, got '0'"
        )

    def test_negative_scenes_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--scenes", "-3"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "scenequery eval: error: argument --scenes: expected a whole number of at least 0, got '-3'"
        )

    @pytest.mark.parametrize("backend", ["mock", "live"])
    def test_zero_scenes_prints_an_empty_report(self, tmp_path, monkeypatch, capsys, backend):
        monkeypatch.delenv("SCENEGPT_API_KEY", raising=False)
        script = tmp_path / "script.json"
        script.write_text("[]", encoding="utf-8")
        assert main(["eval", "--scenes", "0", "--backend", "oracle"]) == 0
        oracle = capsys.readouterr()
        assert main(["eval", "--scenes", "0", "--backend", backend, "--mock-script", str(script)]) == 0
        assert capsys.readouterr() == oracle
        assert "total queries: 0" in oracle.out


class TestCompact:
    def test_small_scene_no_actions(self, scene_file, capsys):
        assert main(["compact", scene_file, "--query", "where is the vase?"]) == 0
        assert "(none)" in capsys.readouterr().out

    def test_generated_scene_fits_after(self, tmp_path, capsys):
        from scenequery.evalharness import SceneRecipe, generate_scene
        from scenequery.scene_model import ObjectNode, SceneGraph, serialize_scene

        gen = generate_scene(SceneRecipe(seed=0, node_count=150))
        long_caption = "a long descriptive caption " * 10
        nodes = tuple(
            ObjectNode(n.id, n.bbox_extent, n.bbox_center, n.object_tag, long_caption, n.color, n.material)
            for n in gen.scene.nodes
        )
        path = tmp_path / "big.json"
        path.write_text(serialize_scene(SceneGraph(nodes=nodes)), encoding="utf-8")
        code = main(["--budget", "16000", "compact", str(path), "--query", "where is the vase?"])
        assert code == 0
        out = capsys.readouterr().out
        assert "actions:" in out
        assert "(none)" not in out

    @pytest.mark.parametrize(
        "text",
        [
            SAMPLE_SCENE_JSON,
            "[]",
            '[{"id": 3, "bbox_extent": [0.05, 2.675, 999999999.95], "bbox_center": [-0.04, -1e9, 0],'
            ' "object_tag": "caf\u00e9", "score": [1.25, null]}]',
        ],
    )
    def test_estimate_before_is_the_full_scene(self, tmp_path, capsys, text):
        path = tmp_path / "scene.json"
        path.write_text(text, encoding="utf-8")
        assert main(["--format", "json", "compact", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scene_estimate_before"] == estimate_tokens(serialize_scene(parse_scene(text)))

    def test_tiny_budget_infeasible(self, scene_file, capsys):
        code = main(["--budget", "10", "compact", scene_file, "--query", "q"])
        assert code == 1
        assert "budget" in capsys.readouterr().err.lower()


class TestConfig:
    def test_config_file_thresholds(self, couch_pillow_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        # A near threshold below the ~0.46m center distance removes the Near edges.
        config.write_text(json.dumps({"oracle": {"near_threshold": 0.1}}), encoding="utf-8")
        assert main(["--config", str(config), "describe", couch_pillow_file, "--relations"]) == 0
        out = capsys.readouterr().out
        assert "Near" not in out

    def test_bad_config_rejected(self, couch_pillow_file, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"oracle": {"near_threshold": -1}}), encoding="utf-8")
        assert main(["--config", str(config), "validate", couch_pillow_file]) == 2

    def test_near_threshold_past_the_bound_rejected(self, couch_pillow_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"oracle": {"near_threshold": 1e10}}), encoding="utf-8")
        assert main(["--config", str(config), "describe", couch_pillow_file, "--relations"]) == 2
        assert_one_error_line(capsys.readouterr(), "error: bad configuration: near_threshold must be at most 1e+09")
        config.write_text(json.dumps({"oracle": {"near_threshold": MAX_COORDINATE}}), encoding="utf-8")
        assert main(["--config", str(config), "describe", couch_pillow_file, "--relations"]) == 0

    def test_similar_volume_ratio_below_one_rejected(self, tmp_path, capsys):
        # Below 1, two boxes of equal volume were each Smaller than the other.
        scene = tmp_path / "scene.json"
        scene.write_text(
            json.dumps(
                [
                    {"id": 1, "bbox_extent": [1, 1, 2], "bbox_center": [0, 0, 0], "object_tag": "crate"},
                    {"id": 2, "bbox_extent": [2, 1, 1], "bbox_center": [5, 0, 0], "object_tag": "box"},
                ]
            ),
            encoding="utf-8",
        )
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"oracle": {"similar_volume_ratio": 0.5}}), encoding="utf-8")
        query = "Which is bigger, the crate (id: 1) or the box (id: 2)?"
        assert main(["--config", str(config), "ask", str(scene), query]) == 2
        assert_one_error_line(capsys.readouterr(), "error: bad configuration: similar_volume_ratio must be >= 1")
        config.write_text(json.dumps({"oracle": {"similar_volume_ratio": 1}}), encoding="utf-8")
        assert main(["--config", str(config), "ask", str(scene), query]) == 0
        assert "similar" in capsys.readouterr().out.lower()

    def test_zero_budget_flag_rejected(self, couch_pillow_file, capsys):
        assert main(["--budget", "0", "validate", couch_pillow_file]) == 2
        assert_one_error_line(capsys.readouterr(), "error: bad configuration: token budget must be positive")

    @pytest.mark.parametrize("content", ["[1]", '"abc"'])
    def test_config_that_is_not_an_object_rejected(self, couch_pillow_file, tmp_path, capsys, content):
        config = tmp_path / "cfg.json"
        config.write_text(content, encoding="utf-8")
        assert main(["--config", str(config), "validate", couch_pillow_file]) == 2
        assert_one_error_line(capsys.readouterr(), f"error: bad configuration: {config} must hold a JSON object")


    @pytest.mark.parametrize(
        "content, message",
        [
            ({"budget": True}, "budget must be an integer, got True"),
            ({"budget": 900.0}, "budget must be an integer, got 900.0"),
            ({"budget": "900"}, "budget must be an integer, got '900'"),
            ({"strict_parse": "false"}, "strict_parse must be true or false, got 'false'"),
            ({"strict_parse": 0}, "strict_parse must be true or false, got 0"),
        ],
        ids=["budget_bool", "budget_float", "budget_string", "strict_parse_string", "strict_parse_int"],
    )
    def test_config_value_of_the_wrong_type_rejected(self, couch_pillow_file, tmp_path, capsys, content, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(content), encoding="utf-8")
        assert main(["--config", str(config), "ask", couch_pillow_file, "where is the pillow?"]) == 2
        assert_one_error_line(capsys.readouterr(), f"error: bad configuration: {message}")

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), True], ids=["nan", "inf", "-inf", "bool"]
    )
    @pytest.mark.parametrize(
        "section, key",
        [
            ("oracle", "near_threshold"),
            ("oracle", "vertical_gap_tolerance"),
            ("oracle", "similar_volume_ratio"),
            ("llm", "temperature"),
            ("llm", "max_output_tokens"),
            ("llm", "timeout"),
            ("llm", "max_retries"),
        ],
    )
    def test_config_number_that_is_not_finite_rejected(self, couch_pillow_file, tmp_path, capsys, section, key, value):
        config = tmp_path / "cfg.json"
        # json writes NaN and Infinity, and json.load reads them back.
        config.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
        assert main(["--config", str(config), "describe", couch_pillow_file, "--relations"]) == 2
        message = f"error: bad configuration: {key} must be a finite number, got {value!r}"
        assert_one_error_line(capsys.readouterr(), message)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("max_retries", 2.5, "max_retries must be an integer, got 2.5"),
            ("max_retries", 2.0, "max_retries must be an integer, got 2.0"),
            ("max_retries", -1, "max_retries must be >= 0"),
            ("max_output_tokens", 512.5, "max_output_tokens must be an integer, got 512.5"),
            ("max_output_tokens", 0, "max_output_tokens must be >= 1"),
            ("max_output_tokens", -3, "max_output_tokens must be >= 1"),
        ],
    )
    def test_config_count_that_is_not_a_whole_number_rejected(
        self, couch_pillow_file, tmp_path, capsys, monkeypatch, key, value, message
    ):
        # A live ask reads the config before any request is made, so a
        # dummy key and an unreachable local URL are never used.
        monkeypatch.setenv("SCENEGPT_API_KEY", "dummy")
        monkeypatch.setenv("SCENEGPT_API_URL", "http://127.0.0.1:9/v1")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"llm": {key: value}}), encoding="utf-8")
        argv = ["--config", str(config), "ask", couch_pillow_file, "where is the pillow?", "--backend", "live"]
        assert main(argv) == 2
        assert_one_error_line(capsys.readouterr(), f"error: bad configuration: {message}")

    @pytest.mark.parametrize(
        "key, value",
        [("base_url", 5), ("base_url", ["http://127.0.0.1:9/v1"]), ("model_name", None), ("model_name", 4)],
    )
    def test_config_llm_text_that_is_not_a_string_rejected(
        self, couch_pillow_file, tmp_path, capsys, monkeypatch, key, value
    ):
        # Rejected before any request; were it not, one would go to an
        # unreachable local URL.
        monkeypatch.setenv("SCENEGPT_API_KEY", "dummy")
        monkeypatch.delenv("SCENEGPT_API_URL", raising=False)
        config = tmp_path / "cfg.json"
        llm_section = {"base_url": "http://127.0.0.1:9/v1", "max_retries": 0, key: value}
        config.write_text(json.dumps({"llm": llm_section}), encoding="utf-8")
        argv = ["--config", str(config), "ask", couch_pillow_file, "where is the pillow?", "--backend", "live"]
        assert main(argv) == 2
        assert_one_error_line(capsys.readouterr(), f"error: bad configuration: {key} must be a string, got {value!r}")

    def test_config_unknown_top_level_key_rejected(self, couch_pillow_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"budget": 900, "budjet": 900}), encoding="utf-8")
        assert main(["--config", str(config), "validate", couch_pillow_file]) == 2
        captured = capsys.readouterr()
        # Only the key name: TypeError's wording varies across Python versions.
        assert_one_error_line(captured, "error: bad configuration: ")
        assert "'budjet'" in captured.err

    def test_config_value_overridden_by_a_flag_still_checked(self, couch_pillow_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"budget": "900", "strict_parse": True}), encoding="utf-8")
        assert main(["--config", str(config), "--budget", "800", "validate", couch_pillow_file]) == 2
        assert_one_error_line(capsys.readouterr(), "error: bad configuration: budget must be an integer, got '900'")

    @pytest.mark.parametrize("budget", [0, -5])
    def test_config_budget_that_is_not_positive_rejected(self, couch_pillow_file, tmp_path, capsys, budget):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"budget": budget}), encoding="utf-8")
        assert main(["--config", str(config), "validate", couch_pillow_file]) == 2
        assert_one_error_line(capsys.readouterr(), "error: bad configuration: token budget must be positive")

    def test_env_api_url_beats_config_file(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"llm": {"base_url": "http://file.test/v1"}}), encoding="utf-8")
        args = build_parser().parse_args(["validate", "scene.json"])
        monkeypatch.delenv("SCENEGPT_API_URL", raising=False)
        assert cli.load_config(str(config), args).llm.resolved_base_url() == "http://file.test/v1"
        monkeypatch.setenv("SCENEGPT_API_URL", "http://env.test/v1")
        assert cli.load_config(str(config), args).llm.resolved_base_url() == "http://env.test/v1"

    def test_config_budget_and_strict_parse_read(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"budget": 900, "strict_parse": True}), encoding="utf-8")
        cfg = cli.load_config(str(config), build_parser().parse_args(["validate", "scene.json"]))
        assert (cfg.budget, cfg.strict_parse) == (900, True)


def test_consecutive_calls_share_no_state(couch_pillow_file, tmp_path, monkeypatch, capsys):
    """The parser is built once per process. Each call still parses as a
    fresh parser would and prints what it prints on its own."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["garbage with no steps"]), encoding="utf-8")
    runs = [
        [
            *("--format", "json", "--budget", "900", "--strict"),
            *("ask", couch_pillow_file, "Is the pillow on top of the white couch?"),
        ],
        ["describe", couch_pillow_file, "--relations"],
        ["ask", couch_pillow_file, "q", "--backend", "mock", "--mock-script", str(script)],
        ["eval", "--scenes", "1", "--nodes", "3", "--layout", "Stacks"],
        ["--format", "json", "compact", couch_pillow_file, "--query", "where is the pillow?"],
        ["validate", couch_pillow_file],
    ]
    namespaces = []
    load_config = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path, args: namespaces.append(vars(args)) or load_config(path, args))
    results = []
    for argv in runs + runs[::-1]:
        code = main(argv)
        results.append((code, capsys.readouterr()))
    assert results == results[::-1]
    assert [code for code, _ in results[: len(runs)]] == [0, 0, 3, 0, 0, 0]
    for argv, namespace in zip(runs + runs[::-1], namespaces):
        assert namespace == vars(build_parser().parse_args(argv))


def two_node_file(tmp_path, tag):
    nodes = [box_row(1, [0.0, 0.0, 0.75], tag), box_row(2, [0.0, 0.0, 0.25], "base")]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(nodes), encoding="utf-8")
    return str(path)


def test_same_object_on_top_of_itself_is_no(tmp_path, capsys):
    path = two_node_file(tmp_path, "cup")
    assert main(["--format", "json", "ask", path, "Is the cup (id: 1) on top of the cup (id: 1)?"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["final_text"].startswith("No")
    assert payload["final_object_id"] == 1


def test_quoted_tag_gives_valid_final_json(tmp_path, capsys):
    path = two_node_file(tmp_path, '12" tv')
    assert main(["--format", "json", "ask", path, 'Is the 12" tv (id: 1) on top of the base (id: 2)?']) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["final_object_tag"], payload["final_object_id"]) == ('12" tv', 1)
    assert payload["grounding_issues"] == []


HOSTILE = {
    "surrogate tag": ("\ud800", "Is the \ud800 (id: 1) on top of the base (id: 2)?"),
    "quoted tag": ('12" tv', 'Can the 12" tv (id: 1) contain the base (id: 2)?'),
    "same-id query": ("cup", "Is the cup (id: 1) on top of the cup (id: 1)?"),
    "non-ASCII tag": ("tête-à-tête", "Is the tête-à-tête (id: 1) on top of the base (id: 2)?"),
}


@pytest.mark.parametrize("command", ["describe", "ask", "repl"])
@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_exits_cleanly_in_text_format(tmp_path, monkeypatch, case, command):
    """Text output goes to a strict UTF-8 stdout, as on a terminal: a
    character it cannot encode is escaped, any other is written as is."""
    tag, query = HOSTILE[case]
    path = two_node_file(tmp_path, tag)
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr("sys.stdout", stdout)
    monkeypatch.setattr("sys.stdin", io.StringIO(query + "\n:quit\n"))
    argv = {"describe": ["describe", path, "--relations"], "ask": ["ask", path, query], "repl": ["repl", path]}
    assert main(argv[command]) in range(4)
    stdout.flush()
    out = stdout.buffer.getvalue().decode("utf-8")
    assert tag.encode("utf-8", "backslashreplace").decode("utf-8") in out


def test_import_leaves_requests_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, scenequery.cli; sys.exit('requests' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}).returncode == 0


def test_import_leaves_the_thread_pool_unloaded():
    # Only run_eval's pool branch needs concurrent.futures, which loads
    # logging and queue with it.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, scenequery.cli, scenequery.evalharness\n"
        "sys.exit(sorted({'concurrent.futures', 'logging'} & set(sys.modules)) or None)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


class ClosedStdout:
    """A stdout whose reader has gone, on the descriptor `fd`: a write, or
    the flush of buffered output, raises BrokenPipeError."""

    def __init__(self, fd: int, fail_on: str):
        self.fd, self.fail_on = fd, fail_on

    def write(self, text: str) -> int:
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self) -> None:
        if self.fail_on == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [
        ["describe", "SCENE", "--relations"],
        ["--format", "json", "describe", "SCENE", "--relations"],
        ["--format", "json", "ask", "SCENE", "Is the pillow (id: 27) on top of the white couch (id: 28)?"],
        ["validate", "SCENE"],
    ],
)
def test_closed_stdout_exits_2_quietly(couch_pillow_file, tmp_path, monkeypatch, argv, fail_on):
    """Output into a pipe whose reader has closed (`| head`) exits 2, prints
    nothing to stderr, and leaves stdout's descriptor on os.devnull, so the
    interpreter's flush at exit has nowhere to fail."""
    stderr = io.StringIO()
    with open(tmp_path / "stdout.txt", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedStdout(fh.fileno(), fail_on))
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main([couch_pillow_file if a == "SCENE" else a for a in argv]) == 2
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert stderr.getvalue() == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_pipe_exits_2_without_traceback(tmp_path, fmt):
    """The installed entry point's path end to end: the read end of stdout
    is closed before the command writes, and a 1,200-node describe is
    larger than a pipe's buffer, so the write fails either way."""
    rows = [
        {"id": i, "bbox_extent": [0.5, 0.5, 0.5], "bbox_center": [float(i % 40), float(i // 40), 0.25], "object_tag": "box"}
        for i in range(1200)
    ]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys; from scenequery.cli import main; sys.exit(main())"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "--format", fmt, "describe", str(path), "--relations"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
