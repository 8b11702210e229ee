import json
import re
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from scenequery import parsing
from scenequery.llm import oracle_backed_mock
from scenequery.oracle import QueryCategory, StructuredQuery
from scenequery.parsing import (
    IssueKind,
    ParsedResponse,
    UnparseableResponse,
    extract_json_block,
    parse_response,
    validate_grounding,
)
from scenequery.scene_model import parse_scene

WELL_FORMED = """\
STEP1 - inferred_query: find the vase
STEP2 - relevant_objects: [0, 5]
STEP3 - reason for relevance: the vase is named; the mirror is nearby
STEP4 - Final Answer: The vase is at the south wall. {"object_tag": "vase", "object_id": 0}
STEP-5 - Explanation: the vase matches the query directly.
"""


class TestParseResponse:
    def test_well_formed(self):
        parsed = parse_response(WELL_FORMED)
        assert parsed.inferred_query == "find the vase"
        assert parsed.relevant_object_ids == (0, 5)
        assert "nearby" in parsed.relevance_reason
        assert parsed.final_object_tag == "vase"
        assert parsed.final_object_id == 0
        assert "matches the query" in parsed.explanation
        assert parsed.notes == ()
        assert parsed.raw == WELL_FORMED

    def test_empty_string_unparseable(self):
        with pytest.raises(UnparseableResponse):
            parse_response("")

    def test_garbage_unparseable_carries_raw(self):
        with pytest.raises(UnparseableResponse) as exc:
            parse_response("total nonsense with no structure")
        assert exc.value.raw == "total nonsense with no structure"

    def test_hyphen_variant_step5(self):
        text = WELL_FORMED.replace("STEP-5 - Explanation:", "STEP-5 - Explanation:")
        parsed = parse_response(text)
        assert "matches the query" in parsed.explanation

    def test_case_insensitive_headers(self):
        text = WELL_FORMED.lower()
        parsed = parse_response(text)
        assert parsed.final_object_id == 0

    def test_spacing_variants(self):
        text = WELL_FORMED.replace("STEP1", "STEP 1").replace("STEP2", "Step - 2")
        parsed = parse_response(text)
        assert parsed.relevant_object_ids == (0, 5)

    def test_missing_step4_json_is_soft(self):
        text = WELL_FORMED.replace(' {"object_tag": "vase", "object_id": 0}', "")
        parsed = parse_response(text)
        assert parsed.final_object_id is None
        assert any(n.kind is IssueKind.MISSING_STEP and n.step == 4 for n in parsed.notes)

    def test_missing_step_noted(self):
        text = "STEP1 - inferred_query: hm\nSTEP4 - Final Answer: no idea\n"
        parsed = parse_response(text)
        missing = {n.step for n in parsed.notes if n.kind is IssueKind.MISSING_STEP}
        assert {2, 3, 5} <= missing

    def test_code_fenced_json(self):
        text = WELL_FORMED.replace(
            '{"object_tag": "vase", "object_id": 0}',
            '```json\n{"object_tag": "vase", "object_id": 0}\n```',
        )
        parsed = parse_response(text)
        assert parsed.final_object_id == 0

    def test_strict_mode_rejects_missing_json(self):
        text = WELL_FORMED.replace(' {"object_tag": "vase", "object_id": 0}', "")
        with pytest.raises(UnparseableResponse):
            parse_response(text, strict=True)

    def test_strict_mode_accepts_well_formed(self):
        assert parse_response(WELL_FORMED, strict=True).final_object_id == 0

    def test_string_object_id_coerced(self):
        text = WELL_FORMED.replace('"object_id": 0', '"object_id": "0"')
        assert parse_response(text).final_object_id == 0

    def test_never_throws_unexpectedly(self):
        corpus = [
            "STEP1",
            "STEP1 - x\nSTEP2 - [1,2,",
            "step 3 only: something",
            "STEP4 - Final Answer: {broken",
            "STEP2 - relevant_objects: no list here",
            "\x00\x01 STEP1 - binary-ish",
        ]
        for text in corpus:
            parsed = parse_response(text)
            assert isinstance(parsed, ParsedResponse)
        # A null content field reaches the parser as None.
        with pytest.raises(UnparseableResponse) as exc:
            parse_response(None)
        assert exc.value.raw == ""


class TestExtractJsonBlock:
    def test_simple(self):
        assert extract_json_block('answer: {"object_id": 3, "object_tag": "mirror"} done') == {
            "object_id": 3,
            "object_tag": "mirror",
        }

    def test_first_of_two(self):
        text = '{"a": 1} and later {"b": 2}'
        assert extract_json_block(text) == {"a": 1}

    def test_broken(self):
        assert extract_json_block("{broken") is None

    def test_nested(self):
        assert extract_json_block('x {"a": {"b": 2}} y') == {"a": {"b": 2}}

    def test_braces_inside_strings(self):
        assert extract_json_block('{"a": "has } brace"}') == {"a": "has } brace"}

    def test_skips_invalid_then_finds_valid(self):
        assert extract_json_block("{not json} then {\"ok\": true}") == {"ok": True}

    def test_no_object(self):
        assert extract_json_block("plain text") is None

    def test_stray_braces_before_object(self):
        assert extract_json_block("{ " * 300 + '{"object_id": 3}') == {"object_id": 3}

    def test_nesting_past_recursion_limit_is_malformed(self):
        assert extract_json_block(DEEP) is None


def scanning_extract_json_block(text):
    """Reference: match braces string-aware from each "{", then json.loads."""
    for start, ch in enumerate(text):
        if ch != "{":
            continue
        depth = 0
        in_string = False
        escaped = False
        for end in range(start, len(text)):
            c = text[end]
            if in_string:
                if escaped:
                    escaped = False
                elif c == "\\":
                    escaped = True
                elif c == '"':
                    in_string = False
                continue
            if c == '"':
                in_string = True
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    try:
                        value = json.loads(text[start : end + 1])
                    except json.JSONDecodeError:
                        break
                    if isinstance(value, dict):
                        return value
                    break
    return None


json_ish = st.one_of(
    st.text(alphabet='{}[]":,\\ ab01-.e\n\t\r\x0b\xa0', max_size=60),
    st.lists(
        st.sampled_from(
            ["{", "}", '"', '\\"', '{"a": 1}', '{"a": {"b": [1, "}"]}}', '{"x": ', "[", "]", ": ", ", ", "1", "NaN", " ", "text"]
        ),
        max_size=20,
    ).map("".join),
)


@given(json_ish)
@example('x {"a": "has } brace"} {"b": 2}')
@example('{"a": {"b": 1}, } {"c": 2}')
@example('{"a": "\\"{"} }')
@example('{\x0b"a": 1} {\t\r\n "b": 2}')
def test_extract_json_block_matches_scanner(text):
    assert extract_json_block(text) == scanning_extract_json_block(text)


DEEP = '{"a": ' * 3000 + "1" + "}" * 3000
DEEP_REPLY = WELL_FORMED.replace('{"object_tag": "vase", "object_id": 0}', DEEP)


class TestDeepNesting:
    def test_lenient_notes_malformed_json(self):
        parsed = parse_response(DEEP_REPLY)
        assert parsed.final_object_id is None
        assert [(n.kind, n.step) for n in parsed.notes] == [(IssueKind.MALFORMED_JSON, 4)]

    def test_strict_rejects(self):
        with pytest.raises(UnparseableResponse):
            parse_response(DEEP_REPLY, strict=True)


def _every_id(scene):
    return tuple(n.id for n in scene.nodes)


class TestValidateGrounding:
    def test_clean(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        parsed = parse_response(WELL_FORMED)
        assert validate_grounding(parsed, scene, _every_id(scene)) == []

    def test_unknown_id(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        text = WELL_FORMED.replace("[0, 5]", "[0, 99]")
        issues = validate_grounding(parse_response(text), scene, _every_id(scene))
        assert [i.kind for i in issues] == [IssueKind.UNKNOWN_ID]
        assert "99" in issues[0].detail

    def test_too_many_relevant(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        text = WELL_FORMED.replace("[0, 5]", "[0, 5, 5]")
        issues = validate_grounding(parse_response(text), scene, _every_id(scene))
        assert any(i.kind is IssueKind.TOO_MANY_RELEVANT for i in issues)

    def test_tag_mismatch(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        text = WELL_FORMED.replace('"object_tag": "vase"', '"object_tag": "couch"')
        issues = validate_grounding(parse_response(text), scene, _every_id(scene))
        assert [i.kind for i in issues] == [IssueKind.TAG_MISMATCH]

    def test_tag_match_case_insensitive(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        text = WELL_FORMED.replace('"object_tag": "vase"', '"object_tag": "VASE"')
        assert validate_grounding(parse_response(text), scene, _every_id(scene)) == []

    def test_id_left_out_of_the_prompt(self, sample_scene_json):
        # Ids 0 and 5 are in the scene; the prompt kept only 5. An id in
        # neither is still UnknownId, and a pruned final id gets no tag check.
        scene = parse_scene(sample_scene_json)
        text = WELL_FORMED.replace("[0, 5]", "[0, 99]").replace('"object_tag": "vase"', '"object_tag": "couch"')
        issues = validate_grounding(parse_response(text), scene, (5,))
        assert [str(i) for i in issues] == [
            "NotInPrompt: id 0 not in the prompt",
            "UnknownId: id 99 not in scene",
            "NotInPrompt: final id 0 not in the prompt",
        ]
        assert validate_grounding(parse_response(WELL_FORMED), scene, (0, 5)) == []

    def test_issues_sorted_by_step(self, sample_scene_json):
        scene = parse_scene(sample_scene_json)
        text = WELL_FORMED.replace("[0, 5]", "[7, 8, 9]").replace('"object_id": 0', '"object_id": 42')
        issues = validate_grounding(parse_response(text), scene, _every_id(scene))
        assert [i.step for i in issues] == sorted(i.step for i in issues)


# One digit past Python's default limit on int/str conversion (4,300 digits).
LONG_INT = "1" * 4301
LONG_ID_REPLIES = {
    "step2-list": WELL_FORMED.replace("[0, 5]", f"[0, {LONG_INT}]"),
    "step4-number": WELL_FORMED.replace('"object_id": 0', f'"object_id": {LONG_INT}'),
    "step4-string": WELL_FORMED.replace('"object_id": 0', f'"object_id": "{LONG_INT}"'),
}


@pytest.mark.parametrize("name, step", [("step2-list", 2), ("step4-number", 4), ("step4-string", 4)])
def test_integer_too_long_to_convert_is_malformed(name, step):
    parsed = parse_response(LONG_ID_REPLIES[name])
    assert [(n.kind, n.step) for n in parsed.notes] == [(IssueKind.MALFORMED_JSON, step)]
    if step == 2:
        assert parsed.relevant_object_ids == () and parsed.final_object_id == 0
    else:
        assert parsed.relevant_object_ids == (0, 5) and parsed.final_object_id is None
    with pytest.raises(UnparseableResponse):
        parse_response(LONG_ID_REPLIES[name], strict=True)


reply_piece = st.one_of(
    st.text(max_size=30),
    st.sampled_from(
        [
            "STEP1 - inferred_query: ", "STEP2 - relevant_objects: ", "STEP3 - reason for relevance: ",
            "STEP4 - Final Answer: ", "STEP-5 - Explanation: ", "step 4:", "\n", "[", "]", "{", "}", ", ", '"',
            '{"object_tag": "vase", "object_id": ', '"object_id": "', "-7", "0", "null", LONG_INT,
        ]
    ),
)


@given(st.one_of(st.text(max_size=300), st.lists(reply_piece, max_size=25).map("".join)), st.booleans())
@example(LONG_ID_REPLIES["step2-list"], False)
@example(LONG_ID_REPLIES["step4-number"], False)
@example(LONG_ID_REPLIES["step4-string"], False)
def test_total_over_arbitrary_input(text, strict):
    """Any string either parses or raises the single Unparseable error."""
    try:
        parsed = parse_response(text, strict=strict)
    except UnparseableResponse:
        return
    assert isinstance(parsed, ParsedResponse)


def test_render_parse_inverse(couch_pillow_scene):
    """Structured fields survive a mock render -> parse round trip."""
    cases = [
        (StructuredQuery(QueryCategory.ON_TOP_OF, 27, 28, "q1"), 27),
        (StructuredQuery(QueryCategory.SIZE_COMPARE, 28, 27, "q2"), 28),
        (StructuredQuery(QueryCategory.CONTAINMENT, 28, 27, "q3"), 28),
        (StructuredQuery(QueryCategory.RELATIVE_POSITION, 27, 28, "q4"), 27),
    ]
    for query, expected_id in cases:
        parsed = parse_response(oracle_backed_mock(couch_pillow_scene, query))
        assert parsed.final_object_id == expected_id
        assert set(parsed.relevant_object_ids) == {27, 28}
        assert parsed.final_object_tag == couch_pillow_scene.node(expected_id).object_tag
        assert query.text in parsed.inferred_query


# The step splitter before the reply text was folded: every pattern matched
# under re.IGNORECASE. parse_response must split every text as it does.
_REFERENCE_HEADER = re.compile(r"step\s*-?\s*([1-5])\s*[-:.]?", re.IGNORECASE)
_REFERENCE_LABELS = {
    1: re.compile(r"^\s*inferred_query\s*:?", re.IGNORECASE),
    2: re.compile(r"^\s*relevant_objects\s*:?", re.IGNORECASE),
    3: re.compile(r"^\s*reason for relevance\s*:?", re.IGNORECASE),
    4: re.compile(r"^\s*final answer\s*:?", re.IGNORECASE),
    5: re.compile(r"^\s*explanation\s*:?", re.IGNORECASE),
}


def reference_split_steps(text: str) -> dict[int, str]:
    matches = list(_REFERENCE_HEADER.finditer(text))
    sections: dict[int, str] = {}
    for i, m in enumerate(matches):
        step = int(m.group(1))
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        body = text[m.end() : end]
        label = _REFERENCE_LABELS.get(step)
        if label:
            body = label.sub("", body, count=1)
        if step not in sections:  # first occurrence wins
            sections[step] = body.strip()
    return sections


# Each character as itself, upper-cased, or as a character re.IGNORECASE
# matches to it.
_CASE_VARIANTS = {"i": "iIıİ", "s": "sSſ"}


def cased(word: str):
    return st.tuples(*(st.sampled_from(_CASE_VARIANTS.get(c, c + c.upper())) for c in word)).map("".join)


LABELS = ["inferred_query", "relevant_objects", "reason for relevance", "final answer", "explanation"]
header = st.builds(
    "".join,
    st.tuples(
        cased("step"),
        st.sampled_from(["", " ", "-", " - ", "--", "\xa0", "\x1c", "\u2028", "\n"]),
        st.sampled_from(["1", "2", "3", "4", "5", "0", "6", "12", "-5", "x"]),
        st.sampled_from(["", ":", ".", "-", " - ", " :", "\u2028", "\t"]),
    ),
)
label = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", " ", "\xa0", "\x1c", "\n"]),
        st.sampled_from(LABELS).flatmap(cased),
        st.sampled_from(["", ":", " :", "\u2028:", "tep 3", "tep"]),
    ),
)
fold_piece = st.sampled_from(
    ["ſ", "ı", "İ", "\u212a", "\x1c", "\xa0", "\u2028", "ß", "Σ", "ﬅ", "step", "tep", "relevant_object"]
)
id_piece = st.sampled_from(["(id: 7)", "(ID=3)", "ıd 4", "İD:5", "( id : 9 )", "id", LONG_INT, "[27, 28]", " "])
json_piece = st.sampled_from(['{"object_tag": "vase", "object_id": 0}', '{"object_id": "12"}', "{", "}", "\n"])
reply_text = st.lists(
    st.one_of(header, label, fold_piece, id_piece, json_piece, st.text(max_size=8)), max_size=30
).map("".join)


def parse_outcome(text, strict):
    try:
        return parse_response(text, strict=strict)
    except UnparseableResponse as exc:
        return ("unparseable", str(exc), exc.raw)


@given(reply_text, st.booleans())
@example("ſtep 1 ınferred_query: q step 2 relevant_objects: [1] STEP 4 fİnal answer {\"object_id\": 1}", False)
@example("STEP1 - explanation: not a label of step 1\nSTEP5 - Explanation: done", False)
@example("step 2 - relevant_objectstep 3: reason for relevance: r", False)
@example("step 4: first {\"object_id\": 1}\nstep 4: second {\"object_id\": 2}\nstep2 [3]", True)
@example("STEP\u212a4: final answer {\"object_id\": 1}", False)
def test_parse_matches_the_reference_split(text, strict):
    """Every field, note and strict-mode error is what the reference
    splitter gives."""
    got = parse_outcome(text, strict)
    with mock.patch.object(parsing, "_split_steps", reference_split_steps):
        expected = parse_outcome(text, strict)
    assert got == expected


COUCH_PILLOW = parse_scene(
    json.dumps(
        [
            {"id": 27, "bbox_extent": [0.7, 0.6, 0.3], "bbox_center": [2.9, 2.5, -0.8], "object_tag": "pillow"},
            {"id": 28, "bbox_extent": [1.0, 0.9, 0.6], "bbox_center": [2.8, 2.3, -1.2], "object_tag": "white couch"},
        ]
    )
)


@given(st.lists(st.one_of(header, label, fold_piece, id_piece, st.text(max_size=8)), max_size=12).map("".join))
@example("Step 4: is the pillow (id: 27) on top of the white couch (id: 28)?")
@example("ſTEP-5 explanation: and STEP 2: [1, 2, 3]")
def test_mock_echo_opens_no_step(text):
    """The oracle's reply echoes the query into STEP1, and no step header
    in the query opens a step of its own."""
    query = StructuredQuery(QueryCategory.ON_TOP_OF, 27, 28, text)
    parsed = parse_response(oracle_backed_mock(COUCH_PILLOW, query), strict=True)
    assert parsed.final_object_id == 27 and parsed.relevant_object_ids == (27, 28)
    echoed = parsed.inferred_query.replace("\u200b", "")
    assert echoed == f"OnTopOf query: {text or '(no text)'}".strip().replace("\u200b", "")
