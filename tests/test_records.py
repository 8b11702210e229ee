"""The per-query value records: NamedTuples, like ObjectNode and Vec3.

Each record keeps the field names, order and defaults it had as a frozen
dataclass, equals the tuple of its fields, refuses assignment and hashes
by value. EvalRecord stays a frozen dataclass, for `dataclasses.replace`.
"""

import dataclasses

import pytest

from scenequery.evalharness import Answer, EvalRecord
from scenequery.oracle import (
    OracleAnswer,
    QueryCategory,
    RelativePosition,
    SizeComparison,
    SizeOrdering,
    StructuredQuery,
)
from scenequery.parsing import GroundingIssue, IssueKind, ParsedResponse
from scenequery.prompts import PromptBundle
from scenequery.scene_model import Vec3

ISSUE = GroundingIssue(IssueKind.UNKNOWN_ID, "id 9 not in scene", 2)
PARSED = ParsedResponse("q", (1, 2), "named", "Yes {}", "cup", 1, "because", "raw reply", (ISSUE,))

# type -> (field names in order, defaults, the values of a sample record)
RECORDS = {
    PromptBundle: (
        ("system_text", "token_estimate", "included_node_ids", "compaction_report"),
        {},
        ("prompt", 2, (0, 5), ("drop_captions",)),
    ),
    StructuredQuery: (
        ("category", "subject_id", "object_id", "text"),
        {"subject_id": None, "object_id": None, "text": ""},
        (QueryCategory.ON_TOP_OF, 1, 2, "is the cup on the table?"),
    ),
    OracleAnswer: (
        ("supported", "sentence", "explanation", "object_id", "object_tag"),
        {"object_id": None, "object_tag": ""},
        (True, "Yes.", "gap 0", 1, "cup"),
    ),
    SizeComparison: (("ordering", "volume_ratio"), {}, (SizeOrdering.BIGGER, 2.5)),
    RelativePosition: (
        ("delta", "directions", "near", "distance"),
        {},
        (Vec3(1.0, 0.0, 0.0), ("in the positive x direction from",), True, 1.0),
    ),
    ParsedResponse: (
        (
            "inferred_query",
            "relevant_object_ids",
            "relevance_reason",
            "final_text",
            "final_object_tag",
            "final_object_id",
            "explanation",
            "raw",
            "notes",
        ),
        {"notes": ()},
        tuple(PARSED),
    ),
    GroundingIssue: (("kind", "detail", "step"), {"step": 0}, tuple(ISSUE)),
    Answer: (("raw", "parsed", "error", "issues"), {"error": "", "issues": ()}, ("raw reply", PARSED, "", (ISSUE,))),
}

record_types = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def sample(cls):
    return cls(*RECORDS[cls][2])


@record_types
def test_fields_and_defaults(cls):
    names, defaults, _ = RECORDS[cls]
    assert cls._fields == names
    assert cls._field_defaults == defaults
    required = {name: value for name, value in zip(names, RECORDS[cls][2]) if name not in defaults}
    assert cls(**required) == cls(**required, **defaults)


@record_types
def test_equals_the_tuple_of_its_fields(cls):
    values = RECORDS[cls][2]
    record = sample(cls)
    assert record == values and tuple(record) == values
    assert record == cls(**dict(zip(cls._fields, values)))


@record_types
def test_assignment_raises(cls):
    record = sample(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@record_types
def test_replace(cls):
    record = sample(cls)
    name = cls._fields[-1]
    changed = record._replace(**{name: None})
    assert getattr(changed, name) is None and changed[:-1] == record[:-1]
    assert getattr(record, name) is not None


@record_types
def test_equal_records_hash_equal(cls):
    a, b = sample(cls), sample(cls)
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_grounding_issue_str():
    assert str(ISSUE) == "UnknownId: id 9 not in scene"
    assert str(GroundingIssue(IssueKind.MISSING_STEP, "STEP4 JSON answer absent")) == "MissingStep: STEP4 JSON answer absent"


def test_eval_record_stays_a_dataclass():
    record = EvalRecord(1, QueryCategory.ON_TOP_OF, "q", "correct", 1, "cup", "raw")
    flipped = dataclasses.replace(record, verdict="incorrect")
    assert flipped.verdict == "incorrect" and flipped != record
