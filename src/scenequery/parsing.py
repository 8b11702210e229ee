"""Parsing of the five-step structured response and grounding checks.

Model outputs are expected to follow the STEP1..STEP5 layout from the
system prompt, but real outputs drift (hyphenated "STEP-5", case
changes, extra whitespace, prose around the final JSON), so matching is
lenient by default. A strict mode is available for evaluation runs.

Step headers and their labels match case-insensitively, as
`re.IGNORECASE` matches them: U+0130 and U+0131 count as "i" and U+017F
as "s". The text is folded once (`fold_case`) and scanned with
case-sensitive patterns; every field is sliced from the original text.

`ParsedResponse` and `GroundingIssue` are NamedTuples: immutable, cheap to
build, and equal to the tuple of their fields.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from typing import Collection, NamedTuple, Optional

from .scene_model import SceneGraph


class IssueKind(str, Enum):
    UNKNOWN_ID = "UnknownId"
    NOT_IN_PROMPT = "NotInPrompt"
    TOO_MANY_RELEVANT = "TooManyRelevant"
    TAG_MISMATCH = "TagMismatch"
    MISSING_STEP = "MissingStep"
    MALFORMED_JSON = "MalformedJson"


class GroundingIssue(NamedTuple):
    kind: IssueKind
    detail: str
    step: int = 0

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.detail}"


class UnparseableResponse(ValueError):
    """No step structure found at all. Carries the raw text for logging."""

    def __init__(self, raw: str, reason: str = "no step headers found"):
        self.raw = raw
        super().__init__(reason)


class ParsedResponse(NamedTuple):
    inferred_query: str
    relevant_object_ids: tuple[int, ...]
    relevance_reason: str
    final_text: str
    final_object_tag: str
    final_object_id: Optional[int]
    explanation: str
    raw: str
    notes: tuple[GroundingIssue, ...] = ()


# Outside A-Z, re.IGNORECASE matches four characters to an ASCII letter:
# U+0130 and U+0131 to "i", U+017F to "s" and U+212A to "k", which
# str.lower() maps to "k" itself. Folding the other three and lowering the
# text lets case-sensitive patterns match what the flag would; the flag
# changes nothing else these patterns match. U+0130 is the one character
# str.lower() lengthens, so once it is folded each index into the folded
# text is an index into the original.
_FOLD = {0x130: "i", 0x131: "i", 0x17F: "s"}

# A step header, an empty group marking where it ends, then optionally the
# label of any step: groups 3-7 are the labels of steps 1-5. A label is
# stripped only under its own step. The lookahead keeps the final "s" of
# "relevant_objects" free to open a header ("...objectstep 3").
_STEP = re.compile(
    r"step\s*-?\s*([1-5])\s*[-:.]?()"
    r"(?:\s*(?:(inferred_query)|(relevant_object(?!step\s*-?\s*[1-5])s)|(reason for relevance)"
    r"|(final answer)|(explanation))\s*:?)?"
)
_BRACKET_LIST = re.compile(r"\[([^\]]*)\]")
_INT = re.compile(r"-?\d+")


_DECODER = json.JSONDecoder()
# A JSON object opens with "{", optional JSON whitespace, then a key or "}".
_OBJECT_START = re.compile(r'\{[ \t\n\r]*["}]')


def extract_json_block(text: str) -> Optional[dict]:
    """First valid JSON object in the text.

    Decodes at each "{" that can open an object, in turn, so prose and
    code fences around the object don't matter, and a stray "{" costs
    only as far as the decoder reads from it. Returns None when nothing
    valid is found, or when a value nests deeper than the decoder can
    recurse or holds an integer longer than Python converts (4,300
    digits by default): such text is treated as malformed JSON.
    """
    for start in _OBJECT_START.finditer(text):
        try:
            return _DECODER.raw_decode(text, start.start())[0]
        except json.JSONDecodeError:
            continue
        except (RecursionError, ValueError):
            return None
    return None


def fold_case(text: str) -> str:
    """The text lowered, with the characters that `re.IGNORECASE` matches
    to an ASCII letter folded to it; the same length as `text`."""
    return (text if text.isascii() else text.translate(_FOLD)).lower()


def _split_steps(text: str) -> dict[int, str]:
    matches = list(_STEP.finditer(fold_case(text)))
    sections: dict[int, str] = {}
    for i, m in enumerate(matches):
        step = int(m[1])
        if step in sections:  # first occurrence wins
            continue
        start = m.end() if m.lastindex == step + 2 else m.end(2)
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        sections[step] = text[start:end].strip()
    return sections


def break_step_headers(text: str) -> str:
    """The text with a zero-width space (U+200B) after the "step" of each
    step header in it, so that a reply quoting it opens no step there.
    Text without a header comes back unchanged."""
    folded = fold_case(text)
    if "step" not in folded:
        return text
    cuts = [m.start() + 4 for m in _STEP.finditer(folded)]
    return "\u200b".join(text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)]))


def parse_response(text: str, strict: bool = False) -> ParsedResponse:
    """Extract the five structured fields from a model response.

    Lenient mode records soft problems (missing steps, absent final
    JSON) as notes instead of failing; strict mode turns them into
    UnparseableResponse. A text with no recognizable step headers is
    always UnparseableResponse, and so is a reply that is not a string
    at all (an endpoint's null content, say), whose `raw` is then "".
    """
    if not isinstance(text, str):
        raise UnparseableResponse("", f"response is {type(text).__name__}, not text")
    sections = _split_steps(text)
    if not sections:
        raise UnparseableResponse(text)

    notes: list[GroundingIssue] = []
    for step in range(1, 6):
        if step not in sections:
            notes.append(GroundingIssue(IssueKind.MISSING_STEP, f"STEP{step} not found", step=step))
            sections[step] = ""

    ids: tuple[int, ...] = ()
    step2 = sections[2]
    bracket = _BRACKET_LIST.search(step2)
    if bracket:
        try:
            ids = tuple(int(m) for m in _INT.findall(bracket.group(1)))
        except ValueError:  # an integer longer than Python converts
            notes.append(GroundingIssue(IssueKind.MALFORMED_JSON, "STEP2 id is too long to read", step=2))
    elif step2:
        notes.append(GroundingIssue(IssueKind.MALFORMED_JSON, "STEP2 has no bracketed id list", step=2))

    final_section = sections[4]
    final_json = extract_json_block(final_section)
    final_tag = ""
    final_id: Optional[int] = None
    if final_json is None:
        if final_section and "{" in final_section:
            notes.append(GroundingIssue(IssueKind.MALFORMED_JSON, "STEP4 JSON does not parse", step=4))
        else:
            notes.append(GroundingIssue(IssueKind.MISSING_STEP, "STEP4 JSON answer absent", step=4))
    else:
        tag = final_json.get("object_tag")
        obj_id = final_json.get("object_id")
        if isinstance(tag, str):
            final_tag = tag
        if isinstance(obj_id, int) and not isinstance(obj_id, bool):
            final_id = obj_id
        elif isinstance(obj_id, str) and _INT.fullmatch(obj_id.strip()):
            try:
                final_id = int(obj_id)
            except ValueError:  # an integer longer than Python converts
                notes.append(GroundingIssue(IssueKind.MALFORMED_JSON, "STEP4 object_id is too long to read", step=4))

    if strict and notes:
        raise UnparseableResponse(text, "; ".join(n.detail for n in notes))

    return ParsedResponse(
        inferred_query=sections[1],
        relevant_object_ids=ids,
        relevance_reason=sections[3],
        final_text=final_section,
        final_object_tag=final_tag,
        final_object_id=final_id,
        explanation=sections[5],
        raw=text,
        notes=tuple(notes),
    )


def _id_issue(
    obj_id: int, scene: SceneGraph, in_prompt: Collection[int], what: str, step: int
) -> Optional[GroundingIssue]:
    """UnknownId for an id outside the scene, NotInPrompt for one the
    prompt left out, else None."""
    if not scene.has_node(obj_id):
        return GroundingIssue(IssueKind.UNKNOWN_ID, f"{what} {obj_id} not in scene", step=step)
    if obj_id not in in_prompt:
        return GroundingIssue(IssueKind.NOT_IN_PROMPT, f"{what} {obj_id} not in the prompt", step=step)
    return None


def validate_grounding(
    resp: ParsedResponse, scene: SceneGraph, in_prompt: Collection[int]
) -> list[GroundingIssue]:
    """Check the response against the scene it claims to describe and
    against `in_prompt`, the ids of the nodes the prompt showed the
    model.

    Issues are data, not exceptions; an empty list means the answer is
    fully grounded. Ordered by step number.
    """
    issues: list[GroundingIssue] = []

    if len(resp.relevant_object_ids) > 2:
        issues.append(
            GroundingIssue(
                IssueKind.TOO_MANY_RELEVANT,
                f"{len(resp.relevant_object_ids)} relevant ids listed, limit is 2",
                step=2,
            )
        )
    for obj_id in resp.relevant_object_ids:
        issue = _id_issue(obj_id, scene, in_prompt, "id", 2)
        if issue:
            issues.append(issue)

    if resp.final_object_id is not None:
        issue = _id_issue(resp.final_object_id, scene, in_prompt, "final id", 4)
        if issue:
            issues.append(issue)
        elif resp.final_object_tag:
            actual = scene.node(resp.final_object_id).object_tag
            if resp.final_object_tag.lower() != actual.lower():
                issues.append(
                    GroundingIssue(
                        IssueKind.TAG_MISMATCH,
                        f"final tag {resp.final_object_tag!r} != node tag {actual!r}",
                        step=4,
                    )
                )

    issues.sort(key=lambda i: i.step)
    return issues
