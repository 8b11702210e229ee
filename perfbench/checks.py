"""Output checks, computed apart from the program under test.

Each check returns a list of error strings; an empty list means the
output passed. Geometry is recomputed here from the input boxes (with
NumPy for the all-pairs edge set) and compared with what the program
printed or returned. No check compares against a stored copy of the
program's own output.

Thresholds are the program's documented defaults: Near within 1.0 m of
centre distance, OnTopOf within a 0.15 m vertical gap, and derived
quantities rounded to 9 decimals before each threshold test.
"""

from __future__ import annotations

import json
import math
import re

NEAR_THRESHOLD = 1.0
GAP_TOLERANCE = 0.15
SNAP_DECIMALS = 9


# --- relations-large ---------------------------------------------------------


def expected_edges(nodes: list[dict]) -> set[tuple[int, str, int]]:
    """All OnTopOf/Near edges of a scene, computed over every ordered pair at once."""
    import numpy as np

    ids = np.array([n["id"] for n in nodes])
    c = np.array([n["bbox_center"] for n in nodes], dtype=float)
    half = np.array([n["bbox_extent"] for n in nodes], dtype=float) * 0.5
    lo, hi = c - half, c + half

    def snap(v):
        return np.round(v, SNAP_DECIMALS)

    # Row a is the subject, column b the object.
    overlap = np.ones((len(nodes), len(nodes)), dtype=bool)
    for axis in (0, 1):
        overlap &= snap(hi[None, :, axis] - lo[:, None, axis]) >= 0
        overlap &= snap(hi[:, None, axis] - lo[None, :, axis]) >= 0
    higher = snap(c[:, None, 2] - c[None, :, 2]) > 0
    resting = snap(np.abs(lo[:, None, 2] - hi[None, :, 2])) <= GAP_TOLERANCE
    d = c[:, None, :] - c[None, :, :]
    near = snap(np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2)) <= NEAR_THRESHOLD
    distinct = ~np.eye(len(nodes), dtype=bool)

    edges = set()
    for rel, mask in (("OnTopOf", overlap & higher & resting & distinct), ("Near", near & distinct)):
        for a, b in zip(*np.nonzero(mask)):
            edges.add((int(ids[a]), rel, int(ids[b])))
    return edges


def edges_of_describe(stdout: str) -> list[tuple[int, str, int]]:
    payload = json.loads(stdout)
    return [(int(s), str(r), int(o)) for s, r, o in payload["edges"]]


def check_relations(nodes: list[dict], stdout: str) -> list[str]:
    """`describe --relations` output against the vectorised edge set, plus Near symmetry."""
    try:
        got_list = edges_of_describe(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"describe output unreadable: {exc}"]
    got = set(got_list)
    errors = []
    if len(got) != len(got_list):
        errors.append(f"{len(got_list) - len(got)} duplicate edges")
    want = expected_edges(nodes)
    missing, extra = want - got, got - want
    if missing:
        errors.append(f"{len(missing)} edges missing, e.g. {sorted(missing)[:3]}")
    if extra:
        errors.append(f"{len(extra)} unexpected edges, e.g. {sorted(extra)[:3]}")
    asym = [(s, o) for s, r, o in got if r == "Near" and (o, "Near", s) not in got]
    if asym:
        errors.append(f"Near is not symmetric for {len(asym)} pairs, e.g. {asym[:3]}")
    return errors


def check_translation(stdout: str, moved_stdout: str) -> list[str]:
    """A grid-exact translation must leave the edge set unchanged."""
    a, b = set(edges_of_describe(stdout)), set(edges_of_describe(moved_stdout))
    if a == b:
        return []
    return [f"translation changed the edge set: {len(a - b)} lost, {len(b - a)} gained"]


# --- geometry shared by the ask and eval checks --------------------------------


def _box(node):
    c, e = node["bbox_center"], node["bbox_extent"]
    return [c[i] - e[i] * 0.5 for i in range(3)], [c[i] + e[i] * 0.5 for i in range(3)]


def rests_on(a: dict, b: dict) -> bool:
    """a's footprint meets b's, a's centre is higher and a's bottom is within the gap tolerance of b's top."""
    (alo, ahi), (blo, bhi) = _box(a), _box(b)
    s = lambda v: round(v, SNAP_DECIMALS)  # noqa: E731
    meets = all(s(bhi[i] - alo[i]) >= 0 and s(ahi[i] - blo[i]) >= 0 for i in (0, 1))
    higher = s(a["bbox_center"][2] - b["bbox_center"][2]) > 0
    return meets and higher and s(abs(alo[2] - bhi[2])) <= GAP_TOLERANCE


def fits_inside(outer: dict, inner: dict) -> bool:
    """Sorted extents of inner strictly below those of outer (axis-permutation rotations)."""
    return all(i < o for i, o in zip(sorted(inner["bbox_extent"]), sorted(outer["bbox_extent"])))


def volume(node: dict) -> float:
    return math.prod(node["bbox_extent"])


_WORD = re.compile(r"[a-z]+")


def yes_no(text: str):
    """True/False from the first whole word yes or no in text; None if neither occurs."""
    for word in _WORD.findall(text.lower()):
        if word == "yes":
            return True
        if word == "no":
            return False
    return None


# --- ask-large ---------------------------------------------------------------

_REF = re.compile(r"the ([a-z ]+?) \(id: (\d+)\)")
SCENE_MARKER = "scene description :"


def expected_answer(nodes_by_id: dict[int, dict], query: str):
    """('bool', value) or ('id', value) for the benchmark's ask templates."""
    (_, a), (_, b) = _REF.findall(query)[:2]
    a, b = nodes_by_id[int(a)], nodes_by_id[int(b)]
    if "on top of" in query:
        return "bool", rests_on(a, b)
    if "contain" in query:
        return "bool", fits_inside(a, b)
    return "id", a["id"] if volume(a) > volume(b) else b["id"]


def prompt_scene(system_text: str) -> list[dict]:
    at = system_text.index(SCENE_MARKER) + len(SCENE_MARKER)
    while system_text[at] != "[":
        at += 1
    value, _ = json.JSONDecoder().raw_decode(system_text, at)
    return value


def check_ask(nodes: list[dict], query: str, budget: int, system_text: str, stdout: str) -> list[str]:
    """Prompt within budget, named objects kept, kept boxes faithful, answer matches geometry."""
    errors = []
    tokens = math.ceil(len(system_text) / 4)
    if tokens > budget:
        errors.append(f"prompt estimate {tokens} tokens exceeds budget {budget}")
    by_id = {n["id"]: n for n in nodes}
    try:
        kept = prompt_scene(system_text)
    except (ValueError, IndexError) as exc:
        return errors + [f"no scene JSON in the prompt: {exc}"]
    kept_ids = {n["id"] for n in kept}
    lowered = query.lower()
    named = {n["id"] for n in nodes if re.search(rf"\b{re.escape(n['object_tag'].lower())}\b", lowered)}
    if named - kept_ids:
        errors.append(f"objects named in the query were pruned: {sorted(named - kept_ids)[:5]}")
    for node in kept:
        source = by_id.get(node.get("id"))
        if source is None:
            errors.append(f"prompt holds unknown id {node.get('id')}")
            continue
        for key in ("bbox_center", "bbox_extent"):
            if any(abs(g - w) > 0.05 + 1e-9 for g, w in zip(node[key], source[key])):
                errors.append(f"id {source['id']} {key} {node[key]} does not match input {source[key]}")
    try:
        answer = json.loads(stdout)
    except ValueError as exc:
        return errors + [f"ask output unreadable: {exc}"]
    if answer.get("grounding_issues"):
        errors.append(f"grounding issues: {answer['grounding_issues']}")
    kind, want = expected_answer(by_id, query)
    got = yes_no(answer.get("final_text", "")) if kind == "bool" else answer.get("final_object_id")
    if got != want:
        errors.append(f"answer {got!r} to {query!r}, geometry says {want!r}")
    return errors


# --- eval-small / eval-remote -------------------------------------------------


def node_dict(node) -> dict:
    return {"id": node.id, "bbox_center": list(node.bbox_center), "bbox_extent": list(node.bbox_extent)}


def check_eval(gen, queries, records) -> list[str]:
    """Records match the queries sent; every decidable query is confirmed by
    geometry computed here and scored correct; every planted fact holds."""
    errors = []
    if [r.query_text for r in records] != [q.query_text for q in queries]:
        return [f"{len(records)} records for {len(queries)} queries, or out of order"]
    nodes = {n.id: node_dict(n) for n in gen.scene.nodes}
    for fact in gen.planted:
        a, b = nodes[fact.subject_id], nodes[fact.object_id]
        holds = {
            "OnTopOf": lambda: rests_on(a, b),
            "Containment": lambda: fits_inside(a, b),
            "RelativePosition": lambda: _near(a, b),
        }[fact.category.value]()
        if not holds:
            errors.append(f"planted {fact.category.value} {fact.subject_id}->{fact.object_id} fails geometry")
    for q, r in zip(queries, records):
        cat = q.category.value
        if cat not in ("OnTopOf", "Containment", "SizeCompare", "RelativePosition"):
            continue
        a, b = nodes[q.structured.subject_id], nodes[q.structured.object_id]
        if cat == "OnTopOf":
            ok = q.expected_bool == rests_on(a, b)
        elif cat == "Containment":
            ok = q.expected_bool == fits_inside(a, b)
        elif cat == "SizeCompare":
            bigger = a["id"] if volume(a) > volume(b) else b["id"]
            ok = q.expected_object_ids == (bigger,)
            if r.final_object_id != bigger:
                errors.append(f"{q.query_text!r} answered id {r.final_object_id}, geometry says {bigger}")
        else:
            ok = _position_words_hold(a, b, " ".join(q.expected_keywords))
        if not ok:
            errors.append(f"geometry disagrees with {q.query_text!r}")
        if r.verdict != "correct":
            errors.append(f"{q.query_text!r} scored {r.verdict}")
    return errors


def _near(a: dict, b: dict) -> bool:
    return round(math.dist(a["bbox_center"], b["bbox_center"]), SNAP_DECIMALS) <= NEAR_THRESHOLD


def _position_words_hold(a: dict, b: dict, words: str) -> bool:
    delta = [round(x - y, SNAP_DECIMALS) for x, y in zip(a["bbox_center"], b["bbox_center"])]
    claims = {
        "positive x": delta[0] > 0, "negative x": delta[0] < 0,
        "positive y": delta[1] > 0, "negative y": delta[1] < 0,
        "above": delta[2] > 0, "below": delta[2] < 0,
        "near": _near(a, b),
    }
    return all((phrase in words) == truth for phrase, truth in claims.items())


def check_twins(records, clean_records) -> list[str]:
    """Each reply, drifted or not, must score as its clean twin does."""
    if len(records) != len(clean_records):
        return [f"{len(records)} records against {len(clean_records)} clean ones"]
    return [
        f"{r.query_text!r}: {r.verdict}, id {r.final_object_id} against "
        f"{c.verdict}, id {c.final_object_id} for the clean reply"
        for r, c in zip(records, clean_records)
        if (r.verdict, r.final_object_id) != (c.verdict, c.final_object_id)
    ]
