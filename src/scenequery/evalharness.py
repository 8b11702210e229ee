"""Synthetic benchmark generation and pipeline scoring.

Scenes are generated with relations planted by construction (stacked
boxes, container pairs, near clusters), so every geometric/spatial
query has a decidable ground truth. Affordance and negation queries
draw their ground truth from a small tag lexicon shipped with the
package.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import NamedTuple, Optional, Sequence

from . import llm as llm_mod
from .oracle import (
    OracleConfig,
    QueryCategory,
    SizeOrdering,
    StructuredQuery,
    describe_relations,
    object_ref,
    relative_position,
    size_compare,
)
from .parsing import GroundingIssue, ParsedResponse, UnparseableResponse, parse_response, validate_grounding
from .prompts import DEFAULT_TOKEN_BUDGET, build_prompt
from .scene_model import ObjectNode, SceneGraph, Vec3


class Layout(str, Enum):
    STACKS = "Stacks"
    CLUSTERS = "Clusters"
    CONTAINERS = "Containers"
    MIXED = "Mixed"


@dataclass(frozen=True)
class SceneRecipe:
    seed: int
    node_count: int = 10
    layout: Layout = Layout.MIXED

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")


@dataclass(frozen=True)
class PlantedFact:
    category: QueryCategory
    subject_id: int
    object_id: int


@dataclass(frozen=True)
class GeneratedScene:
    scene: SceneGraph
    planted: tuple[PlantedFact, ...]
    recipe: SceneRecipe


@dataclass(frozen=True)
class GroundTruthQuery:
    query_text: str
    category: QueryCategory
    structured: StructuredQuery
    expected_object_ids: tuple[int, ...] = ()
    expected_bool: Optional[bool] = None
    expected_keywords: tuple[str, ...] = ()


def load_lexicon() -> dict[str, dict]:
    """tag -> {affordances: [...], properties: [...]}, a fresh dict per call."""
    return {
        e["tag"]: {"affordances": list(e.get("affordances", [])), "properties": list(e.get("properties", []))}
        for e in _packaged_lexicon_entries()
    }


@functools.cache
def _packaged_lexicon_entries() -> list[dict]:
    # Parsed once per process; load_lexicon copies out of it, so callers
    # never share these lists.
    return json.loads(resources.files("scenequery.data").joinpath("lexicon.json").read_text(encoding="utf-8"))


def _grid(rng: random.Random, lo_dm: int, hi_dm: int) -> float:
    # Whole decimetres are exact at serialization's one decimal. Half of
    # one need not be, so a centre z at half an extent is rounded to it.
    return rng.randint(lo_dm, hi_dm) / 10.0


def _caption(tag: str) -> str:
    return f"The central object in this image is a {tag}."


def generate_scene(recipe: SceneRecipe) -> GeneratedScene:
    """Deterministic-in-seed scene with recorded planted relations.

    Stacks plant on-top-of pairs (upper footprint inside the base, faces
    touching); Containers plant strict sorted-extent dominance pairs;
    Clusters plant near groups. Mixed cycles through all three. Slots
    are spaced 6 m apart so unrelated objects never interact. Tags come
    from the packaged lexicon. Every box number is on the decimetre
    grid, so the scene survives serialization unchanged.
    """
    vocab = sorted(load_lexicon())
    rng = random.Random(recipe.seed)

    nodes: list[ObjectNode] = []
    planted: list[PlantedFact] = []
    next_id = 0
    slot = 0

    def add(tag: str, extent: Vec3, center: Vec3) -> ObjectNode:
        nonlocal next_id
        node = ObjectNode(
            id=next_id,
            bbox_extent=extent,
            bbox_center=center,
            object_tag=tag,
            caption=_caption(tag),
            color=rng.choice(["white", "brown", "silver", "black", "red", "blue"]),
            material=rng.choice(["wood", "metal", "fabric", "plastic", "glass"]),
        )
        next_id += 1
        nodes.append(node)
        return node

    def slot_origin() -> tuple[float, float]:
        nonlocal slot
        x = float((slot % 8) * 6)
        y = float((slot // 8) * 6)
        slot += 1
        return x, y

    def plant_stack():
        x, y = slot_origin()
        base_x, base_y = _grid(rng, 8, 16), _grid(rng, 8, 16)
        base_z = rng.choice([0.4, 0.6, 0.8])
        upper_z = rng.choice([0.2, 0.4])
        base = add(rng.choice(vocab), Vec3(base_x, base_y, base_z), Vec3(x, y, base_z / 2))
        upper = add(
            rng.choice(vocab),
            Vec3(round(base_x - 0.2, 1), round(base_y - 0.2, 1), upper_z),
            Vec3(x, y, round(base_z + upper_z / 2, 1)),
        )
        planted.append(PlantedFact(QueryCategory.ON_TOP_OF, upper.id, base.id))

    def plant_container():
        x, y = slot_origin()
        outer = Vec3(_grid(rng, 10, 20), _grid(rng, 10, 20), _grid(rng, 10, 20))
        inner = Vec3(*(round(c - 0.3, 1) for c in outer))
        outer_node = add(rng.choice(vocab), outer, Vec3(x, y, round(outer.z / 2, 1)))
        x2, y2 = slot_origin()
        inner_node = add(rng.choice(vocab), inner, Vec3(x2, y2, round(inner.z / 2, 1)))
        planted.append(PlantedFact(QueryCategory.CONTAINMENT, outer_node.id, inner_node.id))

    def plant_cluster():
        x, y = slot_origin()
        members = []
        for _ in range(2):
            ext = Vec3(_grid(rng, 2, 6), _grid(rng, 2, 6), _grid(rng, 2, 6))
            dx, dy = _grid(rng, -3, 3), _grid(rng, -3, 3)
            members.append(add(rng.choice(vocab), ext, Vec3(round(x + dx, 1), round(y + dy, 1), round(ext.z / 2, 1))))
        a, b = members
        planted.append(PlantedFact(QueryCategory.RELATIVE_POSITION, a.id, b.id))

    planters = {
        Layout.STACKS: [plant_stack],
        Layout.CONTAINERS: [plant_container],
        Layout.CLUSTERS: [plant_cluster],
        Layout.MIXED: [plant_stack, plant_container, plant_cluster],
    }[recipe.layout]

    i = 0
    while next_id + 2 <= recipe.node_count:
        planters[i % len(planters)]()
        i += 1
    while next_id < recipe.node_count:
        # Leftover singletons, far from everything.
        x, y = slot_origin()
        ext = Vec3(_grid(rng, 2, 8), _grid(rng, 2, 8), _grid(rng, 2, 8))
        add(rng.choice(vocab), ext, Vec3(x, y, round(ext.z / 2, 1)))

    return GeneratedScene(scene=SceneGraph(nodes=tuple(nodes)), planted=tuple(planted), recipe=recipe)


# Yes/no question per planted category, filled with (subject, object) refs.
# Each planted fact is asked both ways: as planted (yes) and swapped (no).
_YES_NO_TEMPLATES = {
    QueryCategory.ON_TOP_OF: "Is the {} located on top of the {}?",
    QueryCategory.CONTAINMENT: "Can the {} contain the {}?",
}


def generate_queries(gen: GeneratedScene, cfg: OracleConfig = OracleConfig()) -> list[GroundTruthQuery]:
    """Templated queries across the taxonomy, answered from planted
    facts (geometric/spatial) or the packaged lexicon (affordance/negation)."""
    lexicon = load_lexicon()
    scene = gen.scene
    queries: list[GroundTruthQuery] = []

    for fact in gen.planted:
        a, b = fact.subject_id, fact.object_id
        node_a, node_b = scene.node(a), scene.node(b)
        ref = {a: object_ref(node_a), b: object_ref(node_b)}
        template = _YES_NO_TEMPLATES.get(fact.category)
        if template is not None:
            for subject, obj, expected in ((a, b, True), (b, a, False)):
                queries.append(
                    GroundTruthQuery(
                        query_text=template.format(ref[subject], ref[obj]),
                        category=fact.category,
                        structured=StructuredQuery(fact.category, subject, obj),
                        expected_bool=expected,
                    )
                )
        if fact.category is QueryCategory.ON_TOP_OF:
            cmp = size_compare(node_b, node_a, cfg)
            if cmp.ordering is not SizeOrdering.SIMILAR:
                winner = b if cmp.ordering is SizeOrdering.BIGGER else a
                queries.append(
                    GroundTruthQuery(
                        query_text=f"Which is bigger, the {ref[b]} or the {ref[a]}?",
                        category=QueryCategory.SIZE_COMPARE,
                        structured=StructuredQuery(QueryCategory.SIZE_COMPARE, b, a),
                        expected_object_ids=(winner,),
                    )
                )
        elif fact.category is QueryCategory.RELATIVE_POSITION:
            rel = relative_position(node_a, node_b, cfg)
            queries.append(
                GroundTruthQuery(
                    query_text=f"Where is the {ref[a]} with respect to the {ref[b]}?",
                    category=QueryCategory.RELATIVE_POSITION,
                    structured=StructuredQuery(QueryCategory.RELATIVE_POSITION, a, b),
                    expected_keywords=(describe_relations(rel),),
                )
            )

    # Affordance: ask for some object by what it is used for.
    for node in scene.nodes:
        entry = lexicon.get(node.object_tag)
        if entry and entry["affordances"]:
            affordance = entry["affordances"][0]
            expected = tuple(
                n.id
                for n in scene.nodes
                if affordance in lexicon.get(n.object_tag, {}).get("affordances", [])
            )
            queries.append(
                GroundTruthQuery(
                    query_text=f"Something that can be used to {affordance}",
                    category=QueryCategory.AFFORDANCE,
                    structured=StructuredQuery(QueryCategory.AFFORDANCE, text=f"used to {affordance}"),
                    expected_object_ids=expected,
                )
            )
            break

    # Negation: objects lacking a property every ordinary object has.
    non_opaque = tuple(
        n.id for n in scene.nodes if "opaque" not in lexicon.get(n.object_tag, {}).get("properties", ["opaque"])
    )
    if non_opaque:
        queries.append(
            GroundTruthQuery(
                query_text="Something that is not opaque",
                category=QueryCategory.NEGATION,
                structured=StructuredQuery(QueryCategory.NEGATION, text="not opaque"),
                expected_object_ids=non_opaque,
            )
        )

    return queries


@dataclass(frozen=True)
class EvalConfig:
    budget: int = DEFAULT_TOKEN_BUDGET
    oracle: OracleConfig = field(default_factory=OracleConfig)
    llm: llm_mod.LlmConfig = field(default_factory=llm_mod.LlmConfig)
    strict_parse: bool = False

    def __post_init__(self):
        # type(), not isinstance(): a bool is an int, but no budget.
        if type(self.budget) is not int:
            raise ValueError(f"budget must be an integer, got {self.budget!r}")
        if self.budget < 1:
            raise ValueError("token budget must be positive")
        if type(self.strict_parse) is not bool:
            raise ValueError(f"strict_parse must be true or false, got {self.strict_parse!r}")


VERDICTS = ("correct", "incorrect", "ungrounded", "unparseable")


@dataclass(frozen=True)
class EvalRecord:
    seed: int
    category: QueryCategory
    query_text: str
    verdict: str
    final_object_id: Optional[int]
    final_object_tag: str
    raw_response: str
    issues: tuple[str, ...] = ()


def _record_keys(r: EvalRecord) -> dict:
    """The keys that report.json and records.jsonl both carry for a record."""
    return {
        "seed": r.seed,
        "category": r.category.value,
        "query": r.query_text,
        "verdict": r.verdict,
        "issues": list(r.issues),
    }


@dataclass(frozen=True)
class EvalReport:
    records: tuple[EvalRecord, ...]

    def counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for rec in self.records:
            row = out.setdefault(rec.category.value, {v: 0 for v in VERDICTS})
            row[rec.verdict] += 1
        return out

    def accuracy(self, category: Optional[QueryCategory] = None) -> float:
        recs = [r for r in self.records if category is None or r.category is category]
        if not recs:
            return 0.0
        return sum(r.verdict == "correct" for r in recs) / len(recs)

    def to_json(self) -> str:
        payload = {
            "overall_accuracy": self.accuracy(),
            "total": len(self.records),
            "per_category": self.counts(),
            "records": [
                {**_record_keys(r), "final_object_id": r.final_object_id, "final_object_tag": r.final_object_tag}
                for r in self.records
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({**_record_keys(r), "raw_response": r.raw_response}, sort_keys=True) for r in self.records
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_text(self) -> str:
        counts = self.counts()
        header = f"{'category':<18}{'correct':>9}{'incorrect':>11}{'ungrounded':>12}{'unparseable':>13}"
        lines = [header, "-" * len(header)]
        for cat in sorted(counts):
            row = counts[cat]
            lines.append(
                f"{cat:<18}{row['correct']:>9}{row['incorrect']:>11}{row['ungrounded']:>12}{row['unparseable']:>13}"
            )
        lines.append("")
        lines.append(f"total queries: {len(self.records)}  overall accuracy: {self.accuracy():.3f}")
        return "\n".join(lines)


class Answer(NamedTuple):
    """One query taken through the pipeline.

    `parsed` is None when the reply could not be parsed, and `error`
    then gives the reason. `raw` is "" for a reply that is not text.
    """

    raw: str
    parsed: Optional[ParsedResponse]
    error: str = ""
    issues: tuple[GroundingIssue, ...] = ()


def answer(scene: SceneGraph, query: str, backend: llm_mod.Backend, cfg: EvalConfig) -> Answer:
    """Build the prompt, complete it, parse the reply and check its grounding
    against the nodes the prompt kept.

    An unparseable reply is returned as data. Backend errors (LlmError)
    and BudgetInfeasible propagate.
    """
    bundle = build_prompt(scene, query, budget=cfg.budget)
    reply = llm_mod.complete(bundle, backend, user_text=query)
    try:
        parsed = parse_response(reply, strict=cfg.strict_parse)
    except UnparseableResponse as exc:
        return Answer(raw=exc.raw, parsed=None, error=str(exc))
    return Answer(raw=reply, parsed=parsed, issues=tuple(validate_grounding(parsed, scene, bundle.included_node_ids)))


_WORD = re.compile(r"[a-z]+")


def _verdict_from_text(text: str) -> Optional[bool]:
    """Yes/no from whole words: a leading yes or no decides; otherwise
    any yes means True, any no or not means False, and neither None."""
    words = _WORD.findall(text.lower())
    if words and words[0] in ("yes", "no"):
        return words[0] == "yes"
    if "yes" in words:
        return True
    if "no" in words or "not" in words:
        return False
    return None


def score(query: GroundTruthQuery, ans: Answer) -> str:
    """The verdict on one answer to one query."""
    if ans.parsed is None:
        return "unparseable"
    if ans.issues:
        return "ungrounded"

    parsed = ans.parsed
    if query.expected_bool is not None:
        got = _verdict_from_text(parsed.final_text)
        return "correct" if got == query.expected_bool else "incorrect"
    if query.expected_object_ids:
        return "correct" if parsed.final_object_id in query.expected_object_ids else "incorrect"
    if query.expected_keywords:
        lowered = parsed.final_text.lower()
        return "correct" if all(k.lower() in lowered for k in query.expected_keywords) else "incorrect"
    return "incorrect"


def run_eval(
    tasks: Sequence[tuple[GeneratedScene, Sequence[GroundTruthQuery]]],
    backend: str | llm_mod.Backend = "oracle",
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """`answer` then `score` for every query. The string "oracle" means an
    OracleMockBackend on each task's scene. Unparseable and ungrounded
    replies are folded into the report; backend errors (LlmError) and
    BudgetInfeasible abort the run.

    A backend that takes concurrent calls (see `llm.Backend`) answers up to
    its `max_in_flight` queries at once on a thread pool. Records are kept
    in input order either way; the first query in input order whose answer
    raised re-raises that exception, and queries not yet started are
    never sent."""
    if isinstance(backend, str) and backend != "oracle":
        raise ValueError(f"unknown backend {backend!r}")
    jobs = []
    for gen, queries in tasks:
        scene_backend = llm_mod.OracleMockBackend(gen.scene, cfg.oracle) if isinstance(backend, str) else backend
        jobs.extend((gen, q, scene_backend) for q in queries)

    def record(job: tuple[GeneratedScene, GroundTruthQuery, llm_mod.Backend]) -> EvalRecord:
        gen, q, job_backend = job
        return _record(gen, q, answer(gen.scene, q.query_text, job_backend, cfg))

    width = 1 if isinstance(backend, str) else getattr(backend, "max_in_flight", llm_mod.DEFAULT_MAX_IN_FLIGHT)
    width = min(width, len(jobs))
    if width <= 1:
        return EvalReport(records=tuple(map(record, jobs)))
    # Imported here, so that a process that never runs a pool loads
    # neither concurrent.futures nor the logging it imports.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=width) as pool:
        return EvalReport(records=tuple(pool.map(record, jobs)))


def _record(gen: GeneratedScene, q: GroundTruthQuery, ans: Answer) -> EvalRecord:
    return EvalRecord(
        seed=gen.recipe.seed,
        category=q.category,
        query_text=q.query_text,
        verdict=score(q, ans),
        final_object_id=ans.parsed.final_object_id if ans.parsed else None,
        final_object_tag=ans.parsed.final_object_tag if ans.parsed else "",
        raw_response=ans.raw,
        issues=tuple(str(i) for i in ans.issues),
    )
