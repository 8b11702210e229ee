"""Prompt assembly under a token budget.

The system prompt is a fixed template with three placeholders
({scenegraph}, {examples}, {input}). When the serialized scene pushes
the estimate past the budget, the scene is compacted step by step:
captions go first, then color/material, then numeric precision, and
finally whole nodes in ascending lexical relevance to the query.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .oracle import QueryCategory
from .scene_model import ObjectNode, SceneGraph, SerializeOptions, Vec3, serialize_scene

DEFAULT_TOKEN_BUDGET = 16000

# Canonical compaction actions, in application order.
ACTION_DROP_CAPTIONS = "drop_captions"
ACTION_DROP_ATTRIBUTES = "drop_attributes"
ACTION_ROUND_NUMERICS = "round_numerics"
ACTION_PRUNE_NODE = "prune_node"


class BudgetInfeasible(ValueError):
    """Even maximal compaction cannot fit the budget."""

    def __init__(self, overflow_tokens: int):
        self.overflow_tokens = overflow_tokens
        super().__init__(f"prompt exceeds token budget by {overflow_tokens} tokens after maximal compaction")


@dataclass(frozen=True)
class InContextExample:
    question: str
    answer: str
    category: QueryCategory

    def __post_init__(self):
        if not self.question or not self.answer:
            raise ValueError("example question and answer must be non-empty")


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    token_estimate: int
    included_node_ids: tuple[int, ...]
    compaction_report: tuple[str, ...]


def estimate_tokens(text: str) -> int:
    """Cheap length-based token estimate: one token per 4 characters."""
    return math.ceil(len(text) / 4)


def load_template() -> str:
    return resources.files("scenequery.data").joinpath("system_prompt.txt").read_text(encoding="utf-8")


@functools.cache
def _packaged_template() -> str:
    # The packaged file does not change while the process runs.
    return load_template()


def _load_builtin_examples() -> list[InContextExample]:
    raw = json.loads(resources.files("scenequery.data").joinpath("examples.json").read_text(encoding="utf-8"))
    return [
        InContextExample(question=e["question"], answer=e["answer"], category=QueryCategory(e["category"]))
        for e in raw
    ]


class ExampleLibrary:
    """Built-in demonstrations plus user-registered ones per category."""

    def __init__(self):
        self._builtins = _load_builtin_examples()
        self._custom: list[InContextExample] = []

    def register(self, example: InContextExample) -> None:
        self._custom.append(example)

    def select(self, category: QueryCategory) -> list[InContextExample]:
        # Both built-ins always ship, regardless of category; customs are
        # appended in registration order when their category matches.
        return list(self._builtins) + [e for e in self._custom if e.category == category]


_DEFAULT_LIBRARY: Optional[ExampleLibrary] = None


def select_examples(category: QueryCategory) -> list[InContextExample]:
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        _DEFAULT_LIBRARY = ExampleLibrary()
    return _DEFAULT_LIBRARY.select(category)


def render_examples(examples: list[InContextExample]) -> str:
    blocks = []
    for ex in examples:
        blocks.append(f'QUESTION = "{ex.question}"\n\nANSWER = "{ex.answer}"')
    return "\n\n".join(blocks)


def render_template(template: str, scene_json: str, examples_text: str, query: str) -> str:
    # str.replace, not str.format: the scene JSON is full of braces.
    return (
        template.replace("{scenegraph}", scene_json)
        .replace("{examples}", examples_text)
        .replace("{input}", query)
    )


def options_for_actions(actions: list[str]) -> SerializeOptions:
    omit = set()
    if ACTION_DROP_CAPTIONS in actions:
        omit.add("caption")
    if ACTION_DROP_ATTRIBUTES in actions:
        omit.update({"color", "material"})
    return SerializeOptions(precision=1, omit=frozenset(omit))


_WORD = re.compile(r"[a-z0-9]+")


def _relevance(node: ObjectNode, query_words: set[str]) -> int:
    node_words = set(_WORD.findall((node.object_tag + " " + node.caption).lower()))
    return len(node_words & query_words)


def _round_node(node: ObjectNode) -> ObjectNode:
    def r(v: Vec3) -> Vec3:
        return Vec3(*(round(c, 1) + 0.0 for c in v))

    return ObjectNode(
        id=node.id,
        bbox_extent=r(node.bbox_extent),
        bbox_center=r(node.bbox_center),
        object_tag=node.object_tag,
        caption=node.caption,
        color=node.color,
        material=node.material,
        extra=node.extra,
    )


def compact_scene(
    scene: SceneGraph, query: str, budget: int, template_overhead: int
) -> tuple[SceneGraph, list[str]]:
    """Shrink the scene until template_overhead + scene estimate fits budget.

    Reductions are applied in a fixed order and each applied action is
    recorded. Nodes whose tag occurs verbatim in the query are never
    pruned; if the budget still cannot be met once everything else is
    gone, BudgetInfeasible reports the overflow.
    """
    actions: list[str] = []
    current = scene

    def fits() -> bool:
        opts = options_for_actions(actions)
        return template_overhead + estimate_tokens(serialize_scene(current, opts)) <= budget

    if budget <= template_overhead:
        raise BudgetInfeasible(template_overhead - budget + 1)
    if fits():
        return current, []

    for action in (ACTION_DROP_CAPTIONS, ACTION_DROP_ATTRIBUTES, ACTION_ROUND_NUMERICS):
        actions.append(action)
        if action == ACTION_ROUND_NUMERICS:
            current = SceneGraph(nodes=tuple(_round_node(n) for n in current.nodes))
        if fits():
            return current, actions

    lowered = query.lower()
    query_words = set(_WORD.findall(lowered))
    protected = {n.id for n in current.nodes if n.object_tag.lower() in lowered}
    # Least relevant first; ties pruned from the back of the node list.
    prunable = sorted(
        (n for n in current.nodes if n.id not in protected),
        key=lambda n: (_relevance(n, query_words), -n.id),
    )
    if not protected and prunable:
        # Never empty the scene entirely; keep the most relevant node.
        prunable = prunable[:-1]
    for victim in prunable:
        current = SceneGraph(nodes=tuple(n for n in current.nodes if n.id != victim.id))
        actions.append(f"{ACTION_PRUNE_NODE}:{victim.id}")
        if fits():
            return current, actions

    opts = options_for_actions(actions)
    overflow = template_overhead + estimate_tokens(serialize_scene(current, opts)) - budget
    raise BudgetInfeasible(overflow)


def build_prompt(
    scene: SceneGraph,
    query: str,
    examples: list[InContextExample],
    budget: int = DEFAULT_TOKEN_BUDGET,
) -> PromptBundle:
    """Fill the system template, compacting the scene if needed.

    The returned bundle is always within budget; otherwise
    BudgetInfeasible is raised.
    """
    template = _packaged_template()
    examples_text = render_examples(examples)
    overhead = estimate_tokens(render_template(template, "", examples_text, query))

    actions: list[str] = []
    scene_json = serialize_scene(scene)
    if overhead + estimate_tokens(scene_json) > budget:
        scene, actions = compact_scene(scene, query, budget, overhead)
        scene_json = serialize_scene(scene, options_for_actions(actions))

    system_text = render_template(template, scene_json, examples_text, query)
    return PromptBundle(
        system_text=system_text,
        token_estimate=estimate_tokens(system_text),
        included_node_ids=tuple(n.id for n in scene.nodes),
        compaction_report=tuple(actions),
    )
