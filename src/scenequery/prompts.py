"""Prompt assembly under a token budget.

The system prompt is a fixed template with three placeholders
({scenegraph}, {examples}, {input}), filled in one pass, so placeholder
text in a scene or query is kept verbatim. Every prompt carries the same
in-context examples: the packaged demonstrations in examples.json, in
file order. When the serialized scene pushes the estimate past the
budget, the scene is compacted step by step: captions go first, then
color/material, then numeric precision, and finally whole nodes in
ascending lexical relevance to the query: the number of the query's words
(runs of a-z and 0-9 in the lowered text) in the node's tag and caption,
split out of each text with one byte translation. A node whose tag occurs
in the query (case-insensitive) is never pruned.

The numeric step (round_numerics) is recorded to keep the canonical
action order, but changes no byte: serialization already rounds box
numbers to one decimal. Each node is encoded once per scene, on the
scene's first serialization, and the encodings are shared by every later
prompt on that scene: by all of `run_eval`'s queries on it, and by the
three forms compaction tries (scene_model.FORMS): the full scene, the
scene without captions, and the scene without captions, colors and
materials. Compaction fit-checks each form by the length the scene keeps
with its encodings, so only the form that is sent becomes node JSON. A
form that fits is sent as the joined array and node ids the scene keeps,
so a scene within budget costs no join and no id walk per prompt.
Pruning tracks the last form's length by subtraction, so it never
re-serializes. A `PromptBundle` is a NamedTuple.
"""

from __future__ import annotations

import functools
import json
import math
from importlib import resources
from itertools import compress
from typing import NamedTuple

from .scene_model import FORMS, SceneGraph, encoded_nodes, node_ids, serialize_scene, serialized_length

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


class PromptBundle(NamedTuple):
    system_text: str
    token_estimate: int
    included_node_ids: tuple[int, ...]
    compaction_report: tuple[str, ...]


def estimate_tokens(text: str) -> int:
    """Cheap length-based token estimate: one token per 4 characters."""
    return length_tokens(len(text))


def length_tokens(length: int) -> int:
    """estimate_tokens of a text `length` characters long."""
    return math.ceil(length / 4)


@functools.cache
def template_parts() -> tuple[str, str, str]:
    """(head, middle, tail): a prompt is head + scene JSON + middle + query
    + tail. The demonstrations are already in the middle, in place of
    {examples}."""
    data = resources.files("scenequery.data")
    raw = json.loads(data.joinpath("examples.json").read_text(encoding="utf-8"))
    examples = "\n\n".join(f'QUESTION = "{e["question"]}"\n\nANSWER = "{e["answer"]}"' for e in raw)
    head, rest = data.joinpath("system_prompt.txt").read_text(encoding="utf-8").split("{scenegraph}")
    middle, tail = rest.split("{input}")
    return head, middle.replace("{examples}", examples), tail


# The scene forms compaction tries before pruning, in order: the actions
# that give each form and the node fields it leaves out.
_FORMS = tuple(zip(((), (ACTION_DROP_CAPTIONS,), (ACTION_DROP_CAPTIONS, ACTION_DROP_ATTRIBUTES)), FORMS))

# Maps every byte but a-z and 0-9 to a space.
_WORD_BYTES = bytes(c if chr(c) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32 for c in range(256))


def _words(text: str) -> list[bytes]:
    """The runs of a-z and 0-9 in text.lower(), as ASCII bytes: the words
    re.findall(r"[a-z0-9]+", text.lower()) finds. Each non-ASCII character
    of the lowered text, which that pattern never matches, is encoded as
    "?" and then split on like any other byte outside it."""
    return text.lower().encode("ascii", "replace").translate(_WORD_BYTES).split()


def compact_scene(
    scene: SceneGraph, query: str, budget: int, template_overhead: int
) -> tuple[tuple[int, ...], list[str], str]:
    """Shrink the scene until template_overhead + scene estimate fits budget.

    Returns the ids of the kept nodes in node order, the applied actions
    and the kept nodes' JSON in the form they give. Reductions are applied
    in a fixed order and each applied action is recorded. A node whose tag
    occurs in the query (case-insensitive) is never pruned; if the budget
    still cannot be met once everything else is gone, BudgetInfeasible
    reports the overflow.

    Each form is fit-checked by its serialized length, which the scene
    keeps with its encoding, so node JSON is built only for the form that
    is sent. Pruning keeps the length of the kept nodes up to date by
    subtraction, so a fit check costs O(1) however many nodes are pruned.
    """

    def overflow(scene_length: int) -> int:
        # Tokens over budget with a scene JSON this long.
        return template_overhead + length_tokens(scene_length) - budget

    if budget <= template_overhead:
        raise BudgetInfeasible(template_overhead - budget + 1)

    nodes = scene.nodes
    for actions, omit in _FORMS:
        length = serialized_length(scene, omit)
        if overflow(length) <= 0:
            return node_ids(scene), list(actions), serialize_scene(scene, omit)

    # Prune from the last form. Recorded for the canonical order;
    # serialization already rounds to one decimal, so this step changes no
    # byte and needs no new check.
    actions = [*actions, ACTION_ROUND_NUMERICS]
    node_json = encoded_nodes(scene, omit)
    lowered = query.lower()
    query_words = set(_words(query))
    # Least relevant (fewest query words in tag and caption) first; ties
    # pruned from the back of the node list. Ids are distinct, so the
    # index never decides the order.
    ranked = sorted(
        (len(query_words.intersection(_words(n.object_tag + " " + n.caption))), -n.id, i)
        for i, n in enumerate(nodes)
        if n.object_tag.lower() not in lowered
    )
    prunable = [i for _, _, i in ranked]
    if len(prunable) == len(nodes):
        # Never empty the scene entirely; keep the most relevant node.
        prunable = prunable[:-1]
    kept = [True] * len(nodes)
    for i in prunable:
        kept[i] = False
        # A node always remains, so each prune also removes one ", ".
        length -= len(node_json[i]) + 2
        actions.append(f"{ACTION_PRUNE_NODE}:{nodes[i].id}")
        if overflow(length) <= 0:
            break
    else:
        raise BudgetInfeasible(overflow(length))

    return tuple(n.id for n in compress(nodes, kept)), actions, "[" + ", ".join(compress(node_json, kept)) + "]"


def build_prompt(scene: SceneGraph, query: str, budget: int = DEFAULT_TOKEN_BUDGET) -> PromptBundle:
    """Fill the system template, compacting the scene if needed.

    The returned bundle is always within budget; otherwise
    BudgetInfeasible is raised.
    """
    head, middle, tail = template_parts()
    overhead = length_tokens(len(head) + len(middle) + len(query) + len(tail))

    kept_ids, actions, scene_json = compact_scene(scene, query, budget, overhead)
    system_text = head + scene_json + middle + query + tail
    return PromptBundle(
        system_text=system_text,
        token_estimate=estimate_tokens(system_text),
        included_node_ids=kept_ids,
        compaction_report=tuple(actions),
    )
