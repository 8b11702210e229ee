"""Inputs the benchmark makes for itself, apart from the program.

Dense multi-room scenes (for `relations-large` and `ask-large`), the ask
queries over them, and the stand-in for a remote model endpoint used by
`eval-remote`. Everything is a pure function of the seed it is given.
Coordinates sit on a decimetre grid and every z extent is an even number
of decimetres, so box faces, centres and translations by a grid offset
stay exact at one decimal.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass

TAGS = (
    "vase", "window", "couch", "pillow", "chair", "table", "desk", "lamp", "book", "mirror",
    "cup", "glass", "bottle", "bed", "tv", "plant", "sink", "fridge", "oven", "microwave",
    "trash can", "shelf", "rug", "curtain", "clock", "candle holder", "ottoman", "wardrobe",
    "basket", "box",
)
COLORS = ("white", "brown", "silver", "black", "red", "blue", "green", "grey")
MATERIALS = ("wood", "metal", "fabric", "plastic", "glass", "ceramic", "leather")
CAPTION_TAILS = (
    "standing near the wall",
    "in the middle of the room",
    "partly hidden behind other furniture",
    "lit by the window",
    "with a few scratches on its surface",
)

ROOM_SIZE_DM = 40   # each room is 4 m x 4 m
ROOM_PITCH_DM = 50  # 1 m of corridor between rooms


def _dm(rng: random.Random, lo: int, hi: int) -> float:
    return rng.randint(lo, hi) / 10.0


def dense_scene(seed: int, rooms: int = 10, per_room: int = 30) -> tuple[list[dict], list[tuple[int, int]]]:
    """Scene nodes (JSON dicts) plus the (upper, base) pairs planted as stacks.

    A room holds furniture on the floor, objects stacked on furniture
    (touching, or 0.1 m above: both within the default 0.15 m tolerance)
    or hovering 0.2 m above it (outside the tolerance), and small floor
    objects, all within a few metres of each other.
    """
    rng = random.Random(seed)
    nodes: list[dict] = []
    stacks: list[tuple[int, int]] = []

    def add(extent, center) -> dict:
        tag = rng.choice(TAGS)
        node = {
            "id": len(nodes),
            "bbox_extent": [round(c, 1) for c in extent],
            "bbox_center": [round(c, 1) for c in center],
            "object_tag": tag,
            "caption": f"The central object in this image is a {tag} {rng.choice(CAPTION_TAILS)}.",
            "color": rng.choice(COLORS),
            "material": rng.choice(MATERIALS),
        }
        nodes.append(node)
        return node

    for room in range(rooms):
        ox = (room % 4) * ROOM_PITCH_DM / 10.0
        oy = (room // 4) * ROOM_PITCH_DM / 10.0
        start = len(nodes)
        furniture = []
        for _ in range(per_room // 3):
            ez = rng.choice([0.4, 0.6, 0.8, 1.0])
            ext = (_dm(rng, 6, 20), _dm(rng, 6, 20), ez)
            furniture.append(add(ext, (ox + _dm(rng, 0, ROOM_SIZE_DM), oy + _dm(rng, 0, ROOM_SIZE_DM), ez / 2)))
        supports = list(furniture)
        for _ in range(per_room // 3):
            base = rng.choice(supports)
            bx, by = (round(c * 10) for c in base["bbox_extent"][:2])
            bz = base["bbox_extent"][2]
            cx, cy, cz = base["bbox_center"]
            ex, ey = rng.randint(2, max(2, bx - 2)), rng.randint(2, max(2, by - 2))
            ez = rng.choice([0.2, 0.4, 0.6])
            # Centre offsets keep the upper footprint inside the base footprint.
            dx = rng.randint(-((bx - ex) // 2), (bx - ex) // 2) / 10.0
            dy = rng.randint(-((by - ey) // 2), (by - ey) // 2) / 10.0
            gap = rng.choice([0.0, 0.0, 0.0, 0.1, 0.2])
            upper = add((ex / 10.0, ey / 10.0, ez), (cx + dx, cy + dy, cz + bz / 2 + gap + ez / 2))
            if gap <= 0.1:
                stacks.append((upper["id"], base["id"]))
                supports.append(upper)
        while len(nodes) - start < per_room:
            ez = rng.choice([0.2, 0.4, 0.6])
            ext = (_dm(rng, 2, 6), _dm(rng, 2, 6), ez)
            add(ext, (ox + _dm(rng, 0, ROOM_SIZE_DM), oy + _dm(rng, 0, ROOM_SIZE_DM), ez / 2))
    return nodes, stacks


def translated(nodes: list[dict], offset_dm: tuple[int, int, int]) -> list[dict]:
    """The same scene moved by a whole number of decimetres on each axis."""
    out = []
    for node in nodes:
        moved = dict(node)
        moved["bbox_center"] = [round(c + o / 10.0, 1) for c, o in zip(node["bbox_center"], offset_dm)]
        out.append(moved)
    return out


def _ref(node: dict) -> str:
    return f"{node['object_tag']} (id: {node['id']})"


def _volume(node: dict) -> float:
    x, y, z = node["bbox_extent"]
    return x * y * z


def ask_queries(nodes: list[dict], stacks: list[tuple[int, int]], seed: int, count: int) -> list[str]:
    """Decidable questions about named objects: on-top-of both ways,
    containment and size comparison between clearly different boxes."""
    rng = random.Random(seed)
    by_id = {n["id"]: n for n in nodes}
    queries: list[str] = []
    while len(queries) < count:
        kind = len(queries) % 4
        if kind in (0, 1):
            upper, base = rng.choice(stacks)
            a, b = (by_id[upper], by_id[base]) if kind == 0 else (by_id[base], by_id[upper])
            queries.append(f"Is the {_ref(a)} located on top of the {_ref(b)}?")
            continue
        a, b = rng.sample(nodes, 2)
        if a["object_tag"] == b["object_tag"]:
            continue
        if kind == 2:
            queries.append(f"Can the {_ref(a)} contain the {_ref(b)}?")
        else:
            ratio = _volume(a) / _volume(b)
            if 1 / 1.5 < ratio < 1.5:
                continue
            queries.append(f"Which is bigger, the {_ref(a)} or the {_ref(b)}?")
    return queries


@dataclass(frozen=True)
class WrittenScene:
    path: str
    nodes: list[dict]


def write_scene(path, nodes: list[dict]) -> WrittenScene:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(nodes, indent=1), encoding="utf-8")
    return WrittenScene(str(path), nodes)


# --- stand-in for a remote model endpoint -----------------------------------

# Share of replies per drift kind, in hundredths of the replies of one round.
DRIFT_SHARE = {"lower_headers": 10, "hyphen_headers": 10, "prose": 10, "fence": 10, "braces": 25}
DRIFT_KINDS = tuple(DRIFT_SHARE)
STRAY_BRACES = 300
PROSE = "Looking at the box centres and extents in the scene description, "


def drift_plan(texts: list[tuple[int, str]], seed: int) -> dict[tuple[int, str], str]:
    """Assign a drift kind to an exact share of (scene, query text) keys.

    Keys are ordered by a seeded hash of the text, so the choice depends
    on the text alone and not on the order in which replies are asked for.
    """
    keys = sorted(set(texts), key=lambda k: hashlib.sha256(f"{seed}:{k[0]}:{k[1]}".encode()).hexdigest())
    plan: dict[tuple[int, str], str] = {}
    pos = 0
    for kind in DRIFT_KINDS:
        take = len(keys) * DRIFT_SHARE[kind] // 100
        for key in keys[pos : pos + take]:
            plan[key] = kind
        pos += take
    return plan


def apply_drift(reply: str, kind: str) -> str:
    """Rewrite a clean five-step reply the way real model output drifts.

    None of the rewrites changes what the reply says: a lenient parser
    must score the drifted reply exactly as the clean one. The prose
    prefix avoids words that start with "no" or contain yes/no/not.
    """
    if kind == "lower_headers":
        return reply.replace("STEP-5", "step 5").replace("STEP", "step").replace("Final Answer", "final answer")
    if kind == "hyphen_headers":
        return reply.replace("STEP1", "STEP-1").replace("STEP2", "STEP-2").replace("STEP3", "STEP-3").replace(
            "STEP4", "STEP-4"
        )
    head, sep, rest = reply.partition("STEP4 - Final Answer: ")
    if not sep:
        return reply
    answer, nl, tail = rest.partition("\n")
    json_at = answer.rfind(" {")
    if kind == "prose":
        return f"{head}{sep}{PROSE}{answer}{nl}{tail}"
    if json_at < 0:
        return reply
    sentence, final_json = answer[:json_at], answer[json_at + 1 :]
    if kind == "fence":
        return f"{head}{sep}{sentence}\n```json\n{final_json}\n```{nl}{tail}"
    # braces: unbalanced openers between the sentence and the final JSON.
    return f"{head}{sep}{sentence} {'{ ' * STRAY_BRACES}{final_json}{nl}{tail}"


class RemoteStandIn:
    """A `Backend` that behaves like an HTTP endpoint for one scene.

    Each call waits a fixed delay, then returns the oracle-rendered reply,
    rewritten by the drift plan entry for the query text, or `None` for a
    query in `null_texts`. Holds no mutable state, so concurrent calls
    are safe.
    """

    def __init__(self, inner, scene_key: int, plan: dict, null_texts: frozenset, delay_s: float):
        self._inner = inner
        self._key = scene_key
        self._plan = plan
        self._null = null_texts
        self._delay = delay_s

    def complete(self, system_text: str, user_text: str):
        time.sleep(self._delay)
        if user_text in self._null:
            return None
        reply = self._inner.complete(system_text, user_text)
        kind = self._plan.get((self._key, user_text))
        return apply_drift(reply, kind) if kind else reply
