"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of `scenequery` at the module
attributes that other layers call through (for example
`scenequery.prompts.serialize_scene`, which `build_prompt` calls) with
wrappers that record a span per call: name, start, end, parent span and
operation id. `uninstall` puts the originals back. An attribute that a
later version of the program no longer has is skipped, and its metrics
read 0.

Spans stay in memory and are written out by `write`. Totals per layer
(calls, inclusive time, self time) are folded in at the end of every
operation, so they cover every traced operation even when the span log
is capped. Self time is a span's duration minus the union of the
intervals its child spans cover, which stays right if a layer later
runs its children on several threads.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

# Span name -> the (module, attribute) pairs through which callers reach it.
SPANS = {
    "cli.main": [("cli", "main")],
    "scene_model.parse_scene": [("cli", "parse_scene")],
    "oracle.interpret_query": [("cli", "interpret_query"), ("llm", "interpret_query")],
    "oracle.derive_edges": [("cli", "derive_edges")],
    "prompts.build_prompt": [("cli", "build_prompt"), ("evalharness", "build_prompt")],
    "prompts.load_template": [("prompts", "load_template")],
    "prompts.compact_scene": [("prompts", "compact_scene")],
    "scene_model.serialize_scene": [("prompts", "serialize_scene"), ("cli", "serialize_scene")],
    "llm.backend": [("llm", "complete")],
    "llm.oracle_backed_mock": [("llm", "oracle_backed_mock")],
    "evalharness.run_eval": [("evalharness", "run_eval"), ("cli", "run_eval")],
    "evalharness.score": [("evalharness", "score")],
    "parsing.parse_response": [("evalharness", "parse_response"), ("cli", "parse_response")],
    "parsing.extract_json_block": [("parsing", "extract_json_block")],
    "parsing.validate_grounding": [("evalharness", "validate_grounding"), ("cli", "validate_grounding")],
}
# Called once per node pair inside derive_edges: counted, not spanned.
COUNTED = {"oracle.pair_tests": [("oracle", "on_top_of"), ("oracle", "near")]}


def _observe_bundle(bundle) -> dict:
    return {
        "prompts.compaction_actions": len(bundle.compaction_report),
        "prompts.kept_nodes": len(bundle.included_node_ids),
        "prompts.prompt_tokens": bundle.token_estimate,
    }


# Values read off a layer's return value.
OBSERVE = {
    "prompts.build_prompt": _observe_bundle,
    "oracle.derive_edges": lambda edges: {"oracle.edges": len(edges)},
}
PACKAGE = "scenequery"
ROOT_SPAN = "op"
MAX_KEPT_SPANS = 50_000


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self.ops = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self.in_flight = 0
        self.max_in_flight = 0
        self._op_id = 0
        self._root = 0
        self._op_first = 0

    # -- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        for name, sites in SPANS.items():
            for module, attr in sites:
                self._replace(module, attr, lambda fn, name=name: self._spanned(name, fn))
        for name, sites in COUNTED.items():
            for module, attr in sites:
                self._replace(module, attr, lambda fn, name=name: self._counted(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name: str, fn):
        observe = OBSERVE.get(name)
        backend = name == "llm.backend"

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            if backend:
                with self._lock:
                    self.in_flight += 1
                    self.max_in_flight = max(self.max_in_flight, self.in_flight)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, self._op_id))
                if backend:
                    with self._lock:
                        self.in_flight -= 1
            if observe is not None:
                with self._lock:
                    for key, value in observe(result).items():
                        self.values[key] += value
            return result

        return traced

    def _counted(self, name: str, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- operations --------------------------------------------------------------

    def begin_op(self) -> None:
        self._op_id += 1
        self._root = next(self._ids)
        self._op_first = len(self.spans)
        self._op_start = perf_counter()

    def end_op(self) -> None:
        """Close the operation's root span and fold its spans into the totals."""
        self.spans.append((self._root, ROOT_SPAN, self._op_start, perf_counter(), 0, self._op_id))
        self.ops += 1
        mine = self.spans[self._op_first :]
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, _name, start, end, parent, _op in mine:
            children[parent].append((start, end))
        for sid, name, start, end, _parent, _op in mine:
            if name == ROOT_SPAN:
                continue
            self.calls[name] += 1
            self.ms[name] += (end - start) * 1000
            self.self_ms[name] += (end - start - _union_length(children.get(sid, []), start, end)) * 1000
        if len(self.spans) > MAX_KEPT_SPANS:
            self.dropped += len(mine)
            del self.spans[self._op_first :]
        self._root = 0

    # -- output ----------------------------------------------------------------------

    def per_op(self, table: dict, name: str) -> float:
        return table.get(name, 0) / self.ops if self.ops else 0.0

    def write(self, path, origin: float, header: dict) -> None:
        """Spans as JSON lines, times in seconds from `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans_kept": len(self.spans), "spans_dropped": self.dropped}) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": round(start - origin, 7),
                         "end": round(end - origin, 7), "parent": parent, "op": op}
                    )
                    + "\n"
                )
