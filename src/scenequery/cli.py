"""Command-line interface.

Exit codes are a stable contract:
  0  success
  1  scene validation failure / infeasible budget / ungrounded answer
  2  I/O, network or auth failure, or stdout closed early (a pipe into `head`)
  3  response parse failure
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from . import llm as llm_mod
from .evalharness import (
    EvalConfig,
    Layout,
    SceneRecipe,
    answer,
    generate_queries,
    generate_scene,
    run_eval,
)
from .oracle import OracleConfig, SpatialRelation, derive_edges
from .prompts import BudgetInfeasible, build_prompt, length_tokens
from .scene_model import SceneError, SceneGraph, parse_scene, scene_issues, serialized_length

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_PARSE = 3

DEFAULT_CONFIG_PATH = "scenequery.json"


def load_config(path: Optional[str], args: argparse.Namespace) -> EvalConfig:
    """Merge config file, environment and flags (flag > env > file > default);
    a file key that no config class has raises TypeError."""
    raw: dict = {}
    config_path = path or (DEFAULT_CONFIG_PATH if os.path.exists(DEFAULT_CONFIG_PATH) else None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{config_path} must hold a JSON object")
    sections = {"oracle": OracleConfig, "llm": llm_mod.LlmConfig}
    # Built before the flags apply, so a bad file value is reported even
    # where a flag overrides it.
    cfg = EvalConfig(**{k: sections[k](**v) if k in sections else v for k, v in raw.items()})
    if args.budget is not None:
        cfg = replace(cfg, budget=args.budget)
    if args.strict:
        cfg = replace(cfg, strict_parse=True)
    return cfg


def _read_scene(path: str) -> SceneGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    try:
        return parse_scene(text)
    except SceneError as exc:
        print(f"error: invalid scene: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# One node and one edge of `describe --format json`, as json.dumps(...,
# indent=2, sort_keys=True) writes them inside the payload's lists.
_NODE_JSON = (
    "    {\n"
    '      "bbox_center": [\n        %r,\n        %r,\n        %r\n      ],\n'
    '      "bbox_extent": [\n        %r,\n        %r,\n        %r\n      ],\n'
    '      "id": %d,\n'
    '      "object_tag": %s\n'
    "    }"
)
# Per relation, with the relation's JSON string already written in.
_EDGE_JSON = {
    rel: "    [\n      %d,\n      " + encode_basestring_ascii(rel.value) + ",\n      %d\n    ]"
    for rel in SpatialRelation
}


def _json_items(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _describe_json(scene: SceneGraph, edges: Optional[list]) -> str:
    """The bytes of json.dumps({"nodes": [...], "edges": [...]}, indent=2,
    sort_keys=True) for describe's rows, written without building them:
    with indent set, json.dumps runs its pure-Python encoder, about five
    times slower on large scenes. Box components are finite floats and
    ids are ints, so float.__repr__ and %d write what json writes."""
    fields = []
    if edges is not None:
        fields.append(
            '"edges": '
            + _json_items([_EDGE_JSON[rel] % (s, o) for s, rel, o in edges])
        )
    nodes = [
        _NODE_JSON % (*n.bbox_center, *n.bbox_extent, n.id, encode_basestring_ascii(n.object_tag))
        for n in scene.nodes
    ]
    fields.append('"nodes": ' + _json_items(nodes))
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def _print_text(text: str, file=None) -> None:
    """Print text output. Characters the stream cannot encode (a lone
    surrogate in a tag, say) are written as backslash escapes."""
    file = file or sys.stdout
    try:
        print(text, file=file)
    except UnicodeEncodeError:
        encoding = file.encoding or "utf-8"
        print(text.encode(encoding, "backslashreplace").decode(encoding), file=file)


def _emit(payload: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        _print_json(payload)
    else:
        _print_text(text)


def cmd_validate(args: argparse.Namespace, cfg: EvalConfig) -> int:
    try:
        text = Path(args.scene).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        if args.format == "json":
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: cannot read {args.scene}: {exc}", file=sys.stderr)
        return EXIT_IO
    count, issues = scene_issues(text)
    payload = {"nodes": count, "issues": [str(i) for i in issues]}
    lines = [f"{count} nodes, {len(issues)} issues"] + [f"  {i}" for i in issues]
    _emit(payload, "\n".join(lines), args.format)
    return EXIT_OK if not issues else EXIT_INVALID


def cmd_describe(args: argparse.Namespace, cfg: EvalConfig) -> int:
    scene = _read_scene(args.scene)
    edges = derive_edges(scene, cfg.oracle) if args.relations else None
    # Only the output that is printed is built.
    if args.format == "json":
        print(_describe_json(scene, edges))
        return EXIT_OK
    lines = [
        f"{n.id:>4}  {n.object_tag:<20} center {list(n.bbox_center)}  extent {list(n.bbox_extent)}"
        for n in scene.nodes
    ]
    if edges is not None:
        lines.append("")
        lines.append("relations:")
        lines.extend(f"  {s} {rel.value} {o}" for s, rel, o in edges)
        if not edges:
            lines.append("  (none)")
    _print_text("\n".join(lines))
    return EXIT_OK


def _make_backend(kind: str, scene: Optional[SceneGraph], cfg: EvalConfig, mock_script_path: Optional[str]):
    """The backend for `kind`; only "oracle" reads `scene`."""
    if kind == "oracle":
        return llm_mod.OracleMockBackend(scene, cfg.oracle)
    if kind == "mock":
        if not mock_script_path:
            print("error: --backend mock requires --mock-script", file=sys.stderr)
            raise SystemExit(EXIT_IO)
        try:
            with open(mock_script_path, encoding="utf-8") as fh:
                return llm_mod.MockBackend(json.load(fh))
        except (OSError, ValueError, TypeError) as exc:
            print(f"error: bad mock script {mock_script_path}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_IO)
    return llm_mod.HttpBackend(cfg.llm)


def _pipeline_failure(exc: Exception) -> int:
    """Print a backend or budget failure as one error line; return its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_IO if isinstance(exc, llm_mod.LlmError) else EXIT_INVALID


def _run_ask(scene: SceneGraph, query: str, backend, cfg: EvalConfig, fmt: str) -> int:
    """Answer one query, print the result and return its exit code."""
    try:
        result = answer(scene, query, backend, cfg)
    except (llm_mod.LlmError, BudgetInfeasible) as exc:
        return _pipeline_failure(exc)
    parsed, issues = result.parsed, result.issues
    if parsed is None:
        _print_text(f"error: unparseable response: {result.error}", sys.stderr)
        if result.raw:
            _print_text(result.raw, sys.stderr)
        return EXIT_PARSE

    payload = {
        "inferred_query": parsed.inferred_query,
        "relevant_objects": list(parsed.relevant_object_ids),
        "relevance_reason": parsed.relevance_reason,
        "final_text": parsed.final_text,
        "final_object_tag": parsed.final_object_tag,
        "final_object_id": parsed.final_object_id,
        "explanation": parsed.explanation,
        "grounding_issues": [str(i) for i in issues],
    }
    lines = [
        f"inferred query : {parsed.inferred_query}",
        f"relevant ids   : {list(parsed.relevant_object_ids)}",
        f"answer         : {parsed.final_text}",
        f"explanation    : {parsed.explanation}",
    ]
    if issues:
        lines.append("grounding issues:")
        lines.extend(f"  {issue}" for issue in issues)
    _emit(payload, "\n".join(lines), fmt)
    return EXIT_OK if not issues else EXIT_INVALID


def cmd_ask(args: argparse.Namespace, cfg: EvalConfig) -> int:
    scene = _read_scene(args.scene)
    backend = _make_backend(args.backend, scene, cfg, args.mock_script)
    return _run_ask(scene, args.query, backend, cfg, args.format)


def cmd_repl(args: argparse.Namespace, cfg: EvalConfig) -> int:
    scene = _read_scene(args.scene)
    backend_kind = args.backend
    # One backend per kind for the whole session: a list script is consumed
    # across queries, and a live backend keeps its connections.
    backends: dict = {}
    print(f"{len(scene.nodes)} nodes loaded; :quit exits, :oracle on|off switches backend")
    for line in sys.stdin:
        query = line.strip()
        if not query:
            continue
        if query == ":quit":
            break
        if query.startswith(":oracle"):
            backend_kind = "oracle" if query.endswith("on") else args.backend
            print(f"backend: {backend_kind}")
            continue
        if backend_kind not in backends:
            backends[backend_kind] = _make_backend(backend_kind, scene, cfg, args.mock_script)
        _run_ask(scene, query, backends[backend_kind], cfg, args.format)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, cfg: EvalConfig) -> int:
    tasks = []
    for seed in range(args.seed, args.seed + args.scenes):
        gen = generate_scene(SceneRecipe(seed=seed, node_count=args.nodes, layout=Layout(args.layout)))
        tasks.append((gen, generate_queries(gen, cfg.oracle)))

    backend = "oracle" if args.backend == "oracle" else _make_backend(args.backend, None, cfg, args.mock_script)
    try:
        report = run_eval(tasks, backend=backend, cfg=cfg)
    except (llm_mod.LlmError, BudgetInfeasible) as exc:
        return _pipeline_failure(exc)

    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
            (out_dir / "report.txt").write_text(report.to_text() + "\n", encoding="utf-8")
            (out_dir / "records.jsonl").write_text(report.to_jsonl(), encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write reports to {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    if args.format == "json":
        print(report.to_json())
    else:
        _print_text(report.to_text())
    return EXIT_OK


def cmd_compact(args: argparse.Namespace, cfg: EvalConfig) -> int:
    scene = _read_scene(args.scene)
    query = args.query or ""
    before = length_tokens(serialized_length(scene))
    try:
        bundle = build_prompt(scene, query, budget=cfg.budget)
    except BudgetInfeasible as exc:
        return _pipeline_failure(exc)
    payload = {
        "scene_estimate_before": before,
        "prompt_estimate_after": bundle.token_estimate,
        "budget": cfg.budget,
        "included_nodes": len(bundle.included_node_ids),
        "actions": list(bundle.compaction_report),
    }
    lines = [
        f"scene estimate before : {before} tokens",
        f"prompt estimate after : {bundle.token_estimate} tokens (budget {cfg.budget})",
        f"included nodes        : {len(bundle.included_node_ids)} of {len(scene.nodes)}",
        "actions:",
    ]
    lines.extend(f"  {a}" for a in bundle.compaction_report)
    if not bundle.compaction_report:
        lines.append("  (none)")
    _emit(payload, "\n".join(lines), args.format)
    return EXIT_OK


def _whole_number(minimum: int):
    """An argparse type: an int of at least `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected a whole number of at least {minimum}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenequery", description="3D scene-graph question answering")
    parser.add_argument("--config", help=f"JSON config file (default: ./{DEFAULT_CONFIG_PATH} if present)")
    parser.add_argument("--format", choices=["text", "json"], default="text", help="output format")
    parser.add_argument("--budget", type=int, help="prompt token budget")
    parser.add_argument("--strict", action="store_true", help="strict response parsing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scene file")
    p.add_argument("scene")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("describe", help="print nodes and derived relations")
    p.add_argument("scene")
    p.add_argument("--relations", action="store_true")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("ask", help="answer one query about a scene")
    p.add_argument("scene")
    p.add_argument("query")
    p.add_argument("--backend", choices=["live", "mock", "oracle"], default="oracle")
    p.add_argument("--mock-script", help="JSON file: list of responses or substring->response map")
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("repl", help="interactive query loop")
    p.add_argument("scene")
    p.add_argument("--backend", choices=["live", "mock", "oracle"], default="oracle")
    p.add_argument("--mock-script")
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser("eval", help="run the synthetic benchmark")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenes", type=_whole_number(0), default=5)
    p.add_argument("--nodes", type=_whole_number(1), default=10)
    p.add_argument("--layout", choices=[l.value for l in Layout], default="Mixed")
    p.add_argument("--backend", choices=["live", "mock", "oracle"], default="oracle")
    p.add_argument("--mock-script")
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compact", help="inspect scene compaction for a budget")
    p.add_argument("scene")
    p.add_argument("--query", default="")
    p.set_defaults(func=cmd_compact)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args leaves the parser unchanged.
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        code = args.func(args, cfg)
        # Output still buffered meets a closed pipe here, not at exit.
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        # The reader closed stdout (`| head`). The interpreter flushes stdout
        # once more at exit; with stdout on os.devnull that flush succeeds
        # and prints no "Exception ignored" line.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
