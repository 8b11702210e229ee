"""Benchmark of the scenequery pipeline: four workloads, one closed-loop client.

    python3 perfbench/run.py --workload eval-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
`src/` next to this directory. One process, one thread, one operation at
a time. The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. End-to-end
times count CPU time at a fixed reference host speed (see `host_speed`).
See README.md for what an operation is on each workload and how the
figures were set.
"""

import os
import time

_SCRIPT_START = time.perf_counter()


def _process_age() -> float:
    """Seconds since the kernel started this process (10 ms resolution).

    Falls back to 0, which leaves interpreter start-up out of set-up time.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE_AT_SCRIPT_START = _process_age()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402


class OpFailed(RuntimeError):
    """A CLI operation returned a non-zero exit code."""


def load_program():
    """Import scenequery from the checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "scenequery" / "__init__.py").is_file():
        print(f"error: no scenequery package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import scenequery

    if Path(scenequery.__file__).resolve().parent != (src / "scenequery").resolve():
        print(f"error: imported scenequery from {scenequery.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    from scenequery import cli, evalharness, llm  # noqa: F401

    return scenequery


def _quiet_cli(sq, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sq.cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit code {code}")
    return buf.getvalue()


class Workload:
    """A fixed list of operations, run in order and repeated.

    The loop stops only at a multiple of `round_len` operations, so every
    run attempts whole rounds and the share of failed operations is the
    same in every run.
    """

    round_len = 1

    def __init__(self, sq):
        self.sq = sq
        self.own_s = 0.0  # time spent making the benchmark's own inputs
        self.ops: list = []
        self._first: dict = {}
        self.mismatches = 0

    def run(self, op):
        raise NotImplementedError

    def expected_failure(self, op, exc: BaseException) -> bool:
        return False

    def observe(self, op, output) -> None:
        """Keep the first output of each operation; later repeats must equal it."""
        if op not in self._first:
            self._first[op] = output
        elif output != self._first[op]:
            self.mismatches += 1

    def check(self) -> list[str]:
        errors = self.check_outputs()
        if self.mismatches:
            errors.append(f"{self.mismatches} repeated operations gave a different output")
        return errors

    def check_outputs(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class EvalSmall(Workload):
    """One op = `run_eval` over one 10-node Mixed scene and all its queries."""

    scenes = 40

    def __init__(self, sq, seed: int):
        super().__init__(sq)
        ev = sq.evalharness
        rng = random.Random(seed)
        self.tasks = []
        for _ in range(self.scenes):
            gen = ev.generate_scene(ev.SceneRecipe(seed=rng.randrange(2**31), node_count=10, layout=ev.Layout.MIXED))
            self.tasks.append((gen, ev.generate_queries(gen)))
        self.backends = [sq.llm.OracleMockBackend(gen.scene) for gen, _ in self.tasks]
        self.ops = list(range(len(self.tasks)))
        self.round_len = len(self.ops)

    def run(self, i):
        return self.sq.evalharness.run_eval([self.tasks[i]], backend=self.backends[i]).records

    def check_outputs(self) -> list[str]:
        errors = []
        for i, records in self._first.items():
            gen, queries = self.tasks[i]
            errors += checks.check_eval(gen, queries, records)
        return errors


class EvalRemote(EvalSmall):
    """As eval-small, against a backend that waits like an endpoint and drifts.

    Each round is `scenes` seeded scenes plus one fixed scene, made from
    the same seed in every run, whose first query gets a null reply. That
    operation fails in every round (parse_response(None) raises TypeError),
    so the failed share is fixed at 1 / (scenes + 1).
    """

    scenes = 7
    delay_s = 0.020
    null_scene_seed = 0

    def __init__(self, sq, seed: int):
        super().__init__(sq, seed)
        ev = sq.evalharness
        null_gen = ev.generate_scene(ev.SceneRecipe(seed=self.null_scene_seed, node_count=10, layout=ev.Layout.MIXED))
        self.tasks.append((null_gen, ev.generate_queries(null_gen)))
        self.null_op = len(self.tasks) - 1
        self.null_text = self.tasks[self.null_op][1][0].query_text

        t0 = time.perf_counter()
        # Only replies that carry a final JSON answer can drift in every way.
        keys = [
            (i, q.query_text)
            for i, (_, qs) in enumerate(self.tasks[: self.null_op])
            for q in qs
            if q.category in sq.oracle.DECIDABLE_CATEGORIES
        ]
        self.plan = inputs.drift_plan(keys, seed)
        self.clean = self.backends + [sq.llm.OracleMockBackend(null_gen.scene)]
        self.backends = [
            inputs.RemoteStandIn(
                inner, i, self.plan, frozenset([self.null_text]) if i == self.null_op else frozenset(), self.delay_s
            )
            for i, inner in enumerate(self.clean)
        ]
        self.own_s = time.perf_counter() - t0
        self.ops = list(range(len(self.tasks)))
        self.round_len = len(self.ops)

    def expected_failure(self, op, exc) -> bool:
        return op == self.null_op and isinstance(exc, TypeError)

    def check_outputs(self) -> list[str]:
        errors = []
        for i, records in self._first.items():
            gen, queries = self.tasks[i]
            if i == self.null_op:
                # Reached only once null replies no longer abort run_eval.
                if records[0].verdict != "unparseable":
                    errors.append(f"null reply scored {records[0].verdict}, not unparseable")
                errors += checks.check_eval(gen, queries[1:], records[1:])
                continue
            errors += checks.check_eval(gen, queries, records)
            clean = self.sq.evalharness.run_eval([self.tasks[i]], backend=self.clean[i]).records
            errors += checks.check_twins(records, clean)
            drifted = sum(r.raw_response != c.raw_response for r, c in zip(records, clean))
            planned = sum((i, q.query_text) in self.plan for q in queries)
            if drifted != planned:
                errors.append(f"scene {i}: {drifted} drifted replies, {planned} planned")
        return errors


class AskLarge(Workload):
    """One op = `scenequery --format json --budget B ask SCENE QUERY` on a
    360-object scene, with B low enough to prune about a hundred nodes."""

    scenes = 3
    queries_per_scene = 4
    budget = 7200

    def __init__(self, sq, seed: int):
        super().__init__(sq)
        t0 = time.perf_counter()
        rng = random.Random(seed)
        self.scene_files = []
        for k in range(self.scenes):
            nodes, stacks = inputs.dense_scene(rng.randrange(2**31), rooms=12)
            scene = inputs.write_scene(OUT / f"work-{os.getpid()}" / f"ask-{k}.json", nodes)
            self.scene_files.append(scene)
            for query in inputs.ask_queries(nodes, stacks, rng.randrange(2**31), self.queries_per_scene):
                self.ops.append((k, query))
        self.own_s = time.perf_counter() - t0
        # The prompt the pipeline sent is checked too: keep what the oracle backend receives.
        self._backend_cls = sq.llm.OracleMockBackend
        original = self._complete = self._backend_cls.complete
        self._prompt = None

        def complete(backend, system_text, user_text):
            self._prompt = system_text
            return original(backend, system_text, user_text)

        self._backend_cls.complete = complete

    def run(self, op):
        k, query = op
        self._prompt = None
        stdout = _quiet_cli(
            self.sq, ["--format", "json", "--budget", str(self.budget), "ask", self.scene_files[k].path, query]
        )
        return self._prompt, stdout

    def check_outputs(self) -> list[str]:
        errors = []
        for (k, query), (prompt, stdout) in self._first.items():
            if prompt is None:
                errors.append(f"no prompt reached the backend for {query!r}")
                continue
            errors += checks.check_ask(self.scene_files[k].nodes, query, self.budget, prompt, stdout)
        return errors

    def close(self) -> None:
        self._backend_cls.complete = self._complete
        _remove_work_files(self.scene_files)


class RelationsLarge(Workload):
    """One op = `scenequery --format json describe SCENE --relations` on a
    dense 300-object scene. Each scene runs next to a copy of itself moved
    by a whole number of decimetres; both must give the same edges."""

    scenes = 3

    def __init__(self, sq, seed: int):
        super().__init__(sq)
        t0 = time.perf_counter()
        rng = random.Random(seed)
        self.scene_files = []
        for k in range(self.scenes):
            nodes, _ = inputs.dense_scene(rng.randrange(2**31), rooms=10)
            offset = (rng.randint(-500, 500), rng.randint(-500, 500), rng.randint(-30, 30))
            for moved, scene_nodes in ((False, nodes), (True, inputs.translated(nodes, offset))):
                path = OUT / f"work-{os.getpid()}" / f"relations-{k}{'-moved' if moved else ''}.json"
                self.scene_files.append(inputs.write_scene(path, scene_nodes))
                self.ops.append(len(self.scene_files) - 1)
        self.own_s = time.perf_counter() - t0
        self.round_len = 2

    def run(self, i):
        return _quiet_cli(self.sq, ["--format", "json", "describe", self.scene_files[i].path, "--relations"])

    def check_outputs(self) -> list[str]:
        errors = []
        for i, stdout in self._first.items():
            errors += checks.check_relations(self.scene_files[i].nodes, stdout)
            if i % 2 == 1 and i - 1 in self._first:
                errors += checks.check_translation(self._first[i - 1], stdout)
        return errors

    def close(self) -> None:
        _remove_work_files(self.scene_files)


def _remove_work_files(scenes) -> None:
    for scene in scenes:
        Path(scene.path).unlink(missing_ok=True)
    if scenes:
        with contextlib.suppress(OSError):
            Path(scenes[0].path).parent.rmdir()


def _probe() -> int:
    """Fixed Python work of the program's kind: dicts, tuples, strings, a sort."""
    table = {}
    keys = []
    for i in range(2000):
        key = f"k{i}"
        table[key] = (i, i * 0.5, key)
        keys.append(table[key][2] + "x")
    keys.sort(key=len)
    return len(table)


# CPU seconds of one _probe() call on the development host (median of 283
# samples). End-to-end times are expressed at this speed.
PROBE_REF_S = 0.0011
CALIBRATE_EVERY_S = 0.25


def host_speed() -> float:
    """How fast the host runs Python right now, relative to the reference (>1 is faster).

    The host this benchmark was built on changes speed by up to 40 % over
    minutes while process CPU time moves with wall time, so raw wall times
    of two runs of the same code disagree by more than any useful bound.
    Scaling CPU time by this factor, sampled between operations, removes
    most of that drift; time spent waiting (sleep, I/O) is not scaled.
    """
    start = time.process_time()
    calls = 0
    while time.process_time() - start < 0.02:
        _probe()
        calls += 1
    return PROBE_REF_S * calls / (time.process_time() - start)


def at_reference_speed(wall: float, cpu: float, speed: float) -> float:
    """Wall time with its CPU-busy part rescaled from `speed` to the reference."""
    busy = min(max(cpu, 0.0), wall)
    return wall - busy + busy * speed


WORKLOADS = {"eval-small": EvalSmall, "ask-large": AskLarge, "relations-large": RelationsLarge, "eval-remote": EvalRemote}

END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_metrics(tr: Tracer, overhead_pct: float) -> dict:
    """Every per-layer metric, per traced operation."""
    spans_ms = ["scene_model.serialize_scene", "llm.oracle_backed_mock", "oracle.derive_edges",
                "scene_model.parse_scene", "oracle.interpret_query", "parsing.extract_json_block",
                "parsing.validate_grounding"]
    spans_self_ms = ["prompts.build_prompt", "evalharness.score", "evalharness.run_eval", "prompts.compact_scene",
                     "cli.main", "parsing.parse_response"]
    out = {"prompts.load_template.calls": (tr.per_op(tr.calls, "prompts.load_template"), "count"),
           "scene_model.serialize_scene.calls": (tr.per_op(tr.calls, "scene_model.serialize_scene"), "count")}
    out.update({f"{n}.ms": (tr.per_op(tr.ms, n), "ms") for n in spans_ms})
    out.update({f"{n}.self_ms": (tr.per_op(tr.self_ms, n), "ms") for n in spans_self_ms})
    out["prompts.compaction_actions"] = (tr.per_op(tr.values, "prompts.compaction_actions"), "count")
    out["prompts.kept_nodes"] = (tr.per_op(tr.values, "prompts.kept_nodes"), "count")
    out["prompts.prompt_tokens"] = (tr.per_op(tr.values, "prompts.prompt_tokens"), "tokens")
    out["oracle.pair_tests"] = (tr.per_op(tr.counts, "oracle.pair_tests"), "count")
    out["oracle.edges"] = (tr.per_op(tr.values, "oracle.edges"), "count")
    out["llm.backend.wait_ms"] = (tr.per_op(tr.ms, "llm.backend"), "ms")
    out["llm.backend.calls"] = (tr.per_op(tr.calls, "llm.backend"), "count")
    out["llm.backend.max_in_flight"] = (tr.max_in_flight, "count")
    out["tracing_overhead_pct"] = (overhead_pct, "%")
    return out


class Timing(NamedTuple):
    """One operation's wall and process CPU time, and the host-speed sample before it."""

    wall: float
    cpu: float
    sample: int
    ok: bool


def measure(wl: Workload, seconds: float, tracer: Tracer | None):
    """Closed loop over wl.ops until `seconds` have passed at a round boundary.

    The host speed is sampled before the first operation, after any
    operation that ends 0.25 s or more after the last sample, and at the end.
    With a tracer, every operation runs twice, once traced and once not, in
    alternating order; the untraced times give the tracing overhead.
    """
    timings: list[Timing] = []  # untraced operations
    traced: list[Timing] = []
    attempted = failed = 0
    unexpected: list[str] = []
    speeds: list[float] = []

    def once(op, with_trace: bool) -> Timing:
        nonlocal attempted, failed
        if with_trace:
            tracer.install()
            tracer.begin_op()
        attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            output = wl.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            output = None
            failed += 1
            if not wl.expected_failure(op, exc):
                unexpected.append("".join(traceback.format_exception_only(type(exc), exc)).strip())
                if len(unexpected) == 1:
                    traceback.print_exc(file=sys.stderr)
        timing = Timing(time.perf_counter() - t0, time.process_time() - c0, len(speeds) - 1, output is not None)
        if with_trace:
            tracer.end_op()
            tracer.uninstall()
        if output is not None:
            wl.observe(op, output)
        return timing

    ready_at, setup_cpu = time.perf_counter(), time.process_time()
    speeds.append(host_speed())
    last_sample = time.perf_counter()
    i = 0
    while i < 2 or i % wl.round_len or time.perf_counter() - ready_at < seconds:
        op = wl.ops[i % len(wl.ops)]
        if tracer is None:
            timings.append(once(op, False))
        elif i % 2:
            traced.append(once(op, True))
            timings.append(once(op, False))
        else:
            timings.append(once(op, False))
            traced.append(once(op, True))
        i += 1
        if time.perf_counter() - last_sample >= CALIBRATE_EVERY_S:
            speeds.append(host_speed())
            last_sample = time.perf_counter()
    speeds.append(host_speed())
    return {
        "ready_at": ready_at,
        "setup_cpu": setup_cpu,
        "timings": timings,
        "traced": traced,
        "speeds": speeds,
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
    }


def reference_times(timings: list[Timing], speeds: list[float]) -> list[float]:
    """Each operation's time at reference speed, using the samples before and after it."""
    return [
        at_reference_speed(t.wall, t.cpu, (speeds[t.sample] + speeds[t.sample + 1]) / 2) for t in timings
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # Host speed at the start of set-up; this sample's own time is left out of set-up.
    probe_t0, probe_c0 = time.perf_counter(), time.process_time()
    speed_at_start = host_speed()
    probe_wall, probe_cpu = time.perf_counter() - probe_t0, time.process_time() - probe_c0
    sq = load_program()
    wl = WORKLOADS[args.workload](sq, args.seed)
    tracer = Tracer() if args.trace else None
    try:
        run = measure(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = wl.check()
    finally:
        wl.close()
    # Set-up runs from process start; its CPU part is rescaled by the samples taken
    # when main() starts and when set-up ends, as an operation's is.
    setup_wall = _AGE_AT_SCRIPT_START + (run["ready_at"] - _SCRIPT_START) - wl.own_s - probe_wall
    setup_cpu = run["setup_cpu"] - wl.own_s - probe_cpu
    setup_s = at_reference_speed(setup_wall, setup_cpu, (speed_at_start + run["speeds"][0]) / 2)
    errors += run["unexpected"]
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)

    done = run["attempted"] - run["failed"]
    timings = run["timings"]
    if tracer is None:
        ref = reference_times(timings, run["speeds"])
        p50 = statistics.median(r if t.ok else float("inf") for r, t in zip(ref, timings))
        metrics = {
            "ops_per_s": done / sum(ref),
            "op_ms_p50": p50 * 1000 if p50 != float("inf") else None,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        raw_ok = sorted(t.wall for t in timings if t.ok)
        extra = {
            "samples": len(timings),
            "host_speed_median": statistics.median(run["speeds"]),
            "raw_ops_per_s": done / sum(t.wall for t in timings),
            "raw_op_ms_p50": 1000 * statistics.median(t.wall if t.ok else float("inf") for t in timings),
            "raw_setup_s": setup_wall,
            "setup_cpu_s": setup_cpu,
            "raw_op_ms_p90": 1000 * raw_ok[int(0.9 * (len(raw_ok) - 1))] if raw_ok else None,
        }
    else:
        pairs = [(a.wall, b.wall) for a, b in zip(run["traced"], timings) if a.ok and b.ok]
        plain = sum(b for _, b in pairs)
        overhead = 100.0 * (sum(a for a, _ in pairs) / plain - 1) if plain else 0.0
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer_metrics(tracer, overhead).items()}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, run["ready_at"], {"workload": args.workload, "seed": args.seed, "ops": tracer.ops})
        extra = {"samples": len(run["traced"]), "trace_file": str(trace_path.relative_to(ROOT))}

    result = {
        "correct": not errors and all(m["value"] is not None for m in metrics.values()),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "extra": extra}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
