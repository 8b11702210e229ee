"""`run_eval` on backends that take concurrent calls, and `HttpBackend`
under several threads. Every wait here has a timeout, so a run that
should overlap calls but does not fails instead of hanging."""

import collections
import http.server
import json
import os
import sys
import threading
import time
import zlib

import pytest
import requests

from scenequery.cli import main
from scenequery.evalharness import Layout, SceneRecipe, generate_queries, generate_scene, run_eval
from scenequery.llm import (
    API_KEY_ENV,
    API_URL_ENV,
    DEFAULT_MAX_IN_FLIGHT,
    HttpBackend,
    LlmConfig,
    LlmError,
    MockBackend,
    OracleMockBackend,
    TransportError,
)
from scenequery.scene_model import serialize_scene
from test_llm import FakeResponse, ok_response
from test_scene_model import reference_serialize_scene

WAIT_S = 10.0


def tasks_for(seeds, layout=Layout.MIXED):
    out = []
    for seed in seeds:
        gen = generate_scene(SceneRecipe(seed=seed, node_count=10, layout=layout))
        out.append((gen, generate_queries(gen)))
    return out


def query_texts(tasks):
    return [q.query_text for _, queries in tasks for q in queries]


class SceneOracle:
    """The oracle's reply on whichever task scene the prompt carries.

    Holds no mutable state, so it answers the same from any thread."""

    def __init__(self, tasks):
        self._oracles = [(serialize_scene(gen.scene), OracleMockBackend(gen.scene)) for gen, _ in tasks]

    def reply(self, system_text, user_text):
        for scene_json, oracle in self._oracles:
            if scene_json in system_text:
                return oracle.complete(system_text, user_text)
        raise AssertionError("the prompt carries none of the task scenes")


class JitterBackend:
    """Oracle replies after a 0-4 ms sleep keyed by the user text, so
    concurrent calls finish out of input order."""

    def __init__(self, tasks):
        self._oracle = SceneOracle(tasks)
        self.finished = []

    def complete(self, system_text, user_text):
        time.sleep((zlib.crc32(user_text.encode()) % 5) / 1000)
        reply = self._oracle.reply(system_text, user_text)
        self.finished.append(user_text)
        return reply


class OneAtATime:
    """Another backend, called from one thread at a time."""

    max_in_flight = 1

    def __init__(self, inner):
        self._inner = inner

    def complete(self, system_text, user_text):
        return self._inner.complete(system_text, user_text)


class TestRecordOrder:
    @pytest.mark.parametrize("layout", list(Layout))
    def test_concurrent_output_equals_sequential(self, layout):
        tasks = tasks_for(range(4), layout)
        backend = JitterBackend(tasks)
        concurrent = run_eval(tasks, backend=backend)
        assert backend.finished != query_texts(tasks)
        sequential = run_eval(tasks, backend=OneAtATime(backend))
        assert concurrent.to_json() == sequential.to_json()
        assert concurrent.to_jsonl() == sequential.to_jsonl()
        oracle = run_eval(tasks, backend="oracle")
        assert concurrent.to_jsonl() == oracle.to_jsonl()


class PromptRecorder:
    """Records each (user text, system text) pair; replies with no steps."""

    def __init__(self):
        self.prompts = []

    def complete(self, system_text, user_text):
        self.prompts.append((user_text, system_text))
        return "a reply with no steps"


def test_concurrent_prompts_on_cold_scenes_equal_sequential():
    """Up to `DEFAULT_MAX_IN_FLIGHT` threads build prompts on scenes none
    has serialized yet, so they race to fill each scene's serialization
    cache."""
    sequential = PromptRecorder()
    run_eval(tasks_for(range(4)), backend=OneAtATime(sequential))
    concurrent = PromptRecorder()
    tasks = tasks_for(range(4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a racy lazy set-up would show
    try:
        run_eval(tasks, backend=concurrent)
    finally:
        sys.setswitchinterval(interval)
    assert len(concurrent.prompts) == len(query_texts(tasks))
    assert sorted(concurrent.prompts) == sorted(sequential.prompts)
    for gen, queries in tasks:
        scene_json = reference_serialize_scene(gen.scene)
        assert sum(scene_json in text for _, text in concurrent.prompts) == len(queries)


class CountingBackend:
    """Counts calls in flight. The first `hold` calls wait at a barrier
    until all of them are in flight together, then stay in flight a while
    longer, long enough for a call beyond the width to be counted."""

    def __init__(self, hold):
        self._hold = hold
        self._barrier = threading.Barrier(hold, timeout=WAIT_S)
        self._lock = threading.Lock()
        self.calls = self.in_flight = self.peak = 0

    def complete(self, system_text, user_text):
        with self._lock:
            self.calls += 1
            held = self.calls <= self._hold
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            if held:
                self._barrier.wait()
                time.sleep(0.05)
            return "a reply with no steps"
        finally:
            with self._lock:
                self.in_flight -= 1


class FailingBackend:
    """Fails on two user texts: the earlier query after a wait, the later
    one at once, so the later failure happens first in time."""

    def __init__(self, slow, fast):
        self._slow, self._fast = slow, fast

    def complete(self, system_text, user_text):
        if user_text == self._slow:
            time.sleep(0.05)
            raise LlmError(f"failed: {user_text}")
        if user_text == self._fast:
            raise LlmError(f"failed: {user_text}")
        return "a reply with no steps"


class SlowUnlessFirst:
    """Two calls at once. Fails `first` at once; every other call replies
    after 0.3 s. Records each user text it is sent."""

    max_in_flight = 2

    def __init__(self, first):
        self._first = first
        self._lock = threading.Lock()
        self.sent = []

    def complete(self, system_text, user_text):
        with self._lock:
            self.sent.append(user_text)
        if user_text == self._first:
            raise LlmError(f"failed: {user_text}")
        time.sleep(0.3)
        return "a reply with no steps"


class TestWidth:
    @pytest.mark.parametrize("declared, expected", [(3, 3), (None, DEFAULT_MAX_IN_FLIGHT)])
    def test_calls_overlap_up_to_the_backend_width(self, declared, expected):
        tasks = tasks_for(range(3))
        backend = CountingBackend(expected)
        if declared is not None:
            backend.max_in_flight = declared
        report = run_eval(tasks, backend=backend)
        assert backend.calls == len(report.records) == len(query_texts(tasks))
        assert backend.peak == expected

    def test_every_query_of_a_default_scene_is_in_flight_at_once(self):
        """A 10-node Mixed scene, the kind `eval` makes by default, asks up to
        13 questions. A backend that declares no width gets them all at once,
        so the scene costs one round trip."""
        tasks = tasks_for([0])
        count = len(query_texts(tasks))
        backend = CountingBackend(count)
        run_eval(tasks, backend=backend)
        assert backend.calls == backend.peak == count == 13

    def test_sequential_backends_are_called_on_the_callers_thread(self, monkeypatch):
        threads = []
        for cls in (MockBackend, OracleMockBackend):

            def spy(self, system_text, user_text, original=cls.complete):
                threads.append(threading.get_ident())
                return original(self, system_text, user_text)

            monkeypatch.setattr(cls, "complete", spy)
        tasks = tasks_for(range(3))
        run_eval(tasks, backend=MockBackend({"": "a reply with no steps"}))
        run_eval(tasks, backend=OracleMockBackend(tasks[0][0].scene))
        run_eval(tasks, backend="oracle")
        assert len(threads) == 3 * len(query_texts(tasks))
        assert set(threads) == {threading.get_ident()}

    @pytest.mark.parametrize("concurrent", [True, False])
    def test_first_failure_in_input_order_propagates(self, concurrent):
        tasks = tasks_for([0])
        texts = query_texts(tasks)
        assert len(set(texts)) == len(texts) > 6
        backend = FailingBackend(slow=texts[2], fast=texts[6])
        with pytest.raises(LlmError, match="failed") as info:
            run_eval(tasks, backend=backend if concurrent else OneAtATime(backend))
        assert str(info.value) == f"failed: {texts[2]}"

    def test_queries_not_started_at_a_failure_are_never_sent(self):
        """At width 2 the first query fails at once while every other call
        stays in flight for a while. Besides the failing query, only the one
        already in flight and the one its freed worker may pick up next can
        reach the backend, during the run or after it."""
        tasks = tasks_for([0, 1])
        texts = query_texts(tasks)
        assert len(texts) > 10
        backend = SlowUnlessFirst(texts[0])
        with pytest.raises(LlmError, match="failed"):
            run_eval(tasks, backend=backend)
        sent = list(backend.sent)
        time.sleep(0.5)
        assert backend.sent == sent
        assert texts[0] in sent and set(sent) <= set(texts[:3])


class GarbageResponse(FakeResponse):
    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


class FaultPlan:
    """An HTTP endpoint stub that injects faults, keyed by the request.

    `script_for(user_text)` lists what a request's first attempts get, in
    order; every later attempt gets a 200 with the oracle's reply. Attempts
    are counted per (system text, user text) under a lock, so the same
    request sees the same faults whichever thread sends it. `session` is a
    `requests.Session` stand-in: every session made from one plan shares it.
    """

    def __init__(self, tasks, script_for):
        self._oracle = SceneOracle(tasks)
        self._script_for = script_for
        self._lock = threading.Lock()
        self.attempts = collections.Counter()
        self.sleeps = []

    def session(self):
        return FaultSession(self)

    def respond(self, payload):
        system_text, user_text = (m["content"] for m in payload["messages"])
        with self._lock:
            attempt = self.attempts[system_text, user_text]
            self.attempts[system_text, user_text] += 1
        script = self._script_for(user_text)
        fault = script[attempt] if attempt < len(script) else "ok"
        if fault == "ok":
            return ok_response(self._oracle.reply(system_text, user_text))
        if fault == "timeout":
            raise requests.Timeout("read timed out")
        if fault == "429":
            return FakeResponse(429, headers={"Retry-After": "2"})
        if fault == "garbage":
            return GarbageResponse(200, text="<html>upstream error</html>")
        if fault == "wrong-shape":
            return FakeResponse(200, {"choices": None})
        return FakeResponse(int(fault))


class FaultSession:
    def __init__(self, plan):
        self._plan = plan

    def post(self, url, json=None, headers=None, timeout=None):
        return self._plan.respond(json)


RECOVERABLE = [[], ["500"], ["503", "429"], ["timeout"], ["429", "timeout", "502"], []]
CFG = LlmConfig(base_url="http://stub.test/v1", max_retries=3)


def recoverable_script(user_text):
    return RECOVERABLE[zlib.crc32(user_text.encode()) % len(RECOVERABLE)]


def http_backend(plan, session=None):
    return HttpBackend(CFG, api_key="k", session=session, sleep=plan.sleeps.append)


class TestFaultInjectingSession:
    def test_concurrent_run_retries_and_equals_sequential(self, monkeypatch):
        tasks = tasks_for(range(4))
        plans = [FaultPlan(tasks, recoverable_script) for _ in range(3)]
        monkeypatch.setattr("requests.Session", plans[0].session)
        concurrent = run_eval(tasks, backend=http_backend(plans[0]))
        shared = run_eval(tasks, backend=http_backend(plans[1], session=plans[1].session()))
        monkeypatch.setattr("requests.Session", plans[2].session)
        sequential = run_eval(tasks, backend=OneAtATime(http_backend(plans[2])))

        assert concurrent.to_jsonl() == sequential.to_jsonl() == shared.to_jsonl()
        assert concurrent.to_json() == sequential.to_json() == shared.to_json()
        assert concurrent.to_jsonl() == run_eval(tasks, backend="oracle").to_jsonl()
        scripts = [recoverable_script(text) for text in query_texts(tasks)]
        assert sum(map(len, scripts)) > 10
        for plan in plans:
            assert sum(plan.attempts.values()) == sum(len(s) + 1 for s in scripts)
            assert sorted(plan.sleeps) == sorted(plans[2].sleeps)
            assert plan.sleeps.count(2.0) >= sum(s.count("429") for s in scripts)

    @pytest.mark.parametrize("fault", ["500", "429", "timeout"])
    def test_exhausted_retries_raise_transport_error(self, monkeypatch, fault):
        tasks = tasks_for(range(2))
        doomed = query_texts(tasks)[5]
        assert query_texts(tasks).count(doomed) == 1
        plan = FaultPlan(tasks, lambda text: [fault] * 4 if text == doomed else recoverable_script(text))
        monkeypatch.setattr("requests.Session", plan.session)
        with pytest.raises(TransportError, match="after 4 attempts"):
            run_eval(tasks, backend=http_backend(plan))
        assert [n for (_, text), n in plan.attempts.items() if text == doomed] == [4]

    @pytest.mark.parametrize("fault", ["garbage", "wrong-shape"])
    def test_bad_body_is_not_retried(self, monkeypatch, fault):
        tasks = tasks_for(range(2))
        doomed = query_texts(tasks)[5]
        assert query_texts(tasks).count(doomed) == 1
        plan = FaultPlan(tasks, lambda text: [fault] if text == doomed else [])
        monkeypatch.setattr("requests.Session", plan.session)
        with pytest.raises(LlmError, match="unexpected response shape") as info:
            run_eval(tasks, backend=http_backend(plan))
        assert not isinstance(info.value, TransportError)
        assert [n for (_, text), n in plan.attempts.items() if text == doomed] == [1]

    def test_each_worker_thread_gets_its_own_session(self, monkeypatch):
        barrier = threading.Barrier(2, timeout=WAIT_S)
        lock = threading.Lock()
        made, used = [], []

        class MeetingSession:
            def __init__(self):
                with lock:
                    made.append(self)

            def post(self, url, json=None, headers=None, timeout=None):
                with lock:
                    used.append((threading.get_ident(), self))
                    held = len(used) <= 2
                if held:
                    barrier.wait()
                return ok_response("a reply with no steps")

        monkeypatch.setattr("requests.Session", MeetingSession)
        tasks = tasks_for(range(8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a racy lazy set-up would show
        try:
            run_eval(tasks, backend=HttpBackend(CFG, api_key="k"))
        finally:
            sys.setswitchinterval(interval)
        sessions = {}
        for thread, session in used:
            assert sessions.setdefault(thread, session) is session
        assert len(used) == len(query_texts(tasks))
        assert 2 <= len(sessions) <= DEFAULT_MAX_IN_FLIGHT
        assert len(made) == len({id(s) for s in sessions.values()}) == len(sessions)


class LoopbackServer(http.server.ThreadingHTTPServer):
    # The default backlog of 5 drops some of a burst of connects, and each
    # dropped one waits out the kernel's 1 s SYN retry.
    request_queue_size = 64


class TestLiveOverLoopback:
    def test_eval_sends_a_scene_at_once_and_reports_as_the_oracle(self, monkeypatch, tmp_path):
        """`eval --backend live` against a real HTTP server on 127.0.0.1.
        The server holds each request until all of the scene's requests have
        arrived, then replies with the oracle's text."""
        tasks = tasks_for([0])
        oracle = SceneOracle(tasks)
        barrier = threading.Barrier(len(query_texts(tasks)), timeout=WAIT_S)
        lock = threading.Lock()
        seen = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with lock:
                    seen.append((self.path, self.headers["Authorization"]))
                barrier.wait()
                content = oracle.reply(*(m["content"] for m in body["messages"]))
                reply = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, format, *args):
                pass

        server = LoopbackServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            for name in list(os.environ):
                if name.lower().endswith("_proxy"):
                    monkeypatch.delenv(name)
            monkeypatch.setenv(API_URL_ENV, f"http://127.0.0.1:{server.server_address[1]}/v1")
            monkeypatch.setenv(API_KEY_ENV, "k")
            monkeypatch.chdir(tmp_path)
            argv = ["eval", "--scenes", "1", "--seed", "0", "--out"]
            assert main([*argv, "live", "--backend", "live"]) == 0
            assert main([*argv, "oracle", "--backend", "oracle"]) == 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(WAIT_S)
        assert not thread.is_alive()
        assert seen == [("/v1/chat/completions", "Bearer k")] * len(query_texts(tasks))
        for name in ("report.json", "report.txt", "records.jsonl"):
            assert (tmp_path / "live" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()
