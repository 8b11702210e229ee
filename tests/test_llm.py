import json
import re

import pytest

from scenequery.llm import (
    AuthMissingError,
    ContextOverflowError,
    HttpBackend,
    LlmConfig,
    LlmError,
    MockBackend,
    OracleMockBackend,
    TransportError,
    complete,
    oracle_backed_mock,
)
from scenequery.oracle import QueryCategory, StructuredQuery
from scenequery.parsing import parse_response, validate_grounding
from scenequery.prompts import PromptBundle
from scenequery.scene_model import ObjectNode, SceneGraph, Vec3


def bundle(text="system prompt"):
    return PromptBundle(system_text=text, token_estimate=4, included_node_ids=(), compaction_report=())


class FakeResponse:
    def __init__(self, status_code, body=None, text="", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text or (json.dumps(body) if body else "")
        self.headers = headers or {}

    def json(self):
        return self._body


class FakeSession:
    """Scripted responses in order; records every request payload."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        resp = self.responses.pop(0)
        if isinstance(resp, Exception):
            raise resp
        return resp


def ok_response(content="hello"):
    return FakeResponse(200, {"choices": [{"message": {"content": content}}]})


class TestHttpBackend:
    def test_success_and_wire_format(self):
        session = FakeSession([ok_response("the answer")])
        backend = HttpBackend(LlmConfig(base_url="http://example.test/v1"), api_key="k", session=session)
        assert backend.complete("sys", "user q") == "the answer"
        req = session.requests[0]
        assert req["url"] == "http://example.test/v1/chat/completions"
        assert req["json"]["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "user q"},
        ]
        assert req["json"]["model"] == "gpt-4-16k"
        assert req["json"]["temperature"] == 0.0
        assert req["headers"]["Authorization"] == "Bearer k"

    def test_auth_missing_before_network(self, monkeypatch):
        monkeypatch.delenv("SCENEGPT_API_KEY", raising=False)
        session = FakeSession([])
        backend = HttpBackend(LlmConfig(), session=session)
        with pytest.raises(AuthMissingError):
            backend.complete("sys", "q")
        assert session.requests == []

    def test_retries_then_success(self):
        session = FakeSession([FakeResponse(500), FakeResponse(503), ok_response("ok")])
        sleeps = []
        backend = HttpBackend(
            LlmConfig(base_url="http://x", max_retries=2), api_key="k", session=session, sleep=sleeps.append
        )
        assert backend.complete("s", "u") == "ok"
        assert len(session.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_retries_exhausted(self):
        session = FakeSession([FakeResponse(500)] * 3)
        backend = HttpBackend(
            LlmConfig(base_url="http://x", max_retries=2), api_key="k", session=session, sleep=lambda s: None
        )
        with pytest.raises(TransportError):
            backend.complete("s", "u")

    def test_rate_limit_retried_with_backoff(self):
        session = FakeSession([FakeResponse(429), ok_response("ok")])
        sleeps = []
        backend = HttpBackend(LlmConfig(base_url="http://x"), api_key="k", session=session, sleep=sleeps.append)
        assert backend.complete("s", "u") == "ok"
        assert len(session.requests) == 2
        assert sleeps == [0.5]

    def test_rate_limit_honours_retry_after(self):
        session = FakeSession(
            [
                FakeResponse(429, headers={"Retry-After": "3"}),
                FakeResponse(429, headers={"Retry-After": "0"}),
                FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
                FakeResponse(429, headers={"Retry-After": "inf"}),
                ok_response("ok"),
            ]
        )
        sleeps = []
        backend = HttpBackend(
            LlmConfig(base_url="http://x", max_retries=4), api_key="k", session=session, sleep=sleeps.append
        )
        assert backend.complete("s", "u") == "ok"
        # The header wins only when it asks for longer than the backoff.
        assert sleeps == [3.0, 1.0, 2.0, 4.0]

    def test_retry_after_not_carried_past_its_attempt(self):
        session = FakeSession([FakeResponse(429, headers={"Retry-After": "9"}), FakeResponse(500), ok_response()])
        sleeps = []
        backend = HttpBackend(
            LlmConfig(base_url="http://x", max_retries=2), api_key="k", session=session, sleep=sleeps.append
        )
        backend.complete("s", "u")
        assert sleeps == [9.0, 1.0]

    def test_rate_limit_retries_exhausted(self):
        session = FakeSession([FakeResponse(429, headers={"Retry-After": "1"})] * 3)
        sleeps = []
        backend = HttpBackend(
            LlmConfig(base_url="http://x", max_retries=2), api_key="k", session=session, sleep=sleeps.append
        )
        with pytest.raises(TransportError, match="429"):
            backend.complete("s", "u")
        assert len(session.requests) == 3
        assert sleeps == [1.0, 1.0]

    @pytest.mark.parametrize("wait", ["1e308", "1e9"])
    def test_retry_after_past_timeout_ends_retries(self, wait):
        session = FakeSession([FakeResponse(429, headers={"Retry-After": wait}), ok_response()])
        sleeps = []
        backend = HttpBackend(LlmConfig(base_url="http://x"), api_key="k", session=session, sleep=sleeps.append)
        with pytest.raises(TransportError, match=re.escape(f"wait {float(wait):g} s, longer than the 60 s timeout")):
            backend.complete("s", "u")
        assert len(session.requests) == 1
        assert sleeps == []

    def test_backoff_capped_at_timeout(self):
        responses = [FakeResponse(500)] * 4 + [FakeResponse(429, headers={"Retry-After": "1.5"}), ok_response()]
        session = FakeSession(responses)
        sleeps = []
        cfg = LlmConfig(base_url="http://x", timeout=1.5, max_retries=5)
        backend = HttpBackend(cfg, api_key="k", session=session, sleep=sleeps.append)
        assert backend.complete("s", "u") == "hello"
        assert sleeps == [0.5, 1.0, 1.5, 1.5, 1.5]

    def test_context_overflow_not_retried(self):
        session = FakeSession([FakeResponse(400, text="maximum context length exceeded")])
        backend = HttpBackend(LlmConfig(base_url="http://x"), api_key="k", session=session)
        with pytest.raises(ContextOverflowError):
            backend.complete("s", "u")
        assert len(session.requests) == 1

    @pytest.mark.parametrize(
        "body",
        [[], {"choices": None}, {"choices": [{"message": None}]}, {"choices": "x"}],
        ids=["list", "null-choices", "null-message", "string-choices"],
    )
    def test_wrong_shape_body_is_llm_error(self, body):
        session = FakeSession([FakeResponse(200, body)])
        backend = HttpBackend(LlmConfig(base_url="http://x"), api_key="k", session=session)
        with pytest.raises(LlmError, match="unexpected response shape"):
            backend.complete("s", "u")
        assert len(session.requests) == 1

    def test_rejected_credentials(self):
        session = FakeSession([FakeResponse(401, text="bad key")])
        backend = HttpBackend(LlmConfig(base_url="http://x"), api_key="k", session=session)
        with pytest.raises(AuthMissingError):
            backend.complete("s", "u")


class TestMockBackend:
    def test_list_script_in_order(self):
        backend = MockBackend(["first", "second"])
        assert backend.complete("s", "q") == "first"
        assert backend.complete("s", "q") == "second"
        with pytest.raises(LlmError):
            backend.complete("s", "q")

    def test_rule_table(self):
        backend = MockBackend({"vase": "it is a vase", "couch": "it is a couch"})
        assert backend.complete("s", "where is the vase?") == "it is a vase"
        assert backend.complete("s", "where is the couch?") == "it is a couch"

    def test_fallback(self):
        # A "" rule is a fallback: it matches any query no earlier rule took.
        backend = MockBackend({"vase": "it is a vase", "": "dunno"})
        assert backend.complete("s", "anything") == "dunno"
        assert backend.complete("s", "") == "dunno"
        assert backend.complete("s", "where is the vase?") == "it is a vase"

    def test_deterministic(self):
        a = MockBackend({"q": "r"}).complete("s", "my q")
        b = MockBackend({"q": "r"}).complete("s", "my q")
        assert a == b


class TestOracleBackedMock:
    def test_on_top_of_renders_five_steps(self, couch_pillow_scene):
        text = oracle_backed_mock(
            couch_pillow_scene, StructuredQuery(QueryCategory.ON_TOP_OF, 27, 28, "pillow on couch?")
        )
        for step in ("STEP1", "STEP2", "STEP3", "STEP4", "STEP-5"):
            assert step in text
        parsed = parse_response(text)
        assert parsed.final_object_id == 27
        assert "yes" in parsed.final_text.lower()

    def test_size_compare_final_id(self, couch_pillow_scene):
        text = oracle_backed_mock(couch_pillow_scene, StructuredQuery(QueryCategory.SIZE_COMPARE, 28, 27))
        parsed = parse_response(text)
        assert parsed.final_object_id == 28

    def test_empty_scene(self):
        text = oracle_backed_mock(SceneGraph(nodes=()), StructuredQuery(QueryCategory.ON_TOP_OF, 1, 2))
        parsed = parse_response(text)
        assert parsed.relevant_object_ids == ()
        assert parsed.final_object_id is None

    def test_outputs_ground_cleanly(self, couch_pillow_scene):
        for q in (
            StructuredQuery(QueryCategory.ON_TOP_OF, 27, 28),
            StructuredQuery(QueryCategory.SIZE_COMPARE, 28, 27),
            StructuredQuery(QueryCategory.CONTAINMENT, 28, 27),
            StructuredQuery(QueryCategory.RELATIVE_POSITION, 27, 28),
        ):
            text = oracle_backed_mock(couch_pillow_scene, q)
            parsed = parse_response(text)
            assert validate_grounding(parsed, couch_pillow_scene, (27, 28)) == []
            assert parsed.notes == ()

    @pytest.mark.parametrize("tag", ["cup", '12" tv', "back\\slash", "tab\there", "bell\x07", "tête", "\ud800"])
    def test_final_json_is_json_dumps_of_the_final_object(self, tag):
        scene = SceneGraph(
            nodes=(ObjectNode(1, Vec3(1, 1, 1), Vec3(0, 0, 1.5), tag), ObjectNode(2, Vec3(2, 2, 2), Vec3(0, 0, 0), "base"))
        )
        text = oracle_backed_mock(scene, StructuredQuery(QueryCategory.ON_TOP_OF, 1, 2))
        step4 = next(line for line in text.split("\n") if line.startswith("STEP4"))
        assert step4.endswith(" " + json.dumps({"object_tag": tag, "object_id": 1}, ensure_ascii=False))
        parsed = parse_response(text)
        assert (parsed.final_object_tag, parsed.final_object_id) == (tag, 1)
        assert validate_grounding(parsed, scene, (1, 2)) == []


class TestComplete:
    def test_mock_passthrough(self):
        assert complete(bundle(), MockBackend(["canned"]), user_text="q") == "canned"

    def test_oracle_backend_via_interpretation(self, couch_pillow_scene):
        backend = OracleMockBackend(couch_pillow_scene)
        text = complete(bundle(), backend, user_text="Is the pillow on top of the white couch?")
        parsed = parse_response(text)
        assert parsed.final_object_id == 27


class TestLlmConfig:
    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            LlmConfig(timeout=0)

    def test_env_base_url(self, monkeypatch):
        monkeypatch.setenv("SCENEGPT_API_URL", "http://env.test/v1/")
        assert LlmConfig().resolved_base_url() == "http://env.test/v1"
        assert LlmConfig(base_url="http://file.test").resolved_base_url() == "http://env.test/v1"
        monkeypatch.delenv("SCENEGPT_API_URL")
        assert LlmConfig(base_url="http://file.test/").resolved_base_url() == "http://file.test"
