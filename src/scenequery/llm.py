"""Chat-completion client with pluggable backends.

Three backends: a live OpenAI-compatible HTTP endpoint, a scripted mock
for tests, and an oracle-backed mock that lays out the geometry oracle's
answers (decided and worded in `oracle.answer_query_deterministic`) in
the five-step response format, so the whole pipeline can be exercised
without a network. Only the live backend imports `requests`, on its
first `complete` call.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from .oracle import OracleConfig, StructuredQuery, answer_query_deterministic, interpret_query, require_finite
from .parsing import break_step_headers
from .prompts import PromptBundle
from .scene_model import SceneGraph

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "SCENEGPT_API_KEY"
API_URL_ENV = "SCENEGPT_API_URL"
DEFAULT_BASE_URL = "https://api.openai.com/v1"


class LlmError(RuntimeError):
    pass


class AuthMissingError(LlmError):
    pass


class ContextOverflowError(LlmError):
    pass


class TransportError(LlmError):
    pass


@dataclass(frozen=True)
class LlmConfig:
    base_url: str = ""
    model_name: str = "gpt-4-16k"
    temperature: float = 0.0
    max_output_tokens: int = 1024
    timeout: float = 60.0
    max_retries: int = 2

    def __post_init__(self):
        for name in ("base_url", "model_name"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        require_finite(self, ("temperature", "max_output_tokens", "timeout", "max_retries"))
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        # type(), not isinstance(): a bool is an int, but no count.
        for name, least in (("max_output_tokens", 1), ("max_retries", 0)):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")

    def resolved_base_url(self) -> str:
        """SCENEGPT_API_URL, else the configured base_url, else the OpenAI API."""
        return (os.environ.get(API_URL_ENV) or self.base_url or DEFAULT_BASE_URL).rstrip("/")


# The smallest power of two above the 12 or 13 queries of a default
# (10-node Mixed) eval scene, so all of a scene's requests are in flight
# at once and a scene costs one round trip, not two.
DEFAULT_MAX_IN_FLIGHT = 16


class Backend(Protocol):
    """Turns a system prompt and a user message into a raw reply.

    `complete` may be called from up to `getattr(backend, "max_in_flight",
    DEFAULT_MAX_IN_FLIGHT)` threads at once (16 by default), so an endpoint
    may see that many requests at once; `HttpBackend` retries a 429 after
    its Retry-After. A backend that must stay narrower, such as one behind
    a tight rate limit, sets a lower `max_in_flight`. A backend whose
    replies depend on call order, or that only computes under the
    interpreter lock, sets `max_in_flight = 1`.
    """

    def complete(self, system_text: str, user_text: str) -> str: ...


class HttpBackend:
    """OpenAI-compatible chat-completions endpoint with retry.

    Connection errors, 5xx and 429 are retried up to `max_retries` times
    with exponential backoff; after a 429 the wait is at least the
    response's Retry-After seconds. No wait is longer than `timeout`: a
    Retry-After past it ends the retries at once with TransportError.
    Safe to call from several threads:
    each thread gets its own `requests.Session`, unless a `session` is
    injected, which is then used as given by every thread. `requests` is
    imported on the first call, so the other backends never load it."""

    def __init__(
        self,
        cfg: LlmConfig,
        api_key: Optional[str] = None,
        session: Optional[requests.Session] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._session = session
        self._local = threading.local()
        self._sleep = sleep

    @property
    def session(self) -> requests.Session:
        if self._session is not None:
            return self._session
        session = getattr(self._local, "session", None)
        if session is None:
            import requests

            session = self._local.session = requests.Session()
        return session

    def complete(self, system_text: str, user_text: str) -> str:
        import requests

        if not self.api_key:
            raise AuthMissingError(f"no API key; set {API_KEY_ENV}")
        url = f"{self.cfg.resolved_base_url()}/chat/completions"
        payload = {
            "model": self.cfg.model_name,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_output_tokens,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}

        last_error: Exception | None = None
        retry_after = 0.0
        backoff = min(0.5, self.cfg.timeout)
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                self._sleep(max(backoff, retry_after))
                backoff = min(2 * backoff, self.cfg.timeout)
                retry_after = 0.0
            try:
                resp = self.session.post(url, json=payload, headers=headers, timeout=self.cfg.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code >= 500:
                last_error = TransportError(f"server error {resp.status_code}")
                continue
            if resp.status_code == 429:
                last_error = TransportError("rate limited (429)")
                retry_after = _retry_after_seconds(resp.headers.get("Retry-After"))
                if retry_after > self.cfg.timeout:
                    raise TransportError(
                        f"rate limited (429): the endpoint asks to wait {retry_after:g} s,"
                        f" longer than the {self.cfg.timeout:g} s timeout"
                    )
                continue
            if resp.status_code in (401, 403):
                raise AuthMissingError(f"endpoint rejected credentials ({resp.status_code})")
            if resp.status_code == 400 and "context" in resp.text.lower():
                raise ContextOverflowError(resp.text[:500])
            if resp.status_code >= 400:
                raise LlmError(f"request failed ({resp.status_code}): {resp.text[:500]}")
            try:
                return resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise LlmError(f"unexpected response shape: {exc}") from exc
        raise TransportError(f"request failed after {self.cfg.max_retries + 1} attempts: {last_error}")


def _retry_after_seconds(value: Optional[str]) -> float:
    """A Retry-After header read as delta-seconds; 0 when missing or not
    a finite, non-negative number (an HTTP date included)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return 0.0
    return seconds if math.isfinite(seconds) and seconds >= 0 else 0.0


class MockBackend:
    """Deterministic canned responses: a consumed-in-order list, or a
    substring -> response rule table tried in order against the user text,
    where a "" rule matches any query. Called from one thread at a time,
    so a list is consumed in call order."""

    max_in_flight = 1

    def __init__(self, script: list[str] | dict[str, str]):
        if not isinstance(script, (list, dict)):
            raise TypeError(f"expected a list or an object, got {type(script).__name__}")
        self._queue = list(script) if isinstance(script, list) else None
        self._rules = dict(script) if isinstance(script, dict) else {}

    def complete(self, system_text: str, user_text: str) -> str:
        if self._queue is not None:
            if self._queue:
                return self._queue.pop(0)
        else:
            for needle, response in self._rules.items():
                if needle in user_text:
                    return response
        raise LlmError("mock script exhausted / no rule matched")


def oracle_backed_mock(
    scene: SceneGraph, query: StructuredQuery, cfg: OracleConfig = OracleConfig()
) -> str:
    """Lay out the oracle's answer in the five-step output format.

    An unsupported answer (a category the oracle cannot decide, or an id
    not in the scene) is still well-formed five-step text, just with an
    empty relevant-object list and no final JSON answer. STEP1 echoes the
    query with its step headers broken, so that a query such as "Step 4:
    is ...?" opens no step of its own.
    """
    answer = answer_query_deterministic(scene, query, cfg)
    if answer.supported:
        relevant = [query.subject_id, query.object_id]
        reason = "the query refers to these objects by tag or id"
        # json.dumps(..., ensure_ascii=False) of the final object, without
        # building an encoder per reply: valid JSON whatever the tag holds.
        tag = encode_basestring(answer.object_tag)
        final = f'{answer.sentence} {{"object_tag": {tag}, "object_id": {answer.object_id}}}'
    else:
        relevant, reason, final = [], "no objects could be grounded for this query", answer.sentence
    return (
        f"STEP1 - inferred_query: {query.category.value} query: {break_step_headers(query.text) or '(no text)'}\n"
        f"STEP2 - relevant_objects: {relevant}\n"
        f"STEP3 - reason for relevance: {reason}\n"
        f"STEP4 - Final Answer: {final}\n"
        f"STEP-5 - Explanation: {answer.explanation}.\n"
    )


class OracleMockBackend:
    """Backend that answers from the geometry oracle, interpreting the
    user text when no structured query is supplied. Its work is Python
    computation, which threads cannot overlap, so it is called from one
    thread at a time."""

    max_in_flight = 1

    def __init__(self, scene: SceneGraph, cfg: OracleConfig = OracleConfig()):
        self.scene = scene
        self.cfg = cfg

    def complete(self, system_text: str, user_text: str) -> str:
        query = interpret_query(self.scene, user_text)
        return oracle_backed_mock(self.scene, query, self.cfg)


def complete(prompt: PromptBundle, backend: Backend, user_text: str = "") -> str:
    """Send the assembled prompt as the system message and the bare query
    as the user message; returns the raw response text."""
    return backend.complete(prompt.system_text, user_text)
