"""3D scene-graph question answering.

Deterministic geometry oracle over axis-aligned boxes, plus an LLM
pipeline (prompt assembly, token budgeting, chat completion, structured
response parsing, grounding validation) and an evaluation harness that
compares the two on synthetic scenes.
"""

from .oracle import (
    OracleConfig,
    QueryCategory,
    SizeOrdering,
    SpatialRelation,
    StructuredQuery,
    answer_query_deterministic,
    can_contain,
    derive_edges,
    near,
    on_top_of,
    relative_position,
    size_compare,
)
from .parsing import GroundingIssue, ParsedResponse, parse_response, validate_grounding
from .prompts import PromptBundle, build_prompt, estimate_tokens
from .scene_model import (
    ObjectNode,
    SceneGraph,
    SceneError,
    Vec3,
    parse_scene,
    serialize_scene,
)

__version__ = "0.1.0"
