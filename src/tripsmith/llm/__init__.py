"""Model-backed ranking and translation, fully mockable and failure-proof."""

from .endpoint import (
    CallableTransport,
    FaultInjectingTransport,
    HttpTransport,
    LlmEndpoint,
    RecordingTransport,
    ReplayTransport,
    Transport,
    TransportError,
    prompt_hash,
)
from .rank import (
    DegradationEvent,
    LlmRanker,
    load_prompt,
    merge_ranked_names,
    parse_name_list,
)
from .translate import (
    DEFAULT_MAX_ROUNDS,
    TranslationRound,
    TranslationSession,
    nl2dsl,
)

__all__ = [
    "CallableTransport",
    "DEFAULT_MAX_ROUNDS",
    "DegradationEvent",
    "FaultInjectingTransport",
    "HttpTransport",
    "LlmEndpoint",
    "LlmRanker",
    "RecordingTransport",
    "ReplayTransport",
    "Transport",
    "TransportError",
    "TranslationRound",
    "TranslationSession",
    "load_prompt",
    "merge_ranked_names",
    "nl2dsl",
    "parse_name_list",
    "prompt_hash",
]
