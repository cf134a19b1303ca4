"""Plan documents plus the concept-function library used by constraints."""

from .concepts import (
    CONCEPT_ALIASES,
    CONCEPT_REGISTRY,
    FUNCTIONS,
    ConceptContext,
)
from .model import (
    ACTIVITY_TYPES,
    INTERCITY_TYPES,
    MEAL_TYPES,
    DayPlan,
    Plan,
    parse_plan,
    plan_from_obj,
    serialize_plan,
)

__all__ = [
    "ACTIVITY_TYPES",
    "CONCEPT_ALIASES",
    "CONCEPT_REGISTRY",
    "ConceptContext",
    "DayPlan",
    "FUNCTIONS",
    "INTERCITY_TYPES",
    "MEAL_TYPES",
    "Plan",
    "parse_plan",
    "plan_from_obj",
    "serialize_plan",
]
