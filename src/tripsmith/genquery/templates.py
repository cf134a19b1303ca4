"""Constraint-program templates, one per constraint kind.

Every emitted program is golden-tested to check clean; values are inlined as
literals so each query ships self-contained sources, text in the quote mark it
lacks (`dsl.syntax.quote`).
"""

from __future__ import annotations

from ..dsl.syntax import quote
from ..errors import InputError
from ..plan.model import INTERCITY_TYPES
from .skeleton import ConstraintSpec, QuerySkeleton

_BUDGET = """\
total_cost = 0
for act in allactivities(plan):
    total_cost += activity_cost(act)
    total_cost += innercity_transport_cost(activity_transports(act))
return total_cost <= {bound}
"""

# one program per typed-POI kind, differing in the activity test and the concept
_TYPED_POI = """\
found = False
city = target_city(plan)
for act in allactivities(plan):
    if activity_type(act) {activity}:
        if {concept}(act, city) == {value}:
            found = True
return found
"""
_TYPED_POI_KINDS = {
    "cuisine": ('in ["breakfast", "lunch", "dinner"]', "restaurant_type"),
    "attraction_type": ('== "attraction"', "attraction_type"),
    "hotel_feature": ('== "accommodation"', "accommodation_type"),
}

_SPECIFIC_POI = """\
found = False
for act in allactivities(plan):
    if activity_position(act) == {value}:
        found = True
return found
"""

_INTERCITY_TYPE = """\
ok = True
for act in allactivities(plan):
    if activity_type(act) in ["train", "airplane"]:
        if intercity_transport_type(act) != {value}:
            ok = False
return ok
"""

_INNERCITY_MODE = """\
ok = True
for act in allactivities(plan):
    transports = activity_transports(act)
    mode = innercity_transport_type(transports)
    if not mode == "":
        if mode != {value}:
            ok = False
return ok
"""

_ROOMS = """\
found = False
for act in allactivities(plan):
    if activity_type(act) == "accommodation":
        if room_count(act) == {rooms} and room_type(act) == {room_type}:
            found = True
return found
"""


def _literal(text: str) -> str:
    literal = quote(text)
    if literal is None:
        raise InputError(f"text value {text!r} has no string literal in the DSL")
    return literal


def spec_to_dsl(spec: ConstraintSpec) -> str:
    if spec.kind == "budget":
        return _BUDGET.format(bound=spec.value)
    if spec.kind in _TYPED_POI_KINDS:
        activity, concept = _TYPED_POI_KINDS[spec.kind]
        return _TYPED_POI.format(activity=activity, concept=concept,
                                 value=_literal(spec.value))
    if spec.kind == "specific_poi":
        return _SPECIFIC_POI.format(value=_literal(spec.value))
    if spec.kind == "transport_type":
        if spec.value in INTERCITY_TYPES:
            return _INTERCITY_TYPE.format(value=_literal(spec.value))
        return _INNERCITY_MODE.format(value=_literal(spec.value))
    if spec.kind == "rooms":
        return _ROOMS.format(rooms=spec.value, room_type=spec.extra["room_type"])
    raise InputError(f"no template for constraint kind {spec.kind!r}")


def skeleton_to_dsl(skeleton: QuerySkeleton) -> list[str]:
    """One checked program per constraint spec, in spec order."""
    return [spec_to_dsl(spec) for spec in skeleton.specs]
