"""Constraint-program templates, one per constraint kind.

Every emitted program is golden-tested to check clean; values are inlined as
literals so each query ships self-contained sources.
"""

from __future__ import annotations

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

_CUISINE = """\
found = False
city = target_city(plan)
for act in allactivities(plan):
    if activity_type(act) in ["breakfast", "lunch", "dinner"]:
        if restaurant_type(act, city) == "{value}":
            found = True
return found
"""

_ATTRACTION_TYPE = """\
found = False
city = target_city(plan)
for act in allactivities(plan):
    if activity_type(act) == "attraction":
        if attraction_type(act, city) == "{value}":
            found = True
return found
"""

_HOTEL_FEATURE = """\
found = False
city = target_city(plan)
for act in allactivities(plan):
    if activity_type(act) == "accommodation":
        if accommodation_type(act, city) == "{value}":
            found = True
return found
"""

_SPECIFIC_POI = """\
found = False
for act in allactivities(plan):
    if activity_position(act) == "{value}":
        found = True
return found
"""

_INTERCITY_TYPE = """\
ok = True
for act in allactivities(plan):
    if activity_type(act) in ["train", "airplane"]:
        if intercity_transport_type(act) != "{value}":
            ok = False
return ok
"""

_INNERCITY_MODE = """\
ok = True
for act in allactivities(plan):
    transports = activity_transports(act)
    mode = innercity_transport_type(transports)
    if not mode == "":
        if mode != "{value}":
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


def spec_to_dsl(spec: ConstraintSpec) -> str:
    if spec.kind == "budget":
        return _BUDGET.format(bound=spec.value)
    if spec.kind == "cuisine":
        return _CUISINE.format(value=spec.value)
    if spec.kind == "attraction_type":
        return _ATTRACTION_TYPE.format(value=spec.value)
    if spec.kind == "hotel_feature":
        return _HOTEL_FEATURE.format(value=spec.value)
    if spec.kind == "specific_poi":
        return _SPECIFIC_POI.format(value=spec.value)
    if spec.kind == "transport_type":
        if spec.value in INTERCITY_TYPES:
            return _INTERCITY_TYPE.format(value=spec.value)
        return _INNERCITY_MODE.format(value=spec.value)
    if spec.kind == "rooms":
        return _ROOMS.format(rooms=spec.value, room_type=spec.extra["room_type"])
    raise InputError(f"no template for constraint kind {spec.kind!r}")


def skeleton_to_dsl(skeleton: QuerySkeleton) -> list[str]:
    """One checked program per constraint spec, in spec order."""
    return [spec_to_dsl(spec) for spec in skeleton.specs]
