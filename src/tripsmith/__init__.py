"""tripsmith: travel-itinerary constraint planning, validation and benchmarking.

The package bundles a file-backed travel sandbox, a plan document model with
its concept-function library, a closed constraint-language compiler, the
25-rule environmental validator with pass-rate metrics, a depth-first greedy
planner with pluggable (model-backed or heuristic) candidate ranking, a
mixed-integer model compiler with LP emission, and a benchmark query
generator - all driven by one batch CLI.
"""

__version__ = "0.1.0"
