"""Benchmark synthesis: skeleton sampling, constraint emission, certification."""

from .certify import CertifiedQuery, certify, context_from_skeleton
from .skeleton import (
    CONSTRAINT_KINDS,
    EASY,
    MEDIUM,
    ConstraintSpec,
    QuerySkeleton,
    sample_skeleton,
)
from .templates import skeleton_to_dsl, spec_to_dsl

__all__ = [
    "CONSTRAINT_KINDS",
    "CertifiedQuery",
    "ConstraintSpec",
    "EASY",
    "MEDIUM",
    "QuerySkeleton",
    "certify",
    "context_from_skeleton",
    "sample_skeleton",
    "skeleton_to_dsl",
    "spec_to_dsl",
]
