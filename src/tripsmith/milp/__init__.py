"""Mixed-integer model builder, size contract, LP writer and toy solver."""

from .build import MilpModel, VarInfo, build_model
from .decode import decode_assignment
from .lp_writer import render_lp, write_lp
from .params import (
    DOWNSAMPLE,
    MilpParams,
    MilpSlice,
    slice_from_dataset,
    synthetic_slice,
)
from .sizes import MAX_VARIABLES, ROW_CATEGORIES, VAR_CATEGORIES, SizeReport, count_sizes
from .solve import check_assignment, micro_solve

__all__ = [
    "DOWNSAMPLE",
    "MAX_VARIABLES",
    "MilpModel",
    "MilpParams",
    "MilpSlice",
    "ROW_CATEGORIES",
    "SizeReport",
    "VAR_CATEGORIES",
    "VarInfo",
    "build_model",
    "check_assignment",
    "count_sizes",
    "decode_assignment",
    "micro_solve",
    "render_lp",
    "slice_from_dataset",
    "synthetic_slice",
    "write_lp",
]
