"""Mixed-integer model builder, size contract, LP writer and toy solver."""

from .build import VarInfo
from .decode import decode_assignment
from .lp_writer import write_lp
from .params import (
    DOWNSAMPLE,
    MilpParams,
    MilpSlice,
    slice_from_dataset,
    synthetic_slice,
)
from .sizes import MAX_VARIABLES, ROW_CATEGORIES, VAR_CATEGORIES, SizeReport, count_sizes
from .solve import MilpModel, check_assignment, micro_solve

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
    "check_assignment",
    "count_sizes",
    "decode_assignment",
    "micro_solve",
    "slice_from_dataset",
    "synthetic_slice",
    "write_lp",
]
