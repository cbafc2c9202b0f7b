"""Shared utilities: shape algebra, validation, seeded RNG."""

from repro.utils.shapes import (
    Shape3,
    as_shape3,
    effective_kernel_shape,
    field_of_view,
    full_conv_shape,
    input_shape_for_output,
    pool_shape,
    valid_conv_shape,
    voxels,
)
from repro.utils.validation import (
    check_array3,
    check_choice,
    check_nonnegative,
    check_positive_int,
    check_probability,
)
from repro.utils.rng import SeedLike, as_generator, kernel_init, spawn

__all__ = [
    "Shape3",
    "as_shape3",
    "effective_kernel_shape",
    "field_of_view",
    "full_conv_shape",
    "input_shape_for_output",
    "pool_shape",
    "valid_conv_shape",
    "voxels",
    "check_array3",
    "check_choice",
    "check_nonnegative",
    "check_positive_int",
    "check_probability",
    "SeedLike",
    "as_generator",
    "kernel_init",
    "spawn",
]
