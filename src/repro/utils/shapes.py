"""Shape algebra for 3D ConvNet images, kernels and windows.

Everything in ZNN is a 3D image; 2D images are the special case where one
dimension has size one.  Shapes are therefore always canonicalised to
3-tuples of positive ints.  This module centralises the arithmetic that
the rest of the library relies on: output sizes of valid/full
convolutions (possibly sparse/dilated), max-pooling and max-filtering
window arithmetic, one forward and one reverse shape rule per layer
kind, and the field of view of sliding-window ConvNets (Section II-A).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple, Union

Shape3 = Tuple[int, int, int]
ShapeLike = Union[int, Sequence[int]]


def as_shape3(value: int | Sequence[int], *, name: str = "shape") -> Shape3:
    """Canonicalise *value* to a 3-tuple of positive ints.

    Accepts a scalar (isotropic shape), a 1/2/3-element sequence.  A
    2-element sequence is promoted to 3D by prepending a singleton
    dimension, matching the paper's "2D images are a special case in
    which one of the dimensions has size one".
    """
    if isinstance(value, (int,)):
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
        return (value, value, value)
    seq = tuple(int(v) for v in value)
    if len(seq) == 1:
        seq = (1, 1, seq[0])
    elif len(seq) == 2:
        seq = (1,) + seq
    if len(seq) != 3:
        raise ValueError(f"{name} must have 1, 2 or 3 dimensions, got {value!r}")
    if any(v <= 0 for v in seq):
        raise ValueError(f"{name} dimensions must be positive, got {seq}")
    return seq  # type: ignore[return-value]


def effective_kernel_shape(kernel: int | Sequence[int],
                           sparsity: int | Sequence[int] = 1) -> Shape3:
    """Footprint of a sparse (dilated) kernel.

    A sparse convolution with sparsity ``s`` uses only every s-th voxel
    within its sliding window (Section II), so a kernel of size ``k``
    covers ``(k - 1) * s + 1`` voxels per dimension.
    """
    k = as_shape3(kernel, name="kernel")
    s = as_shape3(sparsity, name="sparsity")
    return tuple((kd - 1) * sd + 1 for kd, sd in zip(k, s))  # type: ignore[return-value]


def valid_conv_shape(image: int | Sequence[int],
                     kernel: int | Sequence[int],
                     sparsity: int | Sequence[int] = 1) -> Shape3:
    """Output shape of a valid (sparse) convolution: n - (k-1)*s per dim."""
    n = as_shape3(image, name="image")
    ke = effective_kernel_shape(kernel, sparsity)
    out = tuple(nd - kd + 1 for nd, kd in zip(n, ke))
    if any(v <= 0 for v in out):
        raise ValueError(
            f"valid convolution of image {n} with effective kernel {ke} "
            f"yields non-positive output {out}")
    return out  # type: ignore[return-value]


def full_conv_shape(image: int | Sequence[int],
                    kernel: int | Sequence[int],
                    sparsity: int | Sequence[int] = 1) -> Shape3:
    """Output shape of a full (sparse) convolution: n + (k-1)*s per dim."""
    n = as_shape3(image, name="image")
    ke = effective_kernel_shape(kernel, sparsity)
    return tuple(nd + kd - 1 for nd, kd in zip(n, ke))  # type: ignore[return-value]


def pool_shape(image: int | Sequence[int],
               window: int | Sequence[int]) -> Shape3:
    """Output shape of max-pooling with block size p: n/p per dim.

    The paper requires n divisible by p; we enforce it.
    """
    n = as_shape3(image, name="image")
    p = as_shape3(window, name="window")
    for nd, pd in zip(n, p):
        if nd % pd != 0:
            raise ValueError(f"image {n} not divisible by pooling window {p}")
    return tuple(nd // pd for nd, pd in zip(n, p))  # type: ignore[return-value]


def voxels(shape: int | Sequence[int]) -> int:
    """Number of voxels in a canonicalised shape."""
    return math.prod(as_shape3(shape))


#: (kind, window, sparsity) of one layer — what the shape rules read.
LayerRule = Tuple[str, Optional[ShapeLike], ShapeLike]
#: Layer kinds whose output image has the input's shape.
_SHAPE_PRESERVING = ("transfer", "dropout")


def layer_output_shape(kind: str, window: Optional[ShapeLike],
                       sparsity: ShapeLike, image: ShapeLike) -> Shape3:
    """The one forward shape rule per layer kind (``EdgeSpec`` and
    ``Layer`` both call it): ``conv``/``filter`` are valid sparse
    windows, ``pool`` divides, ``transfer``/``dropout`` keep the shape."""
    if kind in ("conv", "filter"):
        return valid_conv_shape(image, window, sparsity)  # type: ignore[arg-type]
    if kind == "pool":
        return pool_shape(image, window)  # type: ignore[arg-type]
    if kind not in _SHAPE_PRESERVING:
        raise ValueError(f"unknown layer kind {kind!r}")
    return as_shape3(image, name="image")


def input_shape_for_output(output_shape: ShapeLike,
                           layers: Iterable[LayerRule]) -> Shape3:
    """The input shape that (kind, window, sparsity) *layers* map to
    *output_shape*: :func:`layer_output_shape` run backwards, the one
    reverse rule (a pooling layer multiplies, so no remainders)."""
    shape = as_shape3(output_shape, name="output")
    for kind, window, sparsity in reversed(list(layers)):
        if kind in ("conv", "filter"):
            shape = full_conv_shape(shape, window, sparsity)  # type: ignore[arg-type]
        elif kind == "pool":
            w = as_shape3(window, name="window")  # type: ignore[arg-type]
            shape = tuple(o * wd for o, wd in zip(shape, w))
        elif kind not in _SHAPE_PRESERVING:
            raise ValueError(f"unknown layer kind {kind!r}")
    return shape  # type: ignore[return-value]


def field_of_view(layers: Iterable[LayerRule]) -> Shape3:
    """The ConvNet field of view v of Section II-A: the input size
    *layers* map to exactly one output voxel."""
    return input_shape_for_output(1, layers)
