"""User-defined edge operations (Section XI).

"ZNN's task parallelism allows for easy extensions by simply providing
serial functions for the forward and backward pass, as well as the
gradient computation, if required."  This module is that extension
point: register a :class:`CustomOp` — plain serial numpy functions —
and use it in any computation graph via ``kind="custom"`` edges; the
engine parallelises *across* tasks exactly as for built-in edges.

Example — a voxelwise squaring op::

    register_custom_op(CustomOp(
        name="square",
        forward=lambda x, state: x * x,
        backward=lambda g, x, y, state: 2.0 * x * g,
    ))
    graph.add_edge("sq", "a", "b", "custom", op="square")

The forward receives the input image and a per-edge ``state`` dict it
may stash anything in (argmax positions, masks, …); the backward
receives the upstream gradient, the forward input and output, and the
same state.  ``output_shape`` defaults to shape-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.utils.shapes import Shape3, as_shape3

__all__ = ["CustomOp", "register_custom_op", "get_custom_op",
           "unregister_custom_op", "registered_custom_ops"]

ForwardFn = Callable[[np.ndarray, dict], np.ndarray]
BackwardFn = Callable[[np.ndarray, np.ndarray, np.ndarray, dict], np.ndarray]
ShapeFn = Callable[[Shape3], Shape3]


@dataclass(frozen=True)
class CustomOp:
    """A user-provided edge operation.

    Attributes
    ----------
    name:
        Registry key referenced by ``EdgeSpec.op``.
    forward:
        ``(input_image, state) -> output_image``.
    backward:
        ``(grad_output, forward_input, forward_output, state) ->
        grad_input``.
    output_shape:
        ``input_shape -> output_shape`` (defaults to identity).
    """

    name: str
    forward: ForwardFn
    backward: BackwardFn
    output_shape: Optional[ShapeFn] = None

    def shape(self, input_shape) -> Shape3:
        s = as_shape3(input_shape, name="input_shape")
        if self.output_shape is None:
            return s
        return as_shape3(self.output_shape(s), name="output_shape")


_REGISTRY: Dict[str, CustomOp] = {}


def register_custom_op(op: CustomOp, replace: bool = False) -> CustomOp:
    """Add *op* to the registry (``replace=True`` to overwrite)."""
    if not op.name:
        raise ValueError("custom op needs a non-empty name")
    if op.name in _REGISTRY and not replace:
        raise ValueError(f"custom op {op.name!r} already registered")
    _REGISTRY[op.name] = op
    return op


def unregister_custom_op(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_custom_op(name: str) -> CustomOp:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown custom op {name!r}; registered: "
            f"{sorted(_REGISTRY)}") from None


def registered_custom_ops() -> list:
    return sorted(_REGISTRY)
