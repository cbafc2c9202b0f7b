"""Transfer functions and their Jacobians (Sections II and III-A).

A transfer function edge adds a scalar *bias* to every voxel and applies
a nondecreasing nonlinearity.  The paper names the logistic function,
the hyperbolic tangent and half-wave rectification (ReLU); we add the
identity for linear output layers.

Each nonlinearity exposes its derivative *in terms of the forward
output* — for all the supported functions ``f'(x)`` is expressible from
``y = f(x)``, which lets the backward pass (``grad * f'``) reuse the
memoized forward image instead of recomputing or storing pre-activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

__all__ = [
    "TransferFunction",
    "RELU",
    "LOGISTIC",
    "TANH",
    "LINEAR",
    "get_transfer",
    "TRANSFER_FUNCTIONS",
]


@dataclass(frozen=True)
class TransferFunction:
    """A voxelwise nonlinearity with derivative-from-output.

    Attributes
    ----------
    name:
        Registry key.
    forward:
        ``y = f(x)`` applied elementwise, into ``out`` when given (which
        may be ``x`` itself).
    derivative_from_output:
        ``f'(x)`` computed from ``y = f(x)``.
    """

    name: str
    forward: Callable[..., np.ndarray]
    derivative_from_output: Callable[[np.ndarray], np.ndarray]

    def apply(self, image: np.ndarray, bias: float = 0.0,
              alloc=np.empty) -> np.ndarray:
        """Forward transfer edge: add *bias* then apply the nonlinearity,
        both in one array from *alloc* (``np.empty``'s signature)."""
        x = np.add(image, bias, out=alloc(np.shape(image),
                                          np.result_type(image, bias)))
        return self.forward(x, out=x)

    def backward(self, grad_output: np.ndarray,
                 forward_output: np.ndarray) -> np.ndarray:
        """Transfer-function Jacobian: multiply each backward voxel by
        the derivative at the corresponding forward voxel."""
        return grad_output * self.derivative_from_output(forward_output)

    def __repr__(self) -> str:
        return f"TransferFunction({self.name!r})"


def _relu(x: np.ndarray, out=None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def _relu_prime(y: np.ndarray) -> np.ndarray:
    return (y > 0.0).astype(y.dtype)


def _logistic(x: np.ndarray, out=None) -> np.ndarray:
    # Numerically stable piecewise logistic; *out* may be *x*.
    out = np.empty_like(x, dtype=np.float64) if out is None else out
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _logistic_prime(y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def _tanh(x: np.ndarray, out=None) -> np.ndarray:
    return np.tanh(x, out=out)


def _tanh_prime(y: np.ndarray) -> np.ndarray:
    return 1.0 - y * y


def _identity(x: np.ndarray, out=None) -> np.ndarray:
    return np.add(np.asarray(x, dtype=np.float64), 0.0, out=out)


def _one(y: np.ndarray) -> np.ndarray:
    return np.ones_like(y)


RELU = TransferFunction("relu", _relu, _relu_prime)
LOGISTIC = TransferFunction("logistic", _logistic, _logistic_prime)
TANH = TransferFunction("tanh", _tanh, _tanh_prime)
LINEAR = TransferFunction("linear", _identity, _one)

TRANSFER_FUNCTIONS: Dict[str, TransferFunction] = {
    f.name: f for f in (RELU, LOGISTIC, TANH, LINEAR)
}


def get_transfer(name: str | TransferFunction) -> TransferFunction:
    """Look up a transfer function by name (or pass one through)."""
    if isinstance(name, TransferFunction):
        return name
    try:
        return TRANSFER_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown transfer function {name!r}; "
            f"available: {sorted(TRANSFER_FUNCTIONS)}") from None
