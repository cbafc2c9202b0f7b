"""Stochastic gradient descent (Section III, step 5).

The paper's update is plain SGD — ``params -= eta * G`` (Algorithm 3,
line 2) with a per-edge learning rate ``e.eta``.  We keep that exact
form as the default and add the two standard extensions shipped with
the ZNN release: momentum and weight decay.

The optimizer is stateless across parameters: per-parameter state
(momentum velocity) is held in an :class:`UpdateState` owned by the
edge, so edges can be updated concurrently without sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["SGD", "UpdateState"]


@dataclass
class UpdateState:
    """Per-parameter optimizer state (the momentum velocity buffer)."""

    velocity: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SGD:
    """SGD with optional momentum and weight decay.

    ``v = momentum * v - eta * (G + weight_decay * W);  W += v``

    With ``momentum == 0`` and ``weight_decay == 0`` this reduces to the
    paper's ``W -= eta * G`` without allocating a velocity buffer.
    """

    learning_rate: float = 0.01
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError(
                f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")

    def update(self, params: np.ndarray, gradient: np.ndarray,
               state: UpdateState, eta: Optional[float] = None) -> None:
        """Apply one in-place update; *eta* overrides the global rate
        (the paper's per-edge learning-rate parameter)."""
        lr = self.learning_rate if eta is None else float(eta)
        grad = gradient
        if self.weight_decay:
            grad = grad + self.weight_decay * params
        if self.momentum:
            if state.velocity is None:
                state.velocity = np.zeros_like(params)
            state.velocity *= self.momentum
            state.velocity -= lr * grad
            params += state.velocity
        else:
            params -= lr * grad

    def update_scalar(self, value: float, gradient: float,
                      state: UpdateState, eta: Optional[float] = None) -> float:
        """Scalar variant for biases; returns the new value."""
        lr = self.learning_rate if eta is None else float(eta)
        grad = gradient + self.weight_decay * value
        if self.momentum:
            vel = state.velocity if isinstance(state.velocity, float) else 0.0
            vel = self.momentum * vel - lr * grad
            state.velocity = vel  # type: ignore[assignment]
            return value + vel
        return value - lr * grad
