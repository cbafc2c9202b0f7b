"""Finite-difference gradient checking for whole networks.

ZNN's extensibility pitch (Section XI) is that users add new layer
types by writing serial forward/backward functions — which makes an
automated correctness check for those Jacobians essential.  This module
verifies, by central finite differences against the loss, the gradient
that one round of backprop produces for:

* a sample of kernel voxels of every convolution edge,
* every transfer-edge bias,
* (optionally) a sample of input voxels, which exercises the backward
  transform of *every* edge type on the input-to-output paths —
  including custom ops.

Usage::

    report = check_gradients(net, x, targets)
    assert report.ok, report.failures
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.network import Network

__all__ = ["GradCheckReport", "check_gradients"]


@dataclass
class GradCheckReport:
    """Outcome of one gradient check."""

    checked: int = 0
    failures: List[str] = field(default_factory=list)
    max_relative_error: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def _record(self, label: str, analytic: float, numeric: float,
                tolerance: float) -> None:
        scale = max(abs(analytic), abs(numeric), 1.0)
        relative = abs(analytic - numeric) / scale
        self.checked += 1
        self.max_relative_error = max(self.max_relative_error, relative)
        if relative > tolerance:
            self.failures.append(
                f"{label}: analytic {analytic:.6g} vs numeric "
                f"{numeric:.6g} (rel err {relative:.2e})")


def _loss_value(net: Network, x, targets) -> float:
    outputs = net.forward(x)
    value, _ = net.loss.joint_value_and_gradient(outputs, targets)
    return value


def check_gradients(net: Network, inputs, targets,
                    kernel_samples: int = 2,
                    input_samples: int = 3,
                    epsilon: float = 1e-5,
                    tolerance: float = 1e-3,
                    seed: int = 0) -> GradCheckReport:
    """Finite-difference check of *net*'s backprop gradients.

    The network's learning rate is irrelevant — analytic gradients are
    obtained by probing one training step of a throwaway learning-rate
    and reading the parameter deltas, so the check works on any
    optimizer-free quantity the network exposes.  The network is left
    with its original parameters.

    Targets must be a mapping for multi-output nets (as for
    ``train_step``).
    """
    rng = np.random.default_rng(seed)
    targets = net._normalize(targets, "target")
    report = GradCheckReport()

    # --- analytic parameter gradients via a probe step ------------------
    probe_lr = 1e-7
    saved_optimizer = net.optimizer
    saved_kernels = {n: e.kernel.array.copy()
                     for n, e in net.edges.items() if hasattr(e, "kernel")}
    saved_biases = {n: e.bias for n, e in net.edges.items()
                    if hasattr(e, "bias")}
    saved_velocities = {n: None if e.kernel.state.velocity is None
                        else e.kernel.state.velocity.copy()
                        for n, e in net.edges.items()
                        if hasattr(e, "kernel")}
    net.optimizer = dataclasses.replace(saved_optimizer,
                                        learning_rate=probe_lr,
                                        momentum=0.0, weight_decay=0.0)
    try:
        net.train_step(inputs, targets)
        net.synchronize()
        kernel_grads = {
            n: (saved_kernels[n] - net.edges[n].kernel.array) / probe_lr
            for n in saved_kernels}
        bias_grads = {n: (saved_biases[n] - net.edges[n].bias) / probe_lr
                      for n in saved_biases}
    finally:
        for n, k in saved_kernels.items():
            net.edges[n].kernel.array[...] = k
            net.edges[n].kernel.state.velocity = saved_velocities[n]
        for n, b in saved_biases.items():
            net.edges[n].bias = b
        net.optimizer = saved_optimizer

    base = _loss_value(net, inputs, targets)

    # --- kernels ----------------------------------------------------------
    for name, grad in kernel_grads.items():
        kernel = net.edges[name].kernel.array
        flat = rng.choice(kernel.size,
                          size=min(kernel_samples, kernel.size),
                          replace=False)
        for f in flat:
            idx = np.unravel_index(int(f), kernel.shape)
            original = kernel[idx]
            kernel[idx] = original + epsilon
            plus = _loss_value(net, inputs, targets)
            kernel[idx] = original - epsilon
            minus = _loss_value(net, inputs, targets)
            kernel[idx] = original
            numeric = (plus - minus) / (2 * epsilon)
            report._record(f"kernel {name}{list(idx)}", float(grad[idx]),
                           numeric, tolerance)

    # --- biases ------------------------------------------------------------
    for name, grad in bias_grads.items():
        edge = net.edges[name]
        original = edge.bias
        edge.bias = original + epsilon
        plus = _loss_value(net, inputs, targets)
        edge.bias = original - epsilon
        minus = _loss_value(net, inputs, targets)
        edge.bias = original
        numeric = (plus - minus) / (2 * epsilon)
        report._record(f"bias {name}", float(grad), numeric, tolerance)

    # --- input gradients (exercise every backward transform) ---------------
    if input_samples > 0:
        images = net._normalize(inputs, "input")
        for node in net.input_nodes:
            if node.bwd_sum is None:
                continue
            # Populate the input node's backward image with a zero-lr
            # training step (parameters unchanged).
            saved = net.optimizer
            net.optimizer = dataclasses.replace(saved, learning_rate=0.0,
                                                momentum=0.0)
            try:
                net.train_step(inputs, targets)
                net.synchronize()
            finally:
                net.optimizer = saved
            grad = node.bwd_image
            img = images[node.name]
            flat = rng.choice(img.size, size=min(input_samples, img.size),
                              replace=False)
            for f in flat:
                idx = np.unravel_index(int(f), img.shape)
                perturbed = {k: v.copy() for k, v in images.items()}
                perturbed[node.name][idx] += epsilon
                plus = _loss_value(net, perturbed, targets)
                perturbed[node.name][idx] -= 2 * epsilon
                minus = _loss_value(net, perturbed, targets)
                numeric = (plus - minus) / (2 * epsilon)
                report._record(f"input {node.name}{list(idx)}",
                               float(grad[idx]), numeric, tolerance)
    return report
