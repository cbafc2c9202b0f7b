"""Network checkpointing.

Saves/restores every trainable parameter (conv kernels and transfer
biases) plus momentum velocities and the round counter to a compressed
``.npz``, keyed by edge name so checkpoints survive as long as the
architecture (edge names and kernel shapes) does.  The ZNN release
persisted networks the same way — parameters by edge, architecture from
the spec file.

Writes are **atomic**: the state is serialized to a temporary file in
the checkpoint's directory and moved into place with ``os.replace``, so
a crash mid-save can never leave a torn, unloadable checkpoint — the
invariant the Trainer's rollback and ``repro train --resume`` depend on
(see ``docs/robustness.md``).

Velocity keys: a kernel shared by several edges (weight sharing) stores
its momentum velocity once, under ``kvel::`` + the *alphabetically
first* sharing edge's name — a stable id, so restoring cannot silently
drop momentum however the edge dict happens to be ordered.  Bias
velocities live under ``bvel::`` + edge name.  Checkpoints written by
older versions (a single order-dependent ``velocity::`` key per
parameter) still load.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from typing import Dict, List, Optional

import numpy as np

from repro.core.network import Network

__all__ = [
    "save_network",
    "load_network",
    "network_state",
    "state_digest",
    "checkpoint_digest",
    "latest_checkpoint",
    "load_latest_checkpoint",
]

_KERNEL = "kernel::"
_BIAS = "bias::"
_KERNEL_VELOCITY = "kvel::"
_BIAS_VELOCITY = "bvel::"
_LEGACY_VELOCITY = "velocity::"
_META = "__meta__"


def kernel_groups(network: Network) -> Dict[int, List[str]]:
    """id(kernel) -> sorted names of the edges sharing that kernel
    (checkpoints and the data-parallel parameter layout key a shared
    kernel by the first)."""
    groups: Dict[int, List[str]] = {}
    for name, edge in network.edges.items():
        if hasattr(edge, "kernel"):
            groups.setdefault(id(edge.kernel), []).append(name)
    return {kid: sorted(names) for kid, names in groups.items()}


def network_state(network: Network) -> Dict[str, np.ndarray]:
    """Flat name->array mapping of every persistent quantity."""
    state: Dict[str, np.ndarray] = {}
    groups = kernel_groups(network)
    seen_kernels = set()
    for name, edge in network.edges.items():
        if hasattr(edge, "kernel"):
            state[_KERNEL + name] = np.array(edge.kernel.array)
            kid = id(edge.kernel)
            if (kid not in seen_kernels
                    and edge.kernel.state.velocity is not None):
                state[_KERNEL_VELOCITY + groups[kid][0]] = np.array(
                    edge.kernel.state.velocity)
            seen_kernels.add(kid)
        if hasattr(edge, "bias"):
            state[_BIAS + name] = np.array(edge.bias)
            if isinstance(edge.state.velocity, float):
                state[_BIAS_VELOCITY + name] = np.array(edge.state.velocity)
    state[_META] = np.array([network.rounds], dtype=np.int64)
    return state


def _digest_state(state: Dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.dtype.str.encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


# deterministic
def state_digest(network: Network) -> str:
    """sha256 over every persistent quantity of *network*, in sorted
    key order with shape and dtype mixed in.

    Hashing the *state arrays* rather than checkpoint file bytes makes
    the digest independent of npz/zlib framing, so golden values stay
    valid across numpy releases; two networks have equal digests iff
    their parameters, velocities and round counters are bitwise equal —
    the data-parallel determinism contract's verification primitive.
    """
    network.synchronize()
    return _digest_state(network_state(network))


def checkpoint_digest(path) -> str:
    """The :func:`state_digest` a network restored from *path* would
    have (computed without building a network)."""
    with np.load(path) as data:
        state = {name: np.array(data[name]) for name in data.files}
    return _digest_state(state)


def save_network(network: Network, path) -> None:
    """Write a checkpoint atomically; pending updates are drained first
    so the snapshot is consistent.

    The bytes land in a temporary file in the target directory which is
    fsynced and then ``os.replace``d over *path*: readers only ever see
    the old complete checkpoint or the new complete one.
    """
    network.synchronize()
    state = network_state(network)
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **state)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


def load_network(network: Network, path) -> int:
    """Restore parameters into an architecture-compatible *network*.

    Returns the stored round counter.  Raises ``KeyError`` if the
    checkpoint misses a trainable edge of the network and ``ValueError``
    on shape mismatches.
    """
    groups = kernel_groups(network)
    restored_kernels = set()
    with np.load(path) as data:
        for name, edge in network.edges.items():
            if hasattr(edge, "kernel"):
                key = _KERNEL + name
                if key not in data:
                    raise KeyError(f"checkpoint missing kernel for {name!r}")
                kernel = data[key]
                if kernel.shape != edge.kernel.array.shape:
                    raise ValueError(
                        f"kernel {name!r}: checkpoint shape {kernel.shape} "
                        f"!= network {edge.kernel.array.shape}")
                edge.kernel.array[...] = kernel
                kid = id(edge.kernel)
                if kid not in restored_kernels:
                    restored_kernels.add(kid)
                    members = groups[kid]
                    vkey = _KERNEL_VELOCITY + members[0]
                    if vkey in data:
                        edge.kernel.state.velocity = np.array(data[vkey])
                    else:
                        # Legacy checkpoints keyed the velocity under
                        # whichever sharing edge the saver visited
                        # first; scan every member.
                        for member in members:
                            legacy = _LEGACY_VELOCITY + member
                            if legacy in data:
                                edge.kernel.state.velocity = np.array(
                                    data[legacy])
                                break
            if hasattr(edge, "bias"):
                key = _BIAS + name
                if key not in data:
                    raise KeyError(f"checkpoint missing bias for {name!r}")
                edge.bias = float(data[key])
                for vkey in (_BIAS_VELOCITY + name, _LEGACY_VELOCITY + name):
                    if vkey in data:
                        edge.state.velocity = float(data[vkey])
                        break
        rounds = int(data[_META][0]) if _META in data else 0
    network.rounds = rounds
    return rounds


def latest_checkpoint(directory) -> Optional[str]:
    """Path of the newest ``.npz`` checkpoint in *directory*, by the
    round number embedded in the filename (``ckpt-00000042.npz``) with
    modification time as tiebreaker; None when there is none."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return None
    entries = []
    for fname in os.listdir(directory):
        if not fname.endswith(".npz"):
            continue
        full = os.path.join(directory, fname)
        digits = re.findall(r"(\d+)", fname)
        round_no = int(digits[-1]) if digits else -1
        entries.append((round_no, os.path.getmtime(full), full))
    if not entries:
        return None
    return max(entries)[2]


def load_latest_checkpoint(network: Network, directory) -> Optional[str]:
    """Restore *network* from the newest checkpoint in *directory*.

    Returns the loaded checkpoint's path, or None when the directory
    holds no checkpoint (the network is left untouched).
    """
    path = latest_checkpoint(directory)
    if path is None:
        return None
    load_network(network, path)
    return path
