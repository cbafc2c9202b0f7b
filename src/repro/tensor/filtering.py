"""The window maximum: max-filtering and max-pooling, forward and
Jacobian (Sections II and III-A).

Max-filtering computes the maximum within a sliding window for each
window position — it does *not* reduce resolution, which is what lets a
max-filtering ConvNet with sparse convolutions compute the output of a
sliding-window max-pooling ConvNet densely and efficiently (Fig 2,
skip-kernels / filter rarefaction).  The paper defines it as max-pooling
without the stride, so both are one kernel, :func:`window_max`: ``k``
taps per dimension ``dilation`` voxels apart, windows ``step`` apart.

* *Max-filtering* is ``step = 1, dilation = sparsity``: taps at offsets
  ``0, s, …, (k-1)s``, as skip-kernel networks need where later
  max-filterings act on rarefied lattices; ``n - (k-1)s`` per dimension.
* *Max-pooling* is ``step = window``: the ``n^3`` image (``n`` divisible
  by ``p``) falls into disjoint ``p^3`` blocks, output ``(n/p)^3``.

The box maximum is separable, so the kernel folds one axis at a time —
x, then y, then z — each pass a 1-D strided tap walk
(:func:`repro.tensor.conv_direct.tap_views`): plain ufuncs, no window
copy, no masked select.  A tap replaces the running winner only on a
strict ``>`` and the later pass decides first, so the winner is the
first maximum in C tap order, as ``numpy.argmax`` over the window would
choose, whatever the image extent — a voxel filtered inside a tile
equals the same voxel of the whole volume.  Forward and Jacobian share
the *winners* — per output voxel, the flat index of the input voxel
that won; a caller that never runs the Jacobian asks for
:func:`window_max_values` and pays for none (``docs/algorithms.md``
"Window maximum").

:func:`max_filter_1d_heap` / :func:`max_filter_separable` are the
paper's own algorithm — sequential 1-D max-filterings in each of the
three directions, each 1-D pass using a heap of size ``k`` with lazy
deletion so every element is inserted and removed at most once at
``O(log k)`` each (Section II "Max-filtering"), the source of the
``6 n^3 log k`` FLOP count in Table I.  They yield values only, in
interpreted Python: the independent reference the tests hold
:func:`window_max` to, not a second production path.
"""

from __future__ import annotations

import heapq
from typing import Sequence, Tuple

import numpy as np

from repro.tensor.conv_direct import tap_views
from repro.utils.shapes import (
    as_shape3,
    pool_shape,
    valid_conv_shape,
    voxels,
)
from repro.utils.validation import check_array3

__all__ = [
    "window_max",
    "window_max_values",
    "scatter_winners",
    "max_filter_forward",
    "max_filter_backward",
    "max_pool_forward",
    "max_pool_backward",
    "max_filter_1d_heap",
    "max_filter_separable",
]


def _geometry(image, window, step, dilation, stack=False):
    """Validated ``(image, window, step, dilation, output shape)``; with
    *stack*, a stack of images (leading axes) passes as it is."""
    stacked = stack and np.ndim(image) > 3
    img = image if stacked else check_array3(image, "image")
    k = as_shape3(window, name="window")
    t = as_shape3(step, name="step")
    d = as_shape3(dilation, name="dilation")
    valid = valid_conv_shape(img.shape[-3:], k, d)
    return img, k, t, d, tuple((v - 1) // ti + 1 for v, ti in zip(valid, t))


def _separable_max(img, k, t, d, out_shape, code=None, has_nan=False,
                   alloc=np.empty):
    """Fold the window one axis at a time — x, then y, then z — each
    pass the 1-D tap walk over what the previous one left.  With *code*
    (zeros like *img*, of an integer type holding ``+-k^3``) the C-order
    rank of the winning tap rides along, replaced on a strict ``>`` by
    exact integer arithmetic rather than a masked select; *alloc* makes
    the values.  Returns ``(values, code)``; why this is the first
    maximum in C tap order is ``docs/algorithms.md`` "Window maximum".
    """
    acc, radix, made = img, 1, None
    for axis in (2, 1, 0):
        window, dilation, step = (
            tuple(v[axis] if a == axis else 1 for a in range(3))
            for v in (k, d, t))
        walk = (window, dilation, acc.shape[-3:][:axis] + out_shape[axis:],
                step)
        blocks = list(tap_views(acc, *walk))
        acc = blocks[0]
        if code is not None:
            ranks = list(tap_views(code, *walk))
            code = ranks[0]
        for u in range(1, k[axis]):
            if code is not None:
                wins = blocks[u] > acc
                if has_nan:  # rare: strict > alone would skip a later NaN
                    wins |= np.isnan(blocks[u]) & ~np.isnan(acc)
                code = code + wins * (ranks[u] + u * radix - code)
            acc = made = np.maximum(
                acc, blocks[u],
                out=alloc(acc.shape, acc.dtype) if u == 1 else acc)
        radix *= k[axis]
    if acc is not made:  # still a view where the last axis had one tap
        made = alloc(acc.shape, acc.dtype)
        np.copyto(made, acc)
    return made, code


def window_max_values(image: np.ndarray, window: int | Sequence[int],
                      step: int | Sequence[int] = 1,
                      dilation: int | Sequence[int] = 1,
                      alloc=np.empty) -> np.ndarray:
    """``window_max(...)[0]``, bit for bit, without deriving winners
    unless the sign of a zero or the payload of a NaN hangs on them;
    of each image of a stack (leading axes), the fallback per image.
    The values are made with *alloc* (``np.empty``'s signature)."""
    img, k, t, d, out_shape = _geometry(image, window, step, dilation,
                                        stack=True)
    values, _ = _separable_max(img, k, t, d, out_shape, alloc=alloc)
    if values.all() and not np.isnan(values).any():
        return values
    if img.ndim > 3:
        return np.stack([window_max_values(one, k, t, d) for one in img])
    return window_max(img, k, t, d)[0]


def window_max(image: np.ndarray, window: int | Sequence[int],
               step: int | Sequence[int] = 1,
               dilation: int | Sequence[int] = 1
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Maximum of *image* over every window position.

    Returns ``(values, winners)``, both ``(n - (k-1)d - 1) // t + 1``
    per dimension: ``winners`` holds, per output voxel, the flat C-order
    index into *image* of the first maximum of its window in tap order
    (a NaN counts as the maximum, so a window containing one yields
    NaN); ``image.flat[winners] == values``.
    """
    img, k, t, d, out_shape = _geometry(image, window, step, dilation)
    has_nan = bool(np.isnan(img).any())
    code = np.zeros(img.shape, dtype=np.min_scalar_type(-voxels(k)))
    values, code = _separable_max(img, k, t, d, out_shape, code, has_nan)
    # Rank -> flat index: the tap's offset plus the window's origin,
    # both lattices of the image's own flat index.
    index = np.arange(img.size, dtype=np.intp).reshape(img.shape)
    taps, origins = (index[tuple(slice(0, c * s, s) for c, s in zip(n, by))]
                     for n, by in ((k, d), (out_shape, t)))
    winners = taps.ravel()[code.astype(np.intp)]
    winners += origins
    if has_nan or not values.all():
        # maximum() may return either of two equal zeros (or NaNs).
        values = img.ravel()[winners]
    return values, winners


def scatter_winners(grad_output: np.ndarray, winners: np.ndarray,
                    input_shape: Sequence[int]) -> np.ndarray:
    """The window-maximum Jacobian.

    The backward image (of the forward *input* size) starts at zero and,
    for each window position, the backward value is *accumulated* at the
    voxel that won the forward max — filter windows overlap, so a voxel
    can win several and receives the sum, in C order of the output; pool
    blocks are disjoint, so all but each block's winner stay zero.
    """
    go = check_array3(grad_output, "grad_output")
    in_shape = as_shape3(input_shape, name="input_shape")
    if winners.shape != go.shape:
        raise ValueError(f"winners shape {winners.shape} incompatible "
                         f"with grad_output {go.shape}")
    grad_input = np.zeros(in_shape, dtype=go.dtype)
    np.add.at(grad_input.reshape(-1), winners.reshape(-1), go.reshape(-1))
    return grad_input


def max_filter_forward(image: np.ndarray, window: int | Sequence[int],
                       sparsity: int | Sequence[int] = 1
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding-window maximum of *image*: ``n - (k-1)s`` per dimension,
    with the winners :func:`max_filter_backward` routes through."""
    return window_max(image, window, step=1, dilation=sparsity)


def max_filter_backward(grad_output: np.ndarray, argmax: np.ndarray,
                        input_shape: Sequence[int]) -> np.ndarray:
    """Max-filtering Jacobian: grow back to *input_shape*."""
    return scatter_winners(grad_output, argmax, input_shape)


def max_pool_forward(image: np.ndarray, window: int | Sequence[int]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Max-pool *image* with block size *window*: ``n/p`` per dimension,
    with the winners :func:`max_pool_backward` routes through."""
    img = check_array3(image, "image")
    pool_shape(img.shape, window)  # validates divisibility
    return window_max(img, window, step=window)


def max_pool_backward(grad_output: np.ndarray, argmax: np.ndarray,
                      window: int | Sequence[int]) -> np.ndarray:
    """Max-pooling Jacobian: expand ``n^3`` back to ``(n*p)^3``, zero
    everywhere but at each block's forward winner."""
    go = check_array3(grad_output, "grad_output")
    p = as_shape3(window, name="window")
    return scatter_winners(
        go, argmax, tuple(n * pd for n, pd in zip(go.shape, p)))


def max_filter_1d_heap(array: np.ndarray, k: int) -> np.ndarray:
    """1-D sliding-window maximum using a lazy-deletion heap of size ~k.

    This is the paper's description verbatim: "we keep a heap of size k
    containing the values inside the 1D sliding window.  Each element of
    the array will be inserted and removed at most once, each operation
    taking log k.  For each position of the sliding window the top of
    the heap will contain the maximum value."
    """
    a = np.asarray(array, dtype=np.float64).ravel()
    n = a.shape[0]
    if k < 1:
        raise ValueError(f"window must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"window {k} larger than array length {n}")
    out = np.empty(n - k + 1, dtype=a.dtype)
    heap: list[tuple[float, int]] = []
    for i in range(n):
        heapq.heappush(heap, (-a[i], i))
        if i >= k - 1:
            # Lazily evict entries that slid out of the window.
            while heap[0][1] <= i - k:
                heapq.heappop(heap)
            out[i - k + 1] = -heap[0][0]
    return out


def max_filter_separable(image: np.ndarray, window: int | Sequence[int]
                         ) -> np.ndarray:
    """3-D max-filter by sequential 1-D max-filterings along each axis.

    The 3-D box maximum is separable, so filtering the ``n^2`` rows of
    each of the three directions in turn (Table I's ``6 n^3 log k``)
    gives the same values as the direct window maximum.  Returns values
    only (the Jacobian needs :func:`window_max`'s winners).
    """
    img = check_array3(image, "image")
    k = as_shape3(window, name="window")
    result = img
    for axis, kd in enumerate(k):
        if kd == 1:
            continue
        moved = np.moveaxis(result, axis, -1)
        rows = moved.reshape(-1, moved.shape[-1])
        filtered = np.empty((rows.shape[0], rows.shape[1] - kd + 1),
                            dtype=rows.dtype)
        for r in range(rows.shape[0]):
            filtered[r] = max_filter_1d_heap(rows[r], kd)
        new_shape = moved.shape[:-1] + (moved.shape[-1] - kd + 1,)
        result = np.moveaxis(filtered.reshape(new_shape), -1, axis)
    return np.ascontiguousarray(result)
