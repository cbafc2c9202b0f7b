"""Synthetic connectomics-style volumes.

The paper's motivating application is boundary detection in 3D electron
microscopy of brain tissue [13], [21], [23] — data we do not have.  We
substitute synthetic "cell" volumes with analytic ground truth that
exercise the same code paths (dense 3D input, dense binary boundary
target, sliding-window/dense inference):

* a random Voronoi partition of the volume plays the role of the cell
  segmentation;
* the boundary map marks voxels whose neighbourhood spans two cells
  (the membrane ground truth);
* the intensity image is bright inside cells and dark at membranes,
  with optional blur and noise — the EM contrast polarity.

Everything is seeded and pure numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.shapes import as_shape3

__all__ = ["CellVolume", "make_cell_volume", "boundary_map_from_labels"]


def boundary_map_from_labels(labels: np.ndarray) -> np.ndarray:
    """Binary membrane map: 1 where a voxel's 6-neighbourhood crosses a
    label boundary."""
    boundary = np.zeros(labels.shape, dtype=np.float64)
    for axis in range(labels.ndim):
        if labels.shape[axis] < 2:
            continue
        lo = [slice(None)] * labels.ndim
        hi = [slice(None)] * labels.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        diff = labels[tuple(lo)] != labels[tuple(hi)]
        boundary[tuple(lo)][diff] = 1.0
        boundary[tuple(hi)][diff] = 1.0
    return boundary


def _box_blur(image: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur (cheap smoothing without scipy.ndimage)."""
    out = image
    for axis in range(3):
        if out.shape[axis] < 2 * radius + 1 or radius < 1:
            continue
        csum = np.cumsum(out, axis=axis)
        width = 2 * radius + 1
        n = out.shape[axis]
        idx_hi = np.clip(np.arange(n) + radius, 0, n - 1)
        idx_lo = np.arange(n) - radius - 1
        hi = np.take(csum, idx_hi, axis=axis)
        lo = np.where(
            (idx_lo >= 0).reshape([-1 if a == axis else 1 for a in range(3)]),
            np.take(csum, np.clip(idx_lo, 0, n - 1), axis=axis), 0.0)
        counts = (idx_hi - np.clip(idx_lo, -1, n - 1)).astype(np.float64)
        counts = counts.reshape([-1 if a == axis else 1 for a in range(3)])
        out = (hi - lo) / counts
    return out


@dataclass
class CellVolume:
    """A synthetic labelled volume: intensity image, cell labels, and
    the binary membrane ground truth."""

    image: np.ndarray
    labels: np.ndarray
    boundary: np.ndarray

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.image.shape  # type: ignore[return-value]

    def boundary_fraction(self) -> float:
        """Fraction of voxels labelled as membrane (class balance)."""
        return float(np.mean(self.boundary))


def make_cell_volume(shape: int | Sequence[int] = 48,
                     num_cells: int = 12,
                     noise: float = 0.1,
                     blur_radius: int = 1,
                     anisotropy: Sequence[float] = (1.0, 1.0, 1.0),
                     seed: SeedLike = None) -> CellVolume:
    """Generate a synthetic cell volume.

    Parameters
    ----------
    shape:
        Volume shape (scalar = isotropic cube).
    num_cells:
        Number of Voronoi seed points (cells).
    noise:
        Stddev of additive Gaussian intensity noise.
    blur_radius:
        Box-blur radius applied to the clean intensity (simulates the
        microscope point-spread).
    anisotropy:
        Per-axis distance weights (EM stacks have coarser z).
    seed:
        RNG seed.
    """
    shp = as_shape3(shape, name="shape")
    if num_cells < 1:
        raise ValueError(f"num_cells must be >= 1, got {num_cells}")
    rng = as_generator(seed)

    points = rng.random((num_cells, 3)) * np.array(shp)
    weights = np.asarray(anisotropy, dtype=np.float64)
    if weights.shape != (3,) or np.any(weights <= 0):
        raise ValueError(f"anisotropy must be 3 positive floats, got {anisotropy}")

    grid = np.stack(np.meshgrid(*[np.arange(s) for s in shp], indexing="ij"),
                    axis=-1).astype(np.float64)
    # Distance to every seed, weighted per axis; argmin = Voronoi label.
    best = np.full(shp, np.inf)
    labels = np.zeros(shp, dtype=np.int32)
    for i, p in enumerate(points):
        d = np.zeros(shp)
        for a in range(3):
            d += (weights[a] * (grid[..., a] - p[a])) ** 2
        closer = d < best
        best[closer] = d[closer]
        labels[closer] = i
    boundary = boundary_map_from_labels(labels)

    clean = 1.0 - boundary  # bright cytoplasm, dark membranes
    clean = _box_blur(clean, blur_radius)
    image = clean + noise * rng.standard_normal(shp)
    return CellVolume(image=np.ascontiguousarray(image),
                      labels=labels,
                      boundary=boundary)
