"""FFT memoization — the "(Memoized)" column of Table II.

During one round of gradient learning the same spectra are needed by
multiple passes:

* the spectrum of a node's forward image is needed by every outgoing
  edge's forward pass *and again* by every outgoing edge's weight
  update;
* the spectrum of an edge's kernel is needed by the forward pass *and
  again* by the backward pass;
* the spectrum of a node's backward image is needed by every incoming
  edge's backward pass *and again* by every incoming edge's update.

Memoizing them removes one third of the FFT work per round (9C→6C in
Table II).  The paper notes this was impractical on GPUs for memory
reasons but is natural on CPUs with large RAM.

The cache is a thread-safe per-round store keyed by (round, kind, name).
``next_round`` drops everything from previous rounds, mirroring ZNN's
behaviour where memoized spectra live exactly one forward/backward
/update cycle.  Statistics (computed vs reused) feed the memoization
benchmark.

One extension supports long-running *serving* processes
(``repro.serving``, docs/serving.md): **pinned kinds** —
:meth:`TransformCache.pin_kind` marks a kind (e.g. ``"ker"``) as
persistent: its entries survive ``next_round``.  At inference time
kernels never change, so a warm model's kernel spectra are transformed
once and reused by every request (and by every twin of the model,
:meth:`TransformCache.share_pinned`).  Pinning is only safe while the
underlying parameters are frozen; training code must not pin.  The
cache needs no byte cap: ``next_round`` bounds it to one round's spectra
plus the pinned kernels of one network, and
``ModelRegistry(max_models=k)`` bounds the number of networks.  The
``fft_cache.bytes`` / ``fft_cache.entries`` gauges sum every live cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Tuple

import numpy as np

from repro.analysis.runtime import make_lock
from repro.observability.metrics import get_registry

__all__ = ["CacheStats", "TransformCache"]

#: Key-prefix for entries of pinned kinds (no round component, so they
#: survive round eviction).
_PINNED = "pinned"


@dataclass
class CacheStats:
    """Counters for memoization effectiveness."""

    computed: int = 0
    reused: int = 0
    evicted: int = 0

    @property
    def total_requests(self) -> int:
        return self.computed + self.reused

    @property
    def reuse_fraction(self) -> float:
        total = self.total_requests
        return self.reused / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "computed": self.computed,
            "reused": self.reused,
            "evicted": self.evicted,
            "reuse_fraction": self.reuse_fraction,
        }


class TransformCache:
    """Thread-safe memoization store for FFT spectra.

    Parameters
    ----------
    enabled:
        When False the cache degenerates to always-compute (the plain
        "FFT-based" column of Table II); statistics are still gathered
        so the two modes can be compared.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = make_lock("tensor.fft_cache")
        self._store: Dict[Tuple[Hashable, ...], np.ndarray] = {}  # guarded-by: _lock
        self._round = 0  # guarded-by: _lock
        self._bytes = 0  # guarded-by: _lock
        self._pinned_kinds: frozenset = frozenset()  # guarded-by: _lock
        self.stats = CacheStats()  # guarded-by: _lock
        reg = get_registry()
        self._m_hit = reg.counter("fft_cache.hit")
        self._m_miss = reg.counter("fft_cache.miss")
        self._m_evicted = reg.counter("fft_cache.evicted")
        self._m_bytes = reg.gauge("fft_cache.bytes")
        self._m_entries = reg.gauge("fft_cache.entries")

    # ------------------------------------------------------------------

    @property
    def round(self) -> int:
        """Current training round the cache is scoped to."""
        return self._round

    @property
    def nbytes(self) -> int:
        """Bytes of spectra currently held."""
        with self._lock:
            return self._bytes

    def pin_kind(self, kind: str) -> None:
        """Mark *kind* persistent: entries survive :meth:`next_round`.

        Serving pins ``"ker"`` so a warm model's kernel spectra are
        computed once per process rather than once per request.  Only
        safe while the parameters behind the kind are frozen.
        """
        with self._lock:
            self._pinned_kinds = self._pinned_kinds | {kind}

    @property
    def pinned_kinds(self) -> frozenset:
        return self._pinned_kinds

    def share_pinned(self, source: "TransformCache") -> None:
        """Hold *source*'s pinned kinds and entries by reference, made
        read-only (serving twins of one model share one kernel-spectrum
        set this way; a pass writing into one would corrupt them all)."""
        with source._lock:
            kinds = source._pinned_kinds
            shared = [(k, v) for k, v in source._store.items()
                      if k[0] == _PINNED]
        for _, value in shared:
            value.flags.writeable = False
        with self._lock:
            self._pinned_kinds |= kinds
            self._store.update(shared)
            self._count_locked(sum(value.nbytes for _, value in shared),
                               len(shared))

    def _count_locked(self, nbytes: int, entries: int) -> None:
        """Move the byte count and both gauges by a delta."""
        self._bytes += nbytes
        self._m_bytes.inc(nbytes)
        self._m_entries.inc(entries)

    def __del__(self) -> None:
        """A collected cache takes its entries out of the gauges."""
        if hasattr(self, "_m_entries"):  # __init__ ran to its end
            self._m_bytes.dec(self._bytes)
            self._m_entries.dec(len(self._store))

    def _key(self, kind: str, name: Hashable) -> Tuple[Hashable, ...]:
        if kind in self._pinned_kinds:
            return (_PINNED, kind, name)
        return (self._round, kind, name)

    def next_round(self) -> int:
        """Advance to the next training round, evicting all per-round
        spectra (entries of pinned kinds survive).

        ZNN's memoized spectra are only valid within one forward/
        backward/update cycle: kernels change at the update, images
        change with the next sample.
        """
        with self._lock:
            if self._pinned_kinds:
                keep = {k: v for k, v in self._store.items()
                        if k[0] == _PINNED}
            else:
                keep = {}
            evicted = len(self._store) - len(keep)
            self.stats.evicted += evicted
            self._store = keep
            kept = sum(  # nondeterministic: int sum, order-free
                v.nbytes for v in keep.values())
            self._count_locked(kept - self._bytes, -evicted)
            self._round += 1
            if evicted:
                self._m_evicted.inc(evicted)
            return self._round

    def drop(self, kind: str, name: Hashable) -> None:
        """Evict one entry, if there is one, before its round ends."""
        with self._lock:
            value = self._store.pop(self._key(kind, name), None)
            if value is not None:
                self._count_locked(-value.nbytes, -1)

    def get_or_compute(self, kind: str, name: Hashable,
                       compute: Callable[[], np.ndarray]) -> np.ndarray:
        """Return the cached spectrum for (kind, name), computing at most
        once per round (once per process for pinned kinds).

        The computation runs *outside* the lock; if two threads race on
        the same key both compute but only one result is stored — the
        spectra are deterministic so either is correct.  This trades a
        rare duplicated FFT for never holding the lock during an FFT,
        in the same spirit as the paper's wait-free summation.
        """
        key = self._key(kind, name)
        if self.enabled:
            with self._lock:
                cached = self._store.get(key)
                if cached is not None:
                    self.stats.reused += 1
            if cached is not None:
                self._m_hit.inc()
                return cached
        value = compute()
        with self._lock:
            self.stats.computed += 1
            if self.enabled:
                if key not in self._store:
                    self._store[key] = value
                    self._count_locked(value.nbytes, 1)
                value = self._store[key]
        self._m_miss.inc()
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TransformCache(enabled={self.enabled}, round={self._round}, "
                f"entries={len(self)}, bytes={self.nbytes}, "
                f"stats={self.stats.snapshot()})")
