"""The one ruler: the autotuner (Section IV), the bench gates and the
sweep scripts time every comparison with :func:`time_interleaved`."""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Mapping, NamedTuple, Tuple

from repro.utils.validation import check_positive_int

#: The clock every sample is read from; tests swap in a fake.
clock = time.perf_counter


class Timing(NamedTuple):
    samples: Tuple[float, ...]  # seconds per call, one per round
    median: float
    spread: float  # A/A: median(odd rounds) / median(even rounds) - 1


def time_interleaved(variants: Mapping[str, Callable[[], object]],
                     rounds: int) -> Dict[str, Timing]:
    """Call each variant once untimed, then once per round for *rounds*
    rounds, round r starting at variant r mod len(variants) so drift
    and cache state fall on all alike.  Exceptions propagate; with one
    round the spread is NaN."""
    rounds = check_positive_int(rounds, "rounds")
    labels = list(variants)
    for label in labels:
        variants[label]()
    samples: Dict[str, list] = {label: [] for label in labels}
    for r in range(rounds):
        for label in labels[r % len(labels):] + labels[:r % len(labels)]:
            start = clock()
            variants[label]()
            samples[label].append(clock() - start)
    return {label: Timing(tuple(s), statistics.median(s), float("nan")
                          if rounds == 1 else statistics.median(s[0::2])
                          / statistics.median(s[1::2]) - 1.0)
            for label, s in samples.items()}
