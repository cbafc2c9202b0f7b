"""The one ruler's contract (``repro.utils.timing.time_interleaved``),
on fake callables over a fake clock: no real time is read."""

import math

import pytest

from repro.utils.timing import time_interleaved


def recording(clock, order, label, costs):
    """A variant that logs its calls in *order* and takes the next of
    *costs* seconds per call (the first call is the warm-up)."""
    costs = iter(costs)
    advance = clock.takes(lambda: next(costs))

    def run():
        order.append(label)
        advance()
    return run


def test_warms_each_once_then_rotates_the_first_slot(fake_clock):
    order = []
    variants = {label: recording(fake_clock, order, label, [1.0] * 7)
                for label in "abc"}
    time_interleaved(variants, 6)
    assert order[:3] == list("abc")  # untimed warm-up
    rounds = [order[i:i + 3] for i in range(3, len(order), 3)]
    assert [r[0] for r in rounds] == list("abcabc")
    assert all(sorted(r) == list("abc") for r in rounds)


def test_medians_and_aa_spread_are_exact(fake_clock):
    order = []
    timings = time_interleaved({
        # warm-up 100 s is never a sample; odd rounds 1, 3, 5 take
        # 2, 4, 9 s and even rounds 2, 4 take 1, 3 s.
        "a": recording(fake_clock, order, "a", [100, 2, 1, 4, 3, 9]),
        "b": recording(fake_clock, order, "b", [7] * 6),
    }, 5)
    a, b = timings["a"], timings["b"]
    assert a.samples == (2, 1, 4, 3, 9)
    assert a.median == 3
    assert a.spread == pytest.approx(4 / 2 - 1)
    assert b.samples == (7,) * 5 and b.median == 7 and b.spread == 0


def test_one_round_has_no_spread(fake_clock):
    timing = time_interleaved({"a": fake_clock.takes(2.0)}, 1)["a"]
    assert timing.samples == (2.0,) and timing.median == 2.0
    assert math.isnan(timing.spread)


@pytest.mark.parametrize("rounds", [0, -1])
def test_rounds_below_one_raise(fake_clock, rounds):
    calls = []
    with pytest.raises(ValueError, match="rounds"):
        time_interleaved({"a": lambda: calls.append(1)}, rounds)
    assert calls == []


def test_a_variant_raising_in_a_timed_round_propagates(fake_clock):
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) == 3:  # warm-up and round 1 pass, round 2 fails
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        time_interleaved({"ok": fake_clock.takes(1.0), "flaky": flaky}, 4)
    assert len(calls) == 3
