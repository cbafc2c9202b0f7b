"""The runtime determinism sanitizer: double-run digest diffing with
first-divergence provenance.  Fast tests substitute a scripted probe
via ``probe_argv``; the slow lane runs the real train/serve/loadgen
probe (the CI determinism-check criterion)."""

import sys
import textwrap

import pytest

from repro.analysis.runtime import (
    DET_THREADS_ENV,
    _parse_probe_output,
    run_determinism_check,
)


def scripted_probe(body):
    return [sys.executable, "-c", textwrap.dedent(body)]


STABLE_PROBE = scripted_probe("""
    print('{"stage": "train", "digest": "aaaa"}')
    print("progress noise: not a digest line")
    print('{"stage": "serve", "digest": "bbbb"}')
    print('{"stage": "report", "digest": "cccc"}')
""")

# Digest depends on the perturbed thread count from the second stage
# on: the checker must name "serve" (not "report") as the first
# divergence.
LEAKY_PROBE = scripted_probe("""
    import json
    import os
    threads = os.environ["%s"]
    print(json.dumps({"stage": "train", "digest": "aaaa"}))
    print(json.dumps({"stage": "serve", "digest": "s-" + threads}))
    print(json.dumps({"stage": "report", "digest": "r-" + threads}))
""" % DET_THREADS_ENV)


def test_identical_probes_match():
    doc = run_determinism_check(probe_argv=STABLE_PROBE)
    assert doc["matched"] is True
    assert doc["stages"] == ["train", "serve", "report"]
    assert doc["first_divergence"] is None
    assert [run["threads"] for run in doc["runs"]] == [1, 2]


def test_first_divergence_provenance():
    doc = run_determinism_check(probe_argv=LEAKY_PROBE)
    assert doc["matched"] is False
    first = doc["first_divergence"]
    assert first["stage"] == "serve"
    assert first["run_a"] == "s-1"
    assert first["run_b"] == "s-2"
    assert [d["stage"] for d in doc["divergences"]] \
        == ["serve", "report"]


def test_perturbation_env_reaches_the_probe():
    probe = scripted_probe("""
        import json
        import os
        seed = os.environ["PYTHONHASHSEED"]
        print(json.dumps({"stage": "env", "digest": seed}))
    """)
    doc = run_determinism_check(probe_argv=probe, seeds=(7, 7))
    assert doc["matched"] is True
    assert doc["runs"][0]["digests"]["env"] == "7"


def test_failing_probe_raises():
    probe = scripted_probe("raise SystemExit(3)")
    with pytest.raises(RuntimeError, match="exited 3"):
        run_determinism_check(probe_argv=probe)


def test_probe_without_digests_raises():
    probe = scripted_probe("print('no json here')")
    with pytest.raises(RuntimeError, match="no stage digests"):
        run_determinism_check(probe_argv=probe)


def test_parse_ignores_malformed_lines():
    pairs = _parse_probe_output(
        '{"stage": "a", "digest": "1"}\n'
        "{broken json\n"
        '{"stage": 5, "digest": "x"}\n'
        "[1, 2]\n"
        '{"stage": "b", "digest": "2"}\n')
    assert pairs == (("a", "1"), ("b", "2"))


@pytest.mark.slow
def test_real_probe_is_bitwise_reproducible():
    doc = run_determinism_check()
    assert doc["matched"] is True, doc["first_divergence"]
    assert set(doc["stages"]) == {"train.state_digest", "train.losses",
                                  "train.network.state_digest",
                                  "serve.dense_volume", "serve.warm_twins",
                                  "loadtest.report"}
