"""The AST lint rules: each catches its seeded fixture and stays quiet
on the clean twin (docs/static_analysis.md)."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import lint_file, lint_paths, lint_source
from repro.analysis.linting import ALL_RULES, render_violations
from repro.sync import priority_queue

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def rules_hit(path, rules=None):
    return {v.rule for v in lint_file(fixture(path), rules=rules)}


# -- each rule: positive fixture flagged, negative fixture clean ---------


@pytest.mark.parametrize("bad,ok,rule", [
    ("guarded_by_bad.py", "guarded_by_ok.py", "guarded-by"),
    ("guarded_by_locked_call_bad.py", "guarded_by_locked_call_ok.py",
     "guarded-by"),
    ("raw_acquire_bad.py", "raw_acquire_ok.py", "raw-acquire"),
    ("blocking_bad.py", "blocking_ok.py", "blocking-under-lock"),
    ("swap_only_bad.py", "swap_only_ok.py", "swap-only-critical-section"),
    ("metrics_name_bad.py", "metrics_name_ok.py", "metrics-name"),
    ("det_unordered_bad.py", "det_unordered_ok.py", "determinism"),
    ("det_rng_bad.py", "det_rng_ok.py", "determinism"),
    ("det_wallclock_bad.py", "det_wallclock_ok.py", "determinism"),
    ("det_reduction_bad.py", "det_reduction_ok.py", "determinism"),
    ("det_completion_bad.py", "det_completion_ok.py", "determinism"),
])
def test_rule_catches_seeded_bug_and_passes_clean_twin(bad, ok, rule):
    assert rule in rules_hit(bad), f"{rule} missed its seeded fixture"
    assert rule not in rules_hit(ok), f"{rule} false-positive on clean twin"


def test_guarded_by_counts_every_seeded_mutation():
    violations = [v for v in lint_file(fixture("guarded_by_bad.py"))
                  if v.rule == "guarded-by"]
    # += without lock, .append() without lock, rebind without lock.
    assert len(violations) == 3
    assert all("_lock" in v.message for v in violations)


def test_guarded_by_flags_every_unheld_locked_call():
    path = fixture("guarded_by_locked_call_bad.py")
    violations = lint_file(path, rules=["guarded-by"])
    with open(path) as fh:
        seeded = [n for n, line in enumerate(fh, 1) if "VIOLATION" in line]
    assert [v.line for v in violations] == seeded
    assert all("_locked()" in v.message for v in violations)


def test_locked_call_moved_out_of_the_queue_lock_is_caught():
    # HeapOfLists.pop calling its _locked helper without the queue
    # lock: the helper's own body is exempt, so only its caller shows it.
    with open(priority_queue.__file__) as fh:
        source = fh.read()
    held = ("        with self._lock:\n"
            "            while True:\n"
            "                entry = self._pop_valid_locked()\n")
    assert held in source
    assert lint_source(source, rules=["guarded-by"]) == []
    unheld = source.replace(held, (
        "        entry = self._pop_valid_locked()\n"
        "        with self._lock:\n"
        "            while True:\n"))
    violations = lint_source(unheld, rules=["guarded-by"])
    assert len(violations) == 1
    assert "_pop_valid_locked" in violations[0].message


def test_raw_acquire_flags_assigned_result_too():
    violations = [v for v in lint_file(fixture("raw_acquire_bad.py"))
                  if v.rule == "raw-acquire"]
    assert len(violations) == 2


def test_swap_only_finds_call_raise_and_arithmetic():
    messages = [v.message for v in lint_file(fixture("swap_only_bad.py"))
                if v.rule == "swap-only-critical-section"]
    assert len(messages) == 3
    assert any("raising" in m for m in messages)


def test_metrics_rule_names_the_catalog():
    violations = [v for v in lint_file(fixture("metrics_name_bad.py"))
                  if v.rule == "metrics-name"]
    assert len(violations) == 2
    assert all("catalog" in v.message for v in violations)


# -- engine behaviour ----------------------------------------------------


def test_fixtures_dir_is_skipped_by_tree_lint():
    # Linting the directory above the fixtures skips them (they hold
    # deliberate violations); the test modules themselves are clean.
    assert lint_paths([os.path.dirname(__file__)]) == []


def test_line_suppression_waives_exactly_one_line():
    source = (
        "import threading\n"
        "lock = threading.Lock()\n"
        "def f():\n"
        "    lock.acquire()  # lint: disable=raw-acquire\n"
        "    lock.acquire()\n"
    )
    violations = lint_source(source)
    assert [v.line for v in violations if v.rule == "raw-acquire"] == [5]


def test_file_suppression_waives_the_rule_everywhere():
    source = (
        "# lint: disable-file=raw-acquire\n"
        "import threading\n"
        "lock = threading.Lock()\n"
        "def f():\n"
        "    lock.acquire()\n"
        "    lock.acquire()\n"
    )
    assert lint_source(source) == []


def test_multiline_statement_annotation_is_seen():
    source = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = [\n"
        "            None]  # guarded-by: _lock\n"
        "    def bad(self):\n"
        "        self._items.append(1)\n"
    )
    assert [v.rule for v in lint_source(source)] == ["guarded-by"]


def test_nested_field_mutation_counts_as_guarded_mutation():
    source = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.stats = object()  # guarded-by: _lock\n"
        "    def bad(self):\n"
        "        self.stats.hits += 1\n"
        "    def good(self):\n"
        "        with self._lock:\n"
        "            self.stats.hits += 1\n"
    )
    violations = lint_source(source)
    assert [v.rule for v in violations] == ["guarded-by"]
    assert violations[0].line == 7


def test_unknown_rule_is_an_error():
    with pytest.raises(ValueError, match="unknown lint rule"):
        lint_source("x = 1\n", rules=["no-such-rule"])


def test_render_json_round_trips():
    violations = lint_file(fixture("metrics_name_bad.py"))
    decoded = json.loads(render_violations(violations, fmt="json"))
    assert len(decoded) == len(violations)
    assert decoded[0]["rule"] == violations[0].rule


def test_source_tree_is_clean():
    repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    assert lint_paths([os.path.normpath(repo_src)]) == []


# -- CLI -----------------------------------------------------------------


def run_cli(*argv):
    env = dict(os.environ)
    root = os.path.normpath(
        os.path.join(os.path.dirname(__file__), "..", ".."))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, cwd=root, env=env)


def test_cli_exits_zero_on_clean_tree():
    proc = run_cli("src")
    assert proc.returncode == 0, proc.stderr
    assert "clean" in proc.stdout


def test_cli_exits_one_on_violations_with_json_output():
    proc = run_cli("--format", "json",
                   os.path.join("tests", "analysis", "fixtures",
                                "raw_acquire_bad.py"))
    assert proc.returncode == 1
    decoded = json.loads(proc.stdout)
    assert {v["rule"] for v in decoded} == {"raw-acquire"}


def test_cli_lists_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    assert set(proc.stdout.split()) == set(ALL_RULES)
