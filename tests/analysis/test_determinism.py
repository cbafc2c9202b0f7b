"""The determinism rule: interprocedural obligation, escapes,
suppression semantics, SARIF rendering, and the acceptance-criterion
injection (a `reduce_in_order` call swapped for builtin `sum` over a
set must be caught)."""

import json
import os
import textwrap

from repro.analysis import lint_paths, lint_source
from repro.analysis.linting import render_violations

SRC = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def lint(text, **kwargs):
    return lint_source(textwrap.dedent(text), rules=["determinism"],
                       **kwargs)


# -- interprocedural behaviour -------------------------------------------


def test_violation_in_transitive_callee_is_reported():
    violations = lint("""
        # deterministic
        def entry():
            return helper()

        def helper():
            return sum({1.0, 2.0})
    """)
    assert [v.rule for v in violations] == ["determinism"]
    assert "helper()" in violations[0].message


def test_unreachable_code_is_not_obligated():
    violations = lint("""
        # deterministic
        def entry():
            return 1.0

        def unrelated():
            return sum({1.0, 2.0})
    """)
    assert violations == []


def test_no_roots_means_no_findings():
    violations = lint("""
        def anything():
            return sum({1.0, 2.0})
    """)
    assert violations == []


# -- escape grammar ------------------------------------------------------


def test_reasoned_escape_suppresses_and_keeps_justification():
    violations = lint("""
        # deterministic
        def entry():
            return helper()

        def helper():  # nondeterministic: diagnostics only
            return sum({1.0, 2.0})
    """, include_suppressed=True)
    assert len(violations) == 1
    assert violations[0].suppressed
    assert violations[0].justification == "diagnostics only"


def test_suppressed_findings_hidden_by_default():
    violations = lint("""
        # deterministic
        def entry():
            return helper()

        def helper():  # nondeterministic: diagnostics only
            return sum({1.0, 2.0})
    """)
    assert violations == []


def test_escape_without_reason_is_itself_a_finding():
    violations = lint("""
        def helper():  # nondeterministic:
            pass
    """)
    assert len(violations) == 1
    assert "escape-without-reason" in violations[0].message
    assert not violations[0].suppressed


def test_line_level_escape_suppresses_one_finding():
    violations = lint("""
        # deterministic
        def entry(slots: set) -> float:
            a = sum(slots)  # nondeterministic: int cardinality sum
            b = sum(slots)
            return a + b
    """, include_suppressed=True)
    assert [v.suppressed for v in violations] == [True, False]
    assert violations[0].justification == "int cardinality sum"


# -- acceptance criterion: synthetic injection ---------------------------


def test_injected_sum_over_set_in_summation_is_caught():
    path = os.path.join(SRC, "repro", "sync", "summation.py")
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    # OrderedSum.add's in-order, in-place step.
    assert "total += value" in original

    mutated = original.replace("total += value",
                               "total = sum(set((total, value)))")
    violations = lint_source(mutated, rules=["determinism"],
                             path="summation.py")
    assert any(v.rule == "determinism"
               and "reassociating-reduction" in v.message
               for v in violations), \
        "the injected sum-over-set must be flagged"

    # The unmutated module stays clean (regression guard).
    assert lint_source(original, rules=["determinism"],
                       path="summation.py") == []


def test_source_tree_is_determinism_clean_with_reasoned_escapes():
    violations = lint_paths([SRC], rules=["determinism"],
                            include_suppressed=True)
    active = [v for v in violations if not v.suppressed]
    assert active == [], "\n".join(str(v) for v in active)
    for v in violations:
        assert v.justification, f"suppression without a reason: {v}"


# -- SARIF rendering -----------------------------------------------------


def test_sarif_document_structure():
    violations = lint("""
        # deterministic
        def entry():
            return helper()

        def helper():  # nondeterministic: diagnostics only
            return sum({1.0, 2.0})

        def bad():  # nondeterministic:
            pass
    """, include_suppressed=True)
    doc = json.loads(render_violations(violations, fmt="sarif"))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "determinism" in rule_ids
    results = run["results"]
    assert len(results) == len(violations)
    suppressed = [r for r in results if r.get("suppressions")]
    assert len(suppressed) == 1
    assert suppressed[0]["suppressions"][0]["justification"] \
        == "diagnostics only"
    for result in results:
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"]
        assert loc["region"]["startLine"] >= 1


def test_sarif_empty_run_is_valid():
    doc = json.loads(render_violations([], fmt="sarif"))
    assert doc["runs"][0]["results"] == []
