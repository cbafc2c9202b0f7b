"""AST lint engine for the repo's concurrency and metrics disciplines.

``repro lint`` runs project-specific rules over the tree:

``guarded-by``
    Attributes documented as lock-guarded — a trailing
    ``# guarded-by: <lock>`` comment on the attribute's ``__init__``
    assignment (or on a module-level global) — may only be *mutated*
    inside a ``with self.<lock>`` block.  Methods whose name ends in
    ``_locked`` are exempt by convention (they document that the caller
    holds the guard), so their callers are checked instead: a
    ``self.<name>_locked(...)`` call must sit inside a lock-like
    ``with`` or in another ``_locked`` method or ``__init__``.  Several
    accepted guards may be listed comma-separated (e.g. a lock and the
    condition wrapping it).

``raw-acquire``
    A bare ``<lock>.acquire()`` call whose enclosing function has no
    ``try/finally`` releasing the same lock leaks the lock on any
    exception; use ``with lock:`` instead.

``blocking-under-lock``
    Known-blocking calls (``time.sleep``, ``open``, ``print``,
    ``subprocess.*``, blocking ``queue.get``/``queue.pop`` without a
    timeout, …) inside a ``with <lock-like>`` block stall every other
    thread contending for the lock.  ``.wait(...)`` is exempt —
    condition waits release the lock by design.

``swap-only-critical-section``
    A ``with`` statement annotated ``# critical-section: swap-only``
    (the Algorithm-4 summation discipline) may contain only pointer
    swaps: plain name/attribute assignments, constant-step counter
    bumps, and comparisons.  No calls, no allocation (f-strings,
    containers, arithmetic), no subscripts, no ``raise``.

``metrics-name``
    Every string-literal metric name passed to
    ``registry.counter/gauge/histogram`` must appear in the
    observability catalog (``repro.observability.catalog``), keeping
    the docs' metric table and the code in lock-step.

Suppression: append ``# lint: disable=<rule>[,<rule>…]`` to the
offending line, or put ``# lint: disable-file=<rule>`` on its own line
anywhere in the file to waive a rule file-wide.
"""

from __future__ import annotations

import ast
import io
import json
import os
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ALL_RULES",
    "RULE_DESCRIPTIONS",
    "LintViolation",
    "SourceFile",
    "lint_file",
    "lint_paths",
    "lint_source",
]

#: Mutating method names on guarded containers.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "add", "update", "setdefault", "sort", "reverse",
})

#: Known-blocking calls (dotted names) for blocking-under-lock.
_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system", "os.wait", "os.waitpid", "input",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "urllib.request.urlopen", "socket.create_connection",
})

#: Bare builtins that do I/O.
_BLOCKING_BUILTINS = frozenset({"open", "print", "input"})


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at a source location.

    A violation carrying an in-source justification (the determinism
    rule's ``# nondeterministic: <reason>`` escapes) is *suppressed*:
    it is still reported for visibility (and lands in SARIF with a
    ``suppressions`` entry) but does not fail ``repro lint``.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str = ""

    def __str__(self) -> str:
        text = (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule}: {self.message}")
        if self.suppressed:
            text += f" [suppressed: {self.justification}]"
        return text

    def as_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message}
        if self.suppressed:
            doc["suppressed"] = True
            doc["justification"] = self.justification
        return doc


class SourceFile:
    """A parsed module plus its comment annotations."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        #: line -> comment text (without the leading '#').
        self.comments: Dict[int, str] = {}
        #: line -> set of rule names disabled on that line.
        self.line_disables: Dict[int, Set[str]] = {}
        #: rules disabled for the whole file.
        self.file_disables: Set[str] = set()
        self._scan_comments()

    def _scan_comments(self) -> None:
        reader = io.StringIO(self.source).readline
        try:
            tokens = list(tokenize.generate_tokens(reader))
        except tokenize.TokenError:  # pragma: no cover - parse caught it
            return
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            line = tok.start[0]
            self.comments[line] = text
            if text.startswith("lint:"):
                directive = text[len("lint:"):].strip()
                if directive.startswith("disable-file="):
                    rules = directive[len("disable-file="):]
                    self.file_disables.update(
                        r.strip() for r in rules.split(",") if r.strip())
                elif directive.startswith("disable="):
                    rules = directive[len("disable="):]
                    self.line_disables.setdefault(line, set()).update(
                        r.strip() for r in rules.split(",") if r.strip())

    def annotation(self, line: int, marker: str) -> Optional[str]:
        """The value of a ``# <marker>: <value>`` comment on *line*."""
        text = self.comments.get(line)
        if text is None or not text.startswith(marker):
            return None
        rest = text[len(marker):]
        if not rest.startswith(":"):
            return None
        return rest[1:].strip()

    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_disables:
            return True
        return rule in self.line_disables.get(line, set())


def _dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, '' otherwise."""
    parts: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    elif isinstance(current, ast.Call):
        # e.g. get_registry().counter — keep the callee name.
        parts.append(_dotted_name(current.func) + "()")
    elif parts:
        parts.append("<expr>")
    else:
        return ""
    return ".".join(reversed(parts))


def _is_lockish(expr: ast.AST) -> bool:
    """Heuristic: does this with-context expression look like a lock?"""
    name = _dotted_name(expr).lower()
    leaf = name.rsplit(".", 1)[-1]
    return any(tag in leaf for tag in ("lock", "cond", "mutex", "sem"))


def _with_lock_names(node: ast.With) -> List[str]:
    """Leaf attribute/variable names of lock-like context managers."""
    names = []
    for item in node.items:
        expr = item.context_expr
        if _is_lockish(expr):
            dotted = _dotted_name(expr)
            names.append(dotted.rsplit(".", 1)[-1])
    return names


class _ParentedVisit:
    """Iterate (node, ancestors) pairs over a tree."""

    def __init__(self, tree: ast.AST) -> None:
        self.tree = tree

    def __iter__(self) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
        stack: List[Tuple[ast.AST, List[ast.AST]]] = [(self.tree, [])]
        while stack:
            node, ancestors = stack.pop()
            yield node, ancestors
            child_ancestors = ancestors + [node]
            for child in ast.iter_child_nodes(node):
                stack.append((child, child_ancestors))


# ---------------------------------------------------------------------------
# Rule: guarded-by
# ---------------------------------------------------------------------------


def _stmt_annotation(src: SourceFile, node: ast.stmt,
                     marker: str) -> Optional[str]:
    """An annotation on any line a (possibly multi-line) statement spans."""
    end = getattr(node, "end_lineno", None) or node.lineno
    for line in range(node.lineno, end + 1):
        value = src.annotation(line, marker)
        if value is not None:
            return value
    return None


def _guarded_attrs(src: SourceFile,
                   cls: ast.ClassDef) -> Dict[str, Tuple[str, ...]]:
    """attr -> accepted guard names, from ``# guarded-by:`` comments on
    ``self.<attr> = …`` lines inside ``__init__``."""
    guarded: Dict[str, Tuple[str, ...]] = {}
    for stmt in cls.body:
        if not (isinstance(stmt, ast.FunctionDef)
                and stmt.name == "__init__"):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = _stmt_annotation(src, node, "guarded-by")
            if value is None:
                continue
            guards = tuple(g.strip() for g in value.split(",") if g.strip())
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    guarded[target.attr] = guards
    return guarded


def _guarded_globals(src: SourceFile,
                     module: ast.Module) -> Dict[str, Tuple[str, ...]]:
    """Module-level ``NAME = …  # guarded-by: <lock>`` annotations."""
    guarded: Dict[str, Tuple[str, ...]] = {}
    for stmt in module.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        value = _stmt_annotation(src, stmt, "guarded-by")
        if value is None:
            continue
        guards = tuple(g.strip() for g in value.split(",") if g.strip())
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        for target in targets:
            if isinstance(target, ast.Name):
                guarded[target.id] = guards
    return guarded


def _self_attr(node: ast.AST) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _mutated_guarded_name(node: ast.AST, guarded: Dict[str, Tuple[str, ...]],
                          is_global: bool) -> Optional[Tuple[str, str]]:
    """(attr, how) when *node* mutates a guarded attribute/global."""

    def match(expr: ast.AST) -> Optional[str]:
        if is_global:
            if isinstance(expr, ast.Name) and expr.id in guarded:
                return expr.id
            return None
        # Mutating a field of a guarded object (self.stats.hits += 1)
        # counts as mutating the guarded object: walk the chain down to
        # the `self.<attr>` root.
        current = expr
        while isinstance(current, ast.Attribute):
            attr = _self_attr(current)
            if attr is not None:
                return attr if attr in guarded else None
            current = current.value
        return None

    def match_store_target(target: ast.AST) -> Optional[str]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                found = match_store_target(element)
                if found is not None:
                    return found
            return None
        direct = match(target)
        if direct is not None:
            return direct
        # self.attr[k] = … / self.attr[k] += …
        if isinstance(target, ast.Subscript):
            return match(target.value)
        return None

    if isinstance(node, ast.Assign):
        for target in node.targets:
            found = match_store_target(target)
            if found is not None:
                return found, "assigned"
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        found = match_store_target(node.target)
        if found is not None:
            return found, "assigned"
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            found = match_store_target(target)
            if found is not None:
                return found, "deleted"
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            found = match(func.value)
            if found is not None:
                return found, f"mutated via .{func.attr}()"
    return None


def _enclosing_with_guards(ancestors: Sequence[ast.AST]) -> Set[str]:
    held: Set[str] = set()
    for ancestor in ancestors:
        if isinstance(ancestor, ast.With):
            held.update(_with_lock_names(ancestor))
    return held


def _check_guarded_scope(src: SourceFile, scope: ast.AST,
                         guarded: Dict[str, Tuple[str, ...]],
                         is_global: bool,
                         skip_inits: bool) -> Iterator[LintViolation]:
    for func in ast.walk(scope):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.name.endswith("_locked"):
            continue  # convention: caller holds the guard
        if skip_inits and func.name == "__init__":
            continue  # construction precedes sharing
        for node, ancestors in _ParentedVisit(func):
            hit = _mutated_guarded_name(node, guarded, is_global)
            if hit is None:
                continue
            attr, how = hit
            guards = guarded[attr]
            held = _enclosing_with_guards(ancestors)
            if held.intersection(guards):
                continue
            line = getattr(node, "lineno", func.lineno)
            if src.suppressed("guarded-by", line):
                continue
            owner = "" if is_global else "self."
            yield LintViolation(
                rule="guarded-by", path=src.path, line=line,
                col=getattr(node, "col_offset", 0),
                message=(f"{owner}{attr} is {how} outside `with "
                         f"{' / '.join(guards)}` (declared guarded-by "
                         f"in {'module scope' if is_global else '__init__'})"))


def _unheld_locked_calls(src: SourceFile,
                         cls: ast.ClassDef) -> Iterator[LintViolation]:
    """``self.<name>_locked(...)`` outside every lock-like ``with``: the
    helper's body is exempt on the promise that its caller holds the
    guard, so the caller is where the promise is checked."""
    for func in cls.body:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.name.endswith("_locked") or func.name == "__init__":
            continue  # already under the guard / not yet shared
        for node, ancestors in _ParentedVisit(func):
            if not isinstance(node, ast.Call):
                continue
            helper = _self_attr(node.func)
            if helper is None or not helper.endswith("_locked"):
                continue
            if (_enclosing_with_guards(ancestors)
                    or src.suppressed("guarded-by", node.lineno)):
                continue
            yield LintViolation(
                rule="guarded-by", path=src.path, line=node.lineno,
                col=node.col_offset,
                message=(f"self.{helper}() is called outside any `with "
                         f"<lock>` (the `_locked` suffix says the caller "
                         f"holds the guard)"))


def rule_guarded_by(src: SourceFile) -> Iterator[LintViolation]:
    module = src.tree
    module_guards = _guarded_globals(src, module)
    if module_guards:
        for stmt in module.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _check_guarded_scope(
                    src, stmt, module_guards, is_global=True,
                    skip_inits=False)
    for node in ast.walk(module):
        if not isinstance(node, ast.ClassDef):
            continue
        guarded = _guarded_attrs(src, node)
        if guarded:
            yield from _check_guarded_scope(
                src, node, guarded, is_global=False, skip_inits=True)
        yield from _unheld_locked_calls(src, node)


# ---------------------------------------------------------------------------
# Rule: raw-acquire
# ---------------------------------------------------------------------------


def _releases_in_finally(try_node: ast.Try, receiver: str) -> bool:
    for final_stmt in try_node.finalbody:
        for sub in ast.walk(final_stmt):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "release"
                    and _dotted_name(sub.func.value) == receiver):
                return True
    return False


def rule_raw_acquire(src: SourceFile) -> Iterator[LintViolation]:
    for node, ancestors in _ParentedVisit(src.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "acquire"):
            continue
        receiver = _dotted_name(func.value)
        # Non-blocking probes (acquire(False) / blocking=False) do not
        # hold the lock on failure and are a legitimate idiom.
        if any(isinstance(a, ast.Constant) and a.value is False
               for a in node.args):
            continue
        if any(kw.arg == "blocking" and isinstance(kw.value, ast.Constant)
               and kw.value.value is False for kw in node.keywords):
            continue
        protected = False
        # Inside a try whose finally releases the same lock.
        for ancestor in ancestors:
            if (isinstance(ancestor, ast.Try)
                    and _releases_in_finally(ancestor, receiver)):
                protected = True
        # The `lock.acquire()` / `try: … finally: lock.release()` idiom:
        # the acquire statement immediately precedes such a try block.
        for ancestor in ancestors:
            for body in ("body", "orelse", "finalbody", "handlers"):
                stmts = getattr(ancestor, body, None)
                if not isinstance(stmts, list):
                    continue
                for i, stmt in enumerate(stmts[:-1]):
                    nxt = stmts[i + 1]
                    if (isinstance(stmt, ast.Expr) and stmt.value is node
                            and isinstance(nxt, ast.Try)
                            and _releases_in_finally(nxt, receiver)):
                        protected = True
        if protected or src.suppressed("raw-acquire", node.lineno):
            continue
        yield LintViolation(
            rule="raw-acquire", path=src.path, line=node.lineno,
            col=node.col_offset,
            message=(f"`{receiver or '<expr>'}.acquire()` without a "
                     f"try/finally release — use `with {receiver or 'lock'}:`"
                     f" so exceptions cannot leak the lock"))


# ---------------------------------------------------------------------------
# Rule: blocking-under-lock
# ---------------------------------------------------------------------------


def _blocking_reason(node: ast.Call) -> Optional[str]:
    dotted = _dotted_name(node.func)
    leaf = dotted.rsplit(".", 1)[-1]
    if dotted in _BLOCKING_CALLS:
        return f"`{dotted}` blocks"
    if leaf == "sleep":
        return f"`{dotted}` blocks"
    if dotted in _BLOCKING_BUILTINS:
        return f"`{dotted}()` performs I/O"
    # Blocking queue drains: receiver mentions "queue", no timeout.
    if leaf in ("get", "pop") and isinstance(node.func, ast.Attribute):
        receiver = _dotted_name(node.func.value).lower()
        if "queue" in receiver or receiver.endswith("q"):
            has_timeout = any(kw.arg == "timeout" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None)
                for kw in node.keywords)
            nonblocking = any(
                (kw.arg == "block" and isinstance(kw.value, ast.Constant)
                 and kw.value.value is False) for kw in node.keywords
            ) or any(isinstance(a, ast.Constant) and a.value is False
                     for a in node.args)
            if not has_timeout and not nonblocking:
                return (f"`{dotted}(…)` can block indefinitely "
                        f"(no timeout)")
    return None


def rule_blocking_under_lock(src: SourceFile) -> Iterator[LintViolation]:
    for node, ancestors in _ParentedVisit(src.tree):
        if not isinstance(node, ast.Call):
            continue
        # Condition waits release the lock; never flag .wait().
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("wait", "wait_for", "notify",
                                       "notify_all")):
            continue
        locks: List[str] = []
        for ancestor in ancestors:
            if isinstance(ancestor, ast.With):
                locks.extend(_with_lock_names(ancestor))
        if not locks:
            continue
        reason = _blocking_reason(node)
        if reason is None or src.suppressed("blocking-under-lock",
                                            node.lineno):
            continue
        yield LintViolation(
            rule="blocking-under-lock", path=src.path, line=node.lineno,
            col=node.col_offset,
            message=(f"{reason} while holding `{locks[-1]}` — move it "
                     f"outside the critical section"))


# ---------------------------------------------------------------------------
# Rule: swap-only-critical-section
# ---------------------------------------------------------------------------


def _is_swap_value(node: ast.AST) -> bool:
    """Expressions permitted inside a swap-only critical section."""
    if isinstance(node, (ast.Name, ast.Constant)):
        return True
    if isinstance(node, ast.Attribute):
        return _is_swap_value(node.value)
    if isinstance(node, ast.Compare):
        return (_is_swap_value(node.left)
                and all(_is_swap_value(c) for c in node.comparators))
    if isinstance(node, ast.BoolOp):
        return all(_is_swap_value(v) for v in node.values)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return _is_swap_value(node.operand)
    if isinstance(node, ast.Tuple):
        return all(_is_swap_value(e) for e in node.elts)
    return False


def _swap_only_offences(stmts: Iterable[ast.stmt]) -> Iterator[Tuple[ast.stmt, str]]:
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            if not all(isinstance(t, (ast.Name, ast.Attribute, ast.Tuple))
                       for t in stmt.targets):
                yield stmt, "only name/attribute targets are swaps"
            elif not _is_swap_value(stmt.value):
                yield stmt, ("assignment value allocates or computes "
                             "(only name/attribute/constant swaps and "
                             "comparisons are allowed)")
        elif isinstance(stmt, ast.AugAssign):
            if not (isinstance(stmt.op, (ast.Add, ast.Sub))
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, int)):
                yield stmt, ("only constant-step counter bumps are "
                             "allowed arithmetic")
            elif not isinstance(stmt.target, (ast.Name, ast.Attribute)):
                yield stmt, "only name/attribute counter bumps are allowed"
        elif isinstance(stmt, ast.If):
            if not _is_swap_value(stmt.test):
                yield stmt, "branch condition must be a pointer/flag test"
            yield from _swap_only_offences(stmt.body)
            yield from _swap_only_offences(stmt.orelse)
        elif isinstance(stmt, (ast.Pass, ast.Break, ast.Continue)):
            continue
        elif isinstance(stmt, ast.Raise):
            yield stmt, ("raising (and formatting the message) allocates "
                         "inside the critical section — set a flag and "
                         "raise outside the lock")
        elif isinstance(stmt, ast.Expr):
            yield stmt, "calls are not allowed in a swap-only section"
        else:
            yield stmt, (f"statement {type(stmt).__name__} is not a "
                         f"pointer swap")


def rule_swap_only(src: SourceFile) -> Iterator[LintViolation]:
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.With):
            continue
        marker = src.annotation(node.lineno, "critical-section")
        if marker is None or marker.split()[0] != "swap-only":
            continue
        for stmt, why in _swap_only_offences(node.body):
            if src.suppressed("swap-only-critical-section", stmt.lineno):
                continue
            yield LintViolation(
                rule="swap-only-critical-section", path=src.path,
                line=stmt.lineno, col=stmt.col_offset,
                message=(f"swap-only critical section violated: {why} "
                         f"(Algorithm 4 allows pointer operations only)"))


# ---------------------------------------------------------------------------
# Rule: metrics-name
# ---------------------------------------------------------------------------


def _registryish(receiver: str) -> bool:
    lowered = receiver.lower()
    return "reg" in lowered or "metrics" in lowered


def rule_metrics_name(src: SourceFile) -> Iterator[LintViolation]:
    from repro.observability.catalog import METRIC_NAMES

    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in ("counter", "gauge", "histogram")):
            continue
        if not _registryish(_dotted_name(func.value)):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            continue
        name = first.value
        if name in METRIC_NAMES:
            continue
        if src.suppressed("metrics-name", node.lineno):
            continue
        yield LintViolation(
            rule="metrics-name", path=src.path, line=node.lineno,
            col=node.col_offset,
            message=(f"metric {name!r} is not in the observability "
                     f"catalog — add it to "
                     f"src/repro/observability/catalog.py and the table "
                     f"in docs/observability.md"))


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def rule_determinism(src: SourceFile) -> Iterator[LintViolation]:
    """Single-file entry for the interprocedural determinism pass.

    ``lint_paths`` runs the pass once over the *whole* file set instead
    (cross-module call-graph propagation); this wrapper serves
    ``lint_source``/``lint_file`` on self-contained modules.
    """
    from repro.analysis.determinism import run_determinism

    yield from run_determinism([src])


ALL_RULES = {
    "guarded-by": rule_guarded_by,
    "raw-acquire": rule_raw_acquire,
    "blocking-under-lock": rule_blocking_under_lock,
    "swap-only-critical-section": rule_swap_only,
    "metrics-name": rule_metrics_name,
    "determinism": rule_determinism,
}

#: Rules that analyze the whole file set at once (call-graph passes),
#: not file by file.
_WHOLE_SET_RULES = frozenset({"determinism"})


def _select_rules(rules: Optional[Iterable[str]]) -> List[str]:
    selected = list(rules) if rules is not None else list(ALL_RULES)
    unknown = [r for r in selected if r not in ALL_RULES]
    if unknown:
        raise ValueError(f"unknown lint rule(s): {unknown}; "
                         f"available: {sorted(ALL_RULES)}")
    return selected


def _sorted_violations(
        found: Iterable[LintViolation],
        include_suppressed: bool) -> List[LintViolation]:
    kept = [v for v in found if include_suppressed or not v.suppressed]
    return sorted(kept, key=lambda v: (v.path, v.line, v.col, v.rule))


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Iterable[str]] = None,
                include_suppressed: bool = False) -> List[LintViolation]:
    """Lint one source string; returns violations sorted by location.

    Suppressed findings (justified ``# nondeterministic:`` escapes)
    are dropped unless *include_suppressed* is set — ``repro lint``
    requests them so it can report them without failing on them.
    """
    selected = _select_rules(rules)
    src = SourceFile(path, source)
    found: List[LintViolation] = []
    for rule_name in selected:
        found.extend(ALL_RULES[rule_name](src))
    return _sorted_violations(found, include_suppressed)


def lint_file(path: str,
              rules: Optional[Iterable[str]] = None,
              include_suppressed: bool = False) -> List[LintViolation]:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, path=path, rules=rules,
                       include_suppressed=include_suppressed)


def _iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs
                             if not d.startswith(".")
                             and d not in ("__pycache__", "fixtures"))
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def lint_paths(paths: Sequence[str],
               rules: Optional[Iterable[str]] = None,
               include_suppressed: bool = False) -> List[LintViolation]:
    """Lint every ``.py`` file under *paths* (``fixtures`` dirs are
    skipped — they hold deliberate violations for the rule tests).

    Per-file rules run file by file; whole-set rules (``determinism``)
    run once over every parsed file so call-graph propagation crosses
    module boundaries.
    """
    selected = _select_rules(rules)
    per_file = [r for r in selected if r not in _WHOLE_SET_RULES]
    whole_set = [r for r in selected if r in _WHOLE_SET_RULES]
    sources: List[SourceFile] = []
    found: List[LintViolation] = []
    for path in _iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            src = SourceFile(path, fh.read())
        sources.append(src)
        for rule_name in per_file:
            found.extend(ALL_RULES[rule_name](src))
    if "determinism" in whole_set:
        from repro.analysis.determinism import run_determinism

        found.extend(run_determinism(sources))
    return _sorted_violations(found, include_suppressed)


#: One-line rule descriptions (SARIF rule metadata and docs).
RULE_DESCRIPTIONS = {
    "guarded-by": ("A `# guarded-by:` attribute is mutated only "
                   "under its declared lock, and a `*_locked` helper "
                   "is called only with a lock held."),
    "raw-acquire": ("No bare .acquire() without a try/finally "
                    "releasing the same lock."),
    "blocking-under-lock": ("No known-blocking calls while holding "
                            "a lock."),
    "swap-only-critical-section": ("Algorithm-4 critical sections "
                                   "contain only pointer swaps."),
    "metrics-name": ("Every literal metric name appears in the "
                     "observability catalog."),
    "determinism": ("Code reachable from `# deterministic` entry "
                    "points stays bitwise reproducible: no unordered "
                    "iteration into float accumulation or serialized "
                    "output, no module-level RNG, no wall-clock in "
                    "results, no reassociating reductions, no "
                    "completion-order dependence."),
}

#: SARIF 2.1.0 schema location (GitHub code scanning ingests this).
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                 "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def _render_sarif(found: Sequence[LintViolation]) -> str:
    """SARIF 2.1.0 document for GitHub code-scanning upload.

    Suppressed findings are included with an ``inSource`` suppression
    carrying the annotation's justification, so code scanning shows
    them as resolved rather than open.
    """
    rule_ids = sorted({v.rule for v in found} | set(ALL_RULES))
    rules: List[Dict[str, object]] = [{
        "id": rule_id,
        "shortDescription": {
            "text": RULE_DESCRIPTIONS.get(rule_id, rule_id)},
    } for rule_id in rule_ids]
    results: List[Dict[str, object]] = []
    for violation in found:
        uri = violation.path.replace(os.sep, "/")
        result: Dict[str, object] = {
            "ruleId": violation.rule,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {
                        "startLine": violation.line,
                        "startColumn": violation.col + 1,
                    },
                },
            }],
        }
        if violation.suppressed:
            result["suppressions"] = [{
                "kind": "inSource",
                "justification": violation.justification,
            }]
        results.append(result)
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri": ("https://github.com/znn-repro/"
                                       "znn-repro"),
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def render_violations(found: Sequence[LintViolation],
                      fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps([v.as_dict() for v in found], indent=2)
    if fmt == "sarif":
        return _render_sarif(found)
    return "\n".join(str(v) for v in found)
