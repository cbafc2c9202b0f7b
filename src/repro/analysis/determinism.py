"""The ``determinism`` lint rule — static half of the bitwise-
reproducibility contract (docs/static_analysis.md).

Every headline invariant of this reproduction — Algorithm 4's
fixed-order summation, worker-count-invariant checkpoints, tiled ⇄
whole-volume serving equality, byte-identical loadtest reports — is a
*determinism* property: the same inputs must produce the same bits
regardless of ``PYTHONHASHSEED``, thread schedule or worker count.
This pass enforces it at lint time, the way ``guarded-by`` enforces
the locking discipline.

A ``# deterministic`` annotation on a ``def`` marks an entry point of
the contract; the per-package call graph
(:mod:`repro.analysis.callgraph`) propagates the obligation to every
statically-reachable callee.  Inside an obligated function five
flow-sensitive checks fire:

``unordered-iteration``
    ``for`` over a ``set`` (hash-order depends on ``PYTHONHASHSEED``),
    or over a dict / ``.keys()``/``.values()``/``.items()`` view whose
    loop body accumulates floats or serializes output, without a
    ``sorted(...)`` wrapper.

``unseeded-rng``
    Module-level RNG (``random.random``, ``np.random.uniform``, …)
    shares hidden global state across threads; use an explicitly
    seeded ``random.Random`` / ``np.random.default_rng``.

``wall-clock``
    ``time.time``/``time.monotonic``/``datetime.now`` results flowing
    anywhere other than a metrics/tracing sink influence computed
    results (a local taint pass follows values through assignments).

``reassociating-reduction``
    ``sum``/``np.sum`` over an unordered iterable reassociates
    floating-point addition; use
    :func:`repro.sync.summation.reduce_in_order` over indexed slots or
    sort first.

``completion-order``
    ``as_completed``/``futures.wait``/``imap_unordered`` make results
    depend on thread completion order.

Escapes: ``# nondeterministic: <reason>`` on a ``def`` exempts the
function (and stops propagation through it); on a finding's line it
suppresses that finding.  The reason is mandatory — either way the
finding is still reported as *suppressed* with its justification, and
``repro lint`` exits zero as long as only suppressed findings remain.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set

from repro.analysis.callgraph import (CallGraph, FunctionNode,
                                      build_callgraph)
from repro.analysis.linting import (LintViolation, SourceFile,
                                    _dotted_name, _ParentedVisit)

__all__ = ["RULE", "run_determinism"]

#: The registered rule name (``repro lint --rules determinism``).
RULE = "determinism"

#: Module-level RNG functions on the ``random`` module.
_RNG_LEAVES = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate",
})

#: ``np.random.*`` members that *construct* seeded generators — the
#: sanctioned API — rather than drawing from the hidden global state.
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "RandomState",
    "BitGenerator", "PCG64", "Philox", "get_state", "set_state",
})

#: (module, attr) wall-clock reads.
_WALLCLOCK = frozenset({
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"),
    ("datetime", "today"), ("date", "today"),
})

#: Call leaves that serialize loop output (order becomes bytes).
_SERIAL_SINKS = frozenset({
    "update", "write", "writelines", "dump", "dumps", "tobytes",
    "pack", "send", "sendall", "hexdigest",
})

#: Receiver substrings that mark a call as a metrics/tracing sink —
#: wall-clock values may flow here (they measure, they don't compute).
_SINK_RECEIVER_TAGS = ("metric", "gauge", "hist", "counter", "tracer",
                       "span", "record", "slo", "log", "flight", "m_")

#: Call leaves that are metric-API verbs regardless of receiver name.
_SINK_LEAVES = frozenset({"observe", "inc", "dec"})

#: Annotation leaves typing a parameter as a set / dict.
_SET_ANNOTATIONS = frozenset({"Set", "FrozenSet", "MutableSet",
                              "AbstractSet", "set", "frozenset"})
_DICT_ANNOTATIONS = frozenset({"Dict", "dict", "Mapping",
                               "MutableMapping", "DefaultDict",
                               "Counter"})

#: Wrappers that impose a total order on their argument.
_ORDERING_CALLS = frozenset({"sorted", "list", "tuple", "min", "max",
                             "len", "enumerate"})


# ---------------------------------------------------------------------------
# Expression classification
# ---------------------------------------------------------------------------


def _ann_leaf(node: Optional[ast.expr]) -> str:
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].strip().rsplit(".", 1)[-1]
    base: ast.expr = node
    if isinstance(base, ast.Subscript):
        base = base.value
    dotted = _dotted_name(base)
    return dotted.rsplit(".", 1)[-1] if dotted else ""


def _param_kinds(fn_node: ast.AST) -> Dict[str, str]:
    """Parameter name -> "set"|"dict" from type annotations."""
    kinds: Dict[str, str] = {}
    args = getattr(fn_node, "args", None)
    if args is None:
        return kinds
    every = list(args.posonlyargs) + list(args.args) \
        + list(args.kwonlyargs)
    for arg in every:
        leaf = _ann_leaf(arg.annotation)
        if leaf in _SET_ANNOTATIONS:
            kinds[arg.arg] = "set"
        elif leaf in _DICT_ANNOTATIONS:
            kinds[arg.arg] = "dict"
    return kinds


def _unordered_kind(expr: ast.AST,
                    var_kinds: Dict[str, str]) -> Optional[str]:
    """"set" | "dict" | "dict-view" when *expr* iterates without a
    defined order, None when ordered/unknown."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(expr, ast.Name):
        return var_kinds.get(expr.id)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in ("set", "frozenset"):
                return "set"
            if func.id == "dict":
                return "dict"
            if func.id in _ORDERING_CALLS:
                return None
            return None
        if isinstance(func, ast.Attribute):
            if func.attr in ("keys", "values", "items"):
                return "dict-view"
            if func.attr in ("union", "intersection", "difference",
                             "symmetric_difference"):
                return _unordered_kind(func.value, var_kinds)
        return None
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # s1 | s2, s1 & s2, s1 - s2 on classified sets.
        left = _unordered_kind(expr.left, var_kinds)
        right = _unordered_kind(expr.right, var_kinds)
        if "set" in (left, right):
            return "set"
    return None


def _collect_var_kinds(fn_node: ast.AST) -> Dict[str, str]:
    """Flow-through classification of local variables (two passes so
    ``a = set(...); b = a`` transits)."""
    kinds = _param_kinds(fn_node)
    for _ in range(2):
        for node in ast.walk(fn_node):  # type: ignore[arg-type]
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets
                           if isinstance(t, ast.Name)]
                if not targets:
                    continue
                kind = _unordered_kind(node.value, kinds)
                for target in targets:
                    if kind is not None:
                        kinds[target.id] = kind
                    else:
                        # Re-binding to an ordered value clears the
                        # classification (v = sorted(v)).
                        kinds.pop(target.id, None)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                leaf = _ann_leaf(node.annotation)
                if leaf in _SET_ANNOTATIONS:
                    kinds[node.target.id] = "set"
                elif leaf in _DICT_ANNOTATIONS:
                    kinds[node.target.id] = "dict"
    return kinds


def _is_int_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) \
        and isinstance(node.value, int) \
        and not isinstance(node.value, bool)


def _order_sensitive_sink(body: Sequence[ast.stmt]) -> Optional[str]:
    """Why this loop body makes iteration order observable, if it
    does: float accumulation or serialized output."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) \
                    and isinstance(node.op, (ast.Add, ast.Sub,
                                             ast.Mult, ast.Div)) \
                    and not _is_int_constant(node.value):
                return "accumulates floats"
            if isinstance(node, ast.Assign) \
                    and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                target = node.targets[0].id
                if isinstance(node.value, ast.BinOp) and any(
                        isinstance(n, ast.Name) and n.id == target
                        for n in ast.walk(node.value)):
                    return "accumulates via re-binding"
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _SERIAL_SINKS:
                return (f"serializes output via "
                        f".{node.func.attr}()")
    return None


# ---------------------------------------------------------------------------
# Wall-clock taint
# ---------------------------------------------------------------------------


def _resolve_head(head: str, imports: Dict[str, str]) -> str:
    """First dotted segment resolved through the module's imports."""
    target = imports.get(head)
    return target if target is not None else head


def _is_wallclock_call(call: ast.Call,
                       imports: Dict[str, str]) -> bool:
    dotted = _dotted_name(call.func)
    if not dotted:
        return False
    parts = dotted.split(".")
    if len(parts) == 1:
        # Bare name: only through `from time import monotonic`.
        target = imports.get(parts[0], "")
        tparts = target.split(".")
        return len(tparts) >= 2 \
            and (tparts[-2], tparts[-1]) in _WALLCLOCK
    head = _resolve_head(parts[0], imports).split(".")[-1]
    resolved = [head] + parts[1:]
    return (resolved[-2], resolved[-1]) in _WALLCLOCK


def _collect_clock_vars(fn_node: ast.AST,
                        imports: Dict[str, str]) -> Set[str]:
    """Names assigned (transitively) from wall-clock reads."""
    clock: Set[str] = set()
    for _ in range(2):
        for node in ast.walk(fn_node):  # type: ignore[arg-type]
            if not isinstance(node, ast.Assign):
                continue
            tainted = False
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Call) \
                        and _is_wallclock_call(sub, imports):
                    tainted = True
                elif isinstance(sub, ast.Name) and sub.id in clock \
                        and isinstance(sub.ctx, ast.Load):
                    tainted = True
            if not tainted:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    clock.add(target.id)
    return clock


def _is_sink_call(call: ast.Call) -> bool:
    dotted = _dotted_name(call.func).lower()
    leaf = dotted.rsplit(".", 1)[-1]
    if leaf in _SINK_LEAVES:
        return True
    receiver = dotted.rsplit(".", 1)[0] if "." in dotted else ""
    return any(tag in receiver for tag in _SINK_RECEIVER_TAGS)


def _in_sink_args(node: ast.AST, ancestors: Sequence[ast.AST]) -> bool:
    """Is *node* inside the argument list of a metrics/tracing call?"""
    chain = list(ancestors) + [node]
    for i, ancestor in enumerate(chain[:-1]):
        if isinstance(ancestor, ast.Call) and _is_sink_call(ancestor):
            child = chain[i + 1]
            if child is not ancestor.func:
                return True
    return False


def _sink_only_body(statements: Sequence[ast.stmt]) -> bool:
    """Do *statements* only feed metrics/tracing sinks?"""
    for stmt in statements:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Call) \
                and _is_sink_call(stmt.value):
            continue
        return False
    return bool(statements)


def _guards_only_sinks(node: ast.AST,
                       ancestors: Sequence[ast.AST]) -> bool:
    """Is *node* inside the test of an ``if`` whose branches only
    emit metrics/tracing?  A clock comparison that merely decides
    whether to bump an advisory counter does not leak time into
    results."""
    chain = list(ancestors) + [node]
    for i, ancestor in enumerate(chain[:-1]):
        if isinstance(ancestor, ast.If) and chain[i + 1] is ancestor.test:
            return _sink_only_body(ancestor.body) and (
                not ancestor.orelse or _sink_only_body(ancestor.orelse))
    return False


def _assigned_to_clock_var(node: ast.AST,
                           ancestors: Sequence[ast.AST],
                           clock: Set[str]) -> bool:
    """Is *node* on the RHS of an assignment whose target is (or
    becomes) a clock variable — judgment deferred to the uses?"""
    chain = list(ancestors) + [node]
    for i, ancestor in enumerate(chain[:-1]):
        if isinstance(ancestor, ast.Assign) \
                and chain[i + 1] is ancestor.value:
            return any(isinstance(t, ast.Name) and t.id in clock
                       for t in ancestor.targets)
        if isinstance(ancestor, ast.AugAssign) \
                and chain[i + 1] is ancestor.value:
            return isinstance(ancestor.target, ast.Name) \
                and ancestor.target.id in clock
    return False


# ---------------------------------------------------------------------------
# Per-function check
# ---------------------------------------------------------------------------


class _Finding:
    """One raw finding before suppression resolution."""

    __slots__ = ("line", "col", "check", "message", "node")

    def __init__(self, node: ast.AST, check: str, message: str) -> None:
        self.node = node
        self.line = getattr(node, "lineno", 1)
        self.col = getattr(node, "col_offset", 0)
        self.check = check
        self.message = message


def _kind_phrase(kind: str) -> str:
    return {"set": "a set (PYTHONHASHSEED-dependent order)",
            "dict": "a dict",
            "dict-view": "a dict view"}[kind]


def _check_function(fn: FunctionNode,
                    imports: Dict[str, str]) -> Iterator[_Finding]:
    node = fn.node
    var_kinds = _collect_var_kinds(node)
    clock_vars = _collect_clock_vars(node, imports)

    for sub, ancestors in _ParentedVisit(node):
        # Skip nested defs: they are separate FunctionNodes and are
        # checked under their own obligation.
        if any(isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
               and a is not node for a in list(ancestors) + [sub]):
            if sub is not node:
                continue

        # -- unordered iteration ---------------------------------------
        if isinstance(sub, (ast.For, ast.AsyncFor)):
            kind = _unordered_kind(sub.iter, var_kinds)
            if kind == "set":
                yield _Finding(
                    sub.iter, "unordered-iteration",
                    f"iteration over {_kind_phrase(kind)} in the "
                    f"deterministic region of {fn.name}() — wrap in "
                    f"sorted(...)")
            elif kind in ("dict", "dict-view"):
                why = _order_sensitive_sink(sub.body)
                if why is not None:
                    yield _Finding(
                        sub.iter, "unordered-iteration",
                        f"iteration over {_kind_phrase(kind)} {why} "
                        f"in {fn.name}() — iterate sorted(...) so the "
                        f"result is insertion-order independent")
        elif isinstance(sub, (ast.SetComp, ast.ListComp,
                              ast.GeneratorExp, ast.DictComp)):
            for gen in sub.generators:
                if _unordered_kind(gen.iter, var_kinds) == "set":
                    yield _Finding(
                        gen.iter, "unordered-iteration",
                        f"comprehension over a set "
                        f"(PYTHONHASHSEED-dependent order) in "
                        f"{fn.name}() — wrap in sorted(...)")

        if not isinstance(sub, ast.Call):
            # -- wall-clock variable uses ------------------------------
            if isinstance(sub, ast.Name) and sub.id in clock_vars \
                    and isinstance(sub.ctx, ast.Load) \
                    and not _in_sink_args(sub, ancestors) \
                    and not _guards_only_sinks(sub, ancestors) \
                    and not _assigned_to_clock_var(sub, ancestors,
                                                   clock_vars):
                yield _Finding(
                    sub, "wall-clock",
                    f"wall-clock value {sub.id!r} influences results "
                    f"in {fn.name}() — clocks may only feed "
                    f"metrics/tracing sinks inside a deterministic "
                    f"region")
            continue

        dotted = _dotted_name(sub.func)
        leaf = dotted.rsplit(".", 1)[-1] if dotted else ""

        # -- reassociating reductions ----------------------------------
        if leaf in ("sum", "fsum") and (
                isinstance(sub.func, ast.Name)
                or dotted in ("np.sum", "numpy.sum", "math.fsum")):
            if sub.args:
                arg = sub.args[0]
                kind = _unordered_kind(arg, var_kinds)
                if kind is None and isinstance(
                        arg, (ast.GeneratorExp, ast.ListComp)):
                    for gen in arg.generators:
                        inner = _unordered_kind(gen.iter, var_kinds)
                        if inner is not None:
                            kind = inner
                            break
                if kind is not None:
                    yield _Finding(
                        sub, "reassociating-reduction",
                        f"{dotted or leaf}() reduces over "
                        f"{_kind_phrase(kind)} in {fn.name}() — "
                        f"floating-point addition reassociates with "
                        f"iteration order; use reduce_in_order over "
                        f"indexed slots or sort first")

        # -- unseeded module-level RNG ---------------------------------
        head = dotted.split(".")[0] if dotted else ""
        resolved_head = _resolve_head(head, imports)
        if resolved_head == "random" \
                and len(dotted.split(".")) == 2 \
                and leaf in _RNG_LEAVES:
            yield _Finding(
                sub, "unseeded-rng",
                f"module-level RNG {dotted}() in {fn.name}() shares "
                f"hidden global state across threads — draw from an "
                f"explicitly seeded random.Random")
        elif isinstance(sub.func, ast.Name) \
                and imports.get(dotted, "").startswith("random.") \
                and leaf in _RNG_LEAVES:
            yield _Finding(
                sub, "unseeded-rng",
                f"module-level RNG random.{leaf}() in {fn.name}() — "
                f"draw from an explicitly seeded random.Random")
        elif resolved_head in ("numpy", "np") or head in ("np",
                                                          "numpy"):
            parts = dotted.split(".")
            if len(parts) >= 3 and parts[1] == "random" \
                    and parts[2] not in _NP_RANDOM_OK:
                yield _Finding(
                    sub, "unseeded-rng",
                    f"global NumPy RNG {dotted}() in {fn.name}() — "
                    f"use np.random.default_rng(seed) / a passed-in "
                    f"Generator")

        # -- wall-clock reads ------------------------------------------
        if _is_wallclock_call(sub, imports) \
                and not _in_sink_args(sub, ancestors) \
                and not _guards_only_sinks(sub, ancestors) \
                and not _assigned_to_clock_var(sub, ancestors,
                                               clock_vars):
            # Assignments to fresh names become clock vars; their uses
            # are judged above.  Everything else is a direct leak.
            assigned = False
            chain = list(ancestors) + [sub]
            for i, ancestor in enumerate(chain[:-1]):
                if isinstance(ancestor, ast.Assign) \
                        and chain[i + 1] is ancestor.value \
                        and all(isinstance(t, ast.Name)
                                for t in ancestor.targets):
                    assigned = True
            if not assigned:
                yield _Finding(
                    sub, "wall-clock",
                    f"{dotted}() read influences results in "
                    f"{fn.name}() — wall-clock may only feed "
                    f"metrics/tracing sinks inside a deterministic "
                    f"region")

        # -- completion-order dependence -------------------------------
        if leaf == "as_completed" or leaf == "imap_unordered":
            yield _Finding(
                sub, "completion-order",
                f"{dotted or leaf}() yields results in thread/process "
                f"completion order in {fn.name}() — iterate the "
                f"futures/tasks in submission order instead")
        elif leaf == "wait" and "futures" in dotted:
            yield _Finding(
                sub, "completion-order",
                f"{dotted}() partitions futures by completion in "
                f"{fn.name}() — completion order is "
                f"schedule-dependent")


# ---------------------------------------------------------------------------
# Rule driver
# ---------------------------------------------------------------------------


def _line_escape_reason(src: SourceFile,
                        node: ast.AST) -> Optional[str]:
    """A ``# nondeterministic: <reason>`` trailing the statement that
    produced a finding; None when absent, "" when reasonless."""
    start = getattr(node, "lineno", None)
    if start is None:
        return None
    end = getattr(node, "end_lineno", None) or start
    for line in range(start, end + 1):
        text = src.comments.get(line)
        if text is not None and text.startswith("nondeterministic"):
            rest = text[len("nondeterministic"):]
            return rest[1:].strip() if rest.startswith(":") else ""
    return None


def _emit(fn: FunctionNode, finding: _Finding,
          def_reason: Optional[str]) -> Optional[LintViolation]:
    src = fn.src
    if src.suppressed(RULE, finding.line):
        return None
    line_reason = _line_escape_reason(src, finding.node)
    reason: Optional[str] = None
    if def_reason:
        reason = def_reason
    elif line_reason:
        reason = line_reason
    message = f"{finding.check}: {finding.message}"
    if line_reason == "" and not def_reason:
        message += (" [a `# nondeterministic:` escape must carry a "
                    "reason]")
    return LintViolation(
        rule=RULE, path=src.path, line=finding.line, col=finding.col,
        message=message, suppressed=reason is not None,
        justification=reason or "")


def run_determinism(
        sources: Sequence[SourceFile]) -> Iterator[LintViolation]:
    """Run the determinism pass over a parsed file set."""
    from repro.observability.metrics import get_registry

    reg = get_registry()
    m_findings = reg.counter("analysis.determinism.findings")
    m_suppressed = reg.counter("analysis.determinism.suppressed")
    for violation in _run_determinism(sources):
        if violation.suppressed:
            m_suppressed.inc()
        else:
            m_findings.inc()
        yield violation


def _run_determinism(
        sources: Sequence[SourceFile]) -> Iterator[LintViolation]:
    graph: CallGraph = build_callgraph(sources)
    obligated, escaped = graph.reachable(graph.roots())

    # Grammar check: every escape must carry a reason — anywhere, not
    # just on reachable functions, so a bad escape cannot hide until
    # an entry point happens to reach it.
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if fn.nondet_reason == "":
            def_node = fn.node
            if not fn.src.suppressed(RULE,
                                     getattr(def_node, "lineno", 1)):
                yield LintViolation(
                    rule=RULE, path=fn.src.path,
                    line=getattr(def_node, "lineno", 1),
                    col=getattr(def_node, "col_offset", 0),
                    message=(f"escape-without-reason: {fn.name}() is "
                             f"marked `# nondeterministic:` with no "
                             f"reason — the justification is part of "
                             f"the contract"))

    module_imports = {m.src.path: m.imports
                      for m in graph.modules.values()}

    for qual in sorted(obligated):
        fn = graph.functions[qual]
        imports = module_imports.get(fn.src.path, {})
        for finding in _check_function(fn, imports):
            violation = _emit(fn, finding, def_reason=None)
            if violation is not None:
                yield violation

    for qual in sorted(escaped):
        fn = graph.functions[qual]
        if not fn.nondet_reason:
            continue  # reasonless escapes already reported above
        imports = module_imports.get(fn.src.path, {})
        for finding in _check_function(fn, imports):
            violation = _emit(fn, finding,
                              def_reason=fn.nondet_reason)
            if violation is not None:
                yield violation
