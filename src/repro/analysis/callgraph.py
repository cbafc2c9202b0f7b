"""Per-package static call graph for interprocedural lint passes.

The determinism rule (docs/static_analysis.md) must follow an
obligation — "everything this entry point executes stays bitwise
reproducible" — from an annotated ``def`` into its callees, across
files.  This module builds the call graph that propagation walks.

Resolution is deliberately conservative and type-annotation driven —
no whole-program inference, just the cases that occur in this repo:

* bare calls to module-level functions (and nested ``def``s);
* ``self.method()`` through the enclosing class and its bases;
* ``self.attr.method()`` where ``__init__`` assigned
  ``self.attr = SomeClass(...)``;
* ``var.method()`` where ``var = SomeClass(...)`` or ``var`` is a
  parameter annotated with a known class;
* ``SomeClass(...)`` construction (an edge to ``__init__``);
* imported names (``from pkg.mod import fn`` / ``import pkg.mod``)
  when the target module is part of the linted file set.

Everything unresolvable stays an *external* call — recorded with its
dotted name so leaf rules (``time.time``, ``random.random``, …) can
still match on it, but never followed.

Annotation grammar (comments, like ``# guarded-by``):

* ``# deterministic`` trailing a ``def`` line (or on the line directly
  above it / above its decorators) marks an entry point;
* ``# nondeterministic: <reason>`` on a ``def`` exempts the function
  and cuts propagation through it; the reason is mandatory and is
  carried into the lint report as the suppression justification.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.linting import SourceFile

__all__ = [
    "CallGraph",
    "FunctionNode",
    "build_callgraph",
]

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FunctionNode:
    """One function or method in the analyzed file set."""

    #: ``module::func`` or ``module::Class.method``.
    qualname: str
    name: str
    cls: Optional[str]
    src: SourceFile
    node: ast.AST
    #: Marked ``# deterministic`` (propagation root).
    deterministic: bool = False
    #: ``# nondeterministic:`` escape — None means no escape; the
    #: empty string means an escape *without* the mandatory reason.
    nondet_reason: Optional[str] = None
    #: Resolved callee qualnames.
    calls: Set[str] = field(default_factory=set)
    #: Unresolved dotted call names with line numbers.
    external: List[Tuple[str, int]] = field(default_factory=list)


def _module_name(path: str) -> str:
    """Dotted module identity derived from the file path."""
    norm = path.replace(os.sep, "/")
    if norm.endswith(".py"):
        norm = norm[:-3]
    parts = [p for p in norm.split("/") if p not in ("", ".", "..")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<module>"


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, '' otherwise."""
    parts: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    else:
        return ""
    return ".".join(reversed(parts))


def _annotation_class(node: Optional[ast.expr]) -> Optional[str]:
    """The class name a parameter annotation refers to, if plain.

    ``x: Worker`` and ``x: "Worker"`` resolve; ``Optional[Worker]``
    unwraps one subscript level; anything fancier is ignored.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].strip().rsplit(".", 1)[-1]
    if isinstance(node, ast.Subscript):
        # Optional[Worker] / "Optional[Worker]" — take the inner name
        # when the outer is a typing wrapper.
        outer = _dotted(node.value).rsplit(".", 1)[-1]
        if outer in ("Optional", "Final", "Annotated"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_class(
                inner if isinstance(inner, ast.expr) else None)
        return None
    name = _dotted(node)
    if name:
        return name.rsplit(".", 1)[-1]
    return None


class _ModuleInfo:
    """Per-module symbol tables used during resolution."""

    def __init__(self, src: SourceFile, module: str) -> None:
        self.src = src
        self.module = module
        #: local name -> dotted import target (module or symbol).
        self.imports: Dict[str, str] = {}
        #: class name -> ClassDef.
        self.classes: Dict[str, ast.ClassDef] = {}
        #: class name -> {method name -> qualname}.
        self.methods: Dict[str, Dict[str, str]] = {}
        #: class name -> base class names (as written).
        self.bases: Dict[str, List[str]] = {}
        #: (class name, attr) -> class name assigned in __init__.
        self.attr_types: Dict[Tuple[str, str], str] = {}
        #: module-level function name -> qualname.
        self.functions: Dict[str, str] = {}


class CallGraph:
    """The resolved call graph of one linted file set."""

    def __init__(self) -> None:
        #: qualname -> node.
        self.functions: Dict[str, FunctionNode] = {}
        #: module identity -> its symbol tables.
        self.modules: Dict[str, _ModuleInfo] = {}

    # -- queries -------------------------------------------------------

    def roots(self) -> List[str]:
        """Qualnames marked ``# deterministic``, sorted."""
        return sorted(q for q, f in self.functions.items()
                      if f.deterministic)

    def reachable(
            self, roots: Iterable[str]) -> Tuple[Set[str], Set[str]]:
        """(obligated, escaped) qualnames from *roots*.

        Obligated functions inherit the determinism obligation.
        Escaped functions carry a ``# nondeterministic:`` marker —
        propagation stops at them (their callees are *not* obligated
        through that path), but they are returned so the caller can
        report their findings as suppressed.
        """
        obligated: Set[str] = set()
        escaped: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            qual = stack.pop()
            fn = self.functions[qual]
            if fn.nondet_reason is not None:
                escaped.add(qual)
                continue
            if qual in obligated:
                continue
            obligated.add(qual)
            for callee in fn.calls:
                if callee in self.functions:
                    stack.append(callee)
        return obligated, escaped


def build_callgraph(sources: Sequence[SourceFile]) -> CallGraph:
    """Parse *sources* into a resolved :class:`CallGraph`."""
    graph = CallGraph()
    infos: List[Tuple[_ModuleInfo, SourceFile]] = []
    for src in sources:
        module = _module_name(src.path)
        info = _ModuleInfo(src, module)
        graph.modules[module] = info
        infos.append((info, src))
        _collect_symbols(graph, info, src)
    for info, src in infos:
        _resolve_calls(graph, info, src)
    return graph


# ---------------------------------------------------------------------------
# Pass 1: symbols and annotations
# ---------------------------------------------------------------------------


def _def_annotations(src: SourceFile,
                     node: ast.AST) -> Tuple[bool, Optional[str]]:
    """(deterministic, nondeterministic reason) for a ``def``.

    Scans the decorator/signature lines of the statement plus the line
    directly above the first of them, so both trailing and preceding
    comment placement work.
    """
    first = node.lineno
    decorators = getattr(node, "decorator_list", [])
    if decorators:
        first = min(first, min(d.lineno for d in decorators))
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if body else node.lineno
    deterministic = False
    reason: Optional[str] = None
    for line in range(first - 1, max(first - 1, last) + 1):
        text = src.comments.get(line)
        if text is None:
            continue
        if text == "deterministic" or text.startswith("deterministic:"):
            deterministic = True
        elif text.startswith("nondeterministic"):
            rest = text[len("nondeterministic"):]
            reason = rest[1:].strip() if rest.startswith(":") else ""
    return deterministic, reason


def _collect_symbols(graph: CallGraph, info: _ModuleInfo,
                     src: SourceFile) -> None:
    module = ast.parse(src.source, filename=src.path) \
        if src.tree is None else src.tree
    for stmt in ast.walk(module):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                info.imports[local] = target
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            for alias in stmt.names:
                local = alias.asname or alias.name
                info.imports[local] = f"{stmt.module}.{alias.name}"

    def add_function(node: ast.AST, cls: Optional[str]) -> FunctionNode:
        name = getattr(node, "name", "<lambda>")
        qual = (f"{info.module}::{cls}.{name}" if cls
                else f"{info.module}::{name}")
        # _def_annotations gives the two fields after ``node``.
        fn = FunctionNode(qual, name, cls, src, node,
                          *_def_annotations(src, node))
        graph.functions[qual] = fn
        if cls is None:
            info.functions[name] = qual
        else:
            info.methods.setdefault(cls, {})[name] = qual
        return fn

    def visit_body(stmts: Iterable[ast.stmt], cls: Optional[str],
                   parent: Optional[FunctionNode]) -> None:
        for stmt in stmts:
            if isinstance(stmt, _DEF_NODES):
                fn = add_function(stmt, cls)
                if parent is not None:
                    # A nested def runs (if at all) inside its parent:
                    # conservatively treat it as called by it.
                    parent.calls.add(fn.qualname)
                visit_body(stmt.body, cls=None, parent=fn)
            elif isinstance(stmt, ast.ClassDef):
                info.classes[stmt.name] = stmt
                info.bases[stmt.name] = [
                    _dotted(b) for b in stmt.bases if _dotted(b)]
                for sub in stmt.body:
                    if isinstance(sub, _DEF_NODES):
                        fn = add_function(sub, stmt.name)
                        visit_body(sub.body, cls=None, parent=fn)
                if stmt.name in info.classes:
                    _collect_attr_types(info, stmt)
            elif isinstance(stmt, (ast.If, ast.Try)):
                visit_body(stmt.body, cls, parent)
                for handler in getattr(stmt, "handlers", []):
                    visit_body(handler.body, cls, parent)
                visit_body(stmt.orelse, cls, parent)
                visit_body(getattr(stmt, "finalbody", []), cls, parent)

    visit_body(module.body, cls=None, parent=None)


def _collect_attr_types(info: _ModuleInfo, cls: ast.ClassDef) -> None:
    """``self.x = SomeClass(...)`` assignments in ``__init__``."""
    for stmt in cls.body:
        if not (isinstance(stmt, _DEF_NODES)
                and getattr(stmt, "name", "") == "__init__"):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            callee = _dotted(node.value.func)
            if not callee:
                continue
            leaf = callee.rsplit(".", 1)[-1]
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    info.attr_types[(cls.name, target.attr)] = leaf


# ---------------------------------------------------------------------------
# Pass 2: call resolution
# ---------------------------------------------------------------------------


def _find_module(graph: CallGraph, info: _ModuleInfo,
                 dotted_module: str) -> Optional[_ModuleInfo]:
    """The analyzed module whose identity matches *dotted_module*.

    Lint paths rarely start at the package root, so the derived module
    identity (``src.repro.sync.summation``) is matched by dotted
    suffix against the import target (``repro.sync.summation``).
    """
    for candidate in graph.modules.values():
        if candidate is info:
            continue
        if candidate.module == dotted_module:
            return candidate
        if candidate.module.endswith("." + dotted_module):
            return candidate
        if dotted_module.endswith("." + candidate.module.split(".")[-1]) \
                and candidate.module.split(".")[-1] \
                == dotted_module.split(".")[-1]:
            return candidate
    return None


def _resolve_class(graph: CallGraph, info: _ModuleInfo,
                   name: str) -> Optional[Tuple[_ModuleInfo, str]]:
    """Find class *name* locally or through imports."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf in info.classes:
        return info, leaf
    target = info.imports.get(leaf)
    if target is None and "." in name:
        # mod.Class where mod is an imported module.
        head, _, tail = name.rpartition(".")
        mod_target = info.imports.get(head.split(".")[0])
        if mod_target is not None:
            target = f"{mod_target}.{tail}" if "." not in head else \
                f"{mod_target}.{'.'.join(head.split('.')[1:])}.{tail}"
    if target is None:
        return None
    mod_path, _, cls_name = target.rpartition(".")
    other = _find_module(graph, info, mod_path)
    if other is not None and cls_name in other.classes:
        return other, cls_name
    return None


def _method_qual(graph: CallGraph, info: _ModuleInfo, cls: str,
                 method: str,
                 seen: Optional[Set[str]] = None) -> Optional[str]:
    """Resolve *method* on *cls*, walking base classes in the set."""
    seen = seen if seen is not None else set()
    key = f"{info.module}:{cls}"
    if key in seen:
        return None
    seen.add(key)
    qual = info.methods.get(cls, {}).get(method)
    if qual is not None:
        return qual
    for base in info.bases.get(cls, []):
        resolved = _resolve_class(graph, info, base)
        if resolved is None:
            continue
        base_info, base_name = resolved
        qual = _method_qual(graph, base_info, base_name, method, seen)
        if qual is not None:
            return qual
    return None


def _resolve_calls(graph: CallGraph, info: _ModuleInfo,
                   src: SourceFile) -> None:
    for fn in graph.functions.values():
        if fn.src is not src:
            continue
        local_types = _local_var_types(graph, info, fn)
        for node in ast.walk(fn.node):  # type: ignore[arg-type]
            if not isinstance(node, ast.Call):
                continue
            qual = _resolve_one_call(graph, info, fn, node, local_types)
            if qual is not None:
                fn.calls.add(qual)
            else:
                dotted = _dotted(node.func)
                if dotted:
                    fn.external.append((dotted, node.lineno))


def _local_var_types(graph: CallGraph, info: _ModuleInfo,
                     fn: FunctionNode) -> Dict[str, str]:
    """var -> class name, from annotations and constructor calls."""
    types: Dict[str, str] = {}
    args = getattr(fn.node, "args", None)
    if args is not None:
        all_args = list(args.posonlyargs) + list(args.args) \
            + list(args.kwonlyargs)
        for arg in all_args:
            cls = _annotation_class(arg.annotation)
            if cls is not None and _resolve_class(graph, info, cls):
                types[arg.arg] = cls
    for node in ast.walk(fn.node):  # type: ignore[arg-type]
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Call):
            callee = _dotted(node.value.func)
            if not callee:
                continue
            if _resolve_class(graph, info, callee) is None:
                continue
            leaf = callee.rsplit(".", 1)[-1]
            for target in node.targets:
                if isinstance(target, ast.Name):
                    types[target.id] = leaf
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            cls_name = _annotation_class(node.annotation)
            if cls_name is not None \
                    and _resolve_class(graph, info, cls_name):
                types[node.target.id] = cls_name
    return types


def _resolve_one_call(graph: CallGraph, info: _ModuleInfo,
                      fn: FunctionNode, call: ast.Call,
                      local_types: Dict[str, str]) -> Optional[str]:
    func = call.func
    # Bare name: local function, imported function, or construction.
    if isinstance(func, ast.Name):
        name = func.id
        if name in info.functions:
            return info.functions[name]
        if name in info.classes:
            return _method_qual(graph, info, name, "__init__")
        target = info.imports.get(name)
        if target is not None:
            mod_path, _, symbol = target.rpartition(".")
            other = _find_module(graph, info, mod_path)
            if other is not None:
                if symbol in other.functions:
                    return other.functions[symbol]
                if symbol in other.classes:
                    return _method_qual(graph, other, symbol, "__init__")
        return None
    if not isinstance(func, ast.Attribute):
        return None
    method = func.attr
    receiver = func.value
    # self.method()
    if isinstance(receiver, ast.Name) and receiver.id == "self" \
            and fn.cls is not None:
        return _method_qual(graph, info, fn.cls, method)
    # self.attr.method()
    if isinstance(receiver, ast.Attribute) \
            and isinstance(receiver.value, ast.Name) \
            and receiver.value.id == "self" and fn.cls is not None:
        attr_cls = info.attr_types.get((fn.cls, receiver.attr))
        if attr_cls is not None:
            resolved = _resolve_class(graph, info, attr_cls)
            if resolved is not None:
                return _method_qual(graph, resolved[0], resolved[1],
                                    method)
        return None
    if isinstance(receiver, ast.Name):
        # var.method() for a typed local / annotated parameter.
        var_cls = local_types.get(receiver.id)
        if var_cls is not None:
            resolved = _resolve_class(graph, info, var_cls)
            if resolved is not None:
                return _method_qual(graph, resolved[0], resolved[1],
                                    method)
        # Class.method() (unbound) and mod.func().
        if receiver.id in info.classes:
            return _method_qual(graph, info, receiver.id, method)
        target = info.imports.get(receiver.id)
        if target is not None:
            other = _find_module(graph, info, target)
            if other is not None:
                if method in other.functions:
                    return other.functions[method]
                if method in other.classes:
                    return _method_qual(graph, other, method, "__init__")
            # from pkg import Class; Class.method()
            mod_path, _, symbol = target.rpartition(".")
            other = _find_module(graph, info, mod_path)
            if other is not None and symbol in other.classes:
                return _method_qual(graph, other, symbol, method)
    return None
