"""Every name the end-to-end benchmark harness (``benchmarks/e2e``)
imports from ``repro`` resolves.

The harness runs in its own CI job; this keeps a ``src`` change that
breaks its imports from passing tier-1.  The files are parsed, not
imported: the harness expects ``workloads`` on its path and must not
import ``repro`` at module level of its parent process.
"""

import ast
import importlib
from pathlib import Path

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def repro_imports():
    """``(file, module, name)`` for each ``repro`` import in the
    harness, at any depth (``name`` None for ``import repro.x``)."""
    for path in sorted(E2E.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [(node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [(a.name, None) for a in node.names]
            else:
                continue
            for module, name in modules:
                if module.split(".")[0] == "repro":
                    yield path.name, module, name


def resolves(module, name):
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(imported, name):
        return True
    try:  # a submodule not yet imported
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_repro_name_the_harness_imports_resolves():
    imports = list(repro_imports())
    assert {where for where, _, _ in imports} >= {"probes.py", "workloads.py"}
    missing = [f"{where}: from {module} import {name}"
               for where, module, name in imports
               if not resolves(module, name)]
    assert not missing, "\n".join(missing)


def test_a_dropped_name_is_caught():
    assert not resolves("repro.tensor", "DirectBackend")
    assert not resolves("repro.no_such_module", None)
    assert resolves("repro.tensor.conv_direct", "direct_pass_cost")
