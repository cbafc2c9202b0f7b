"""The ``tiled-bitwise`` kernels stay plain ufunc folds.

``tensor/conv_direct.py`` and ``tensor/filtering.py`` promise a
reduction order that is a function of the window shape alone, at ufunc
speed.  A BLAS contraction breaks the first (it reassociates by image
extent and brings its own threads), a masked select the second
(``np.putmask`` costs ~7x ``np.maximum`` at 34^3), and ``np.pad`` builds
the copy the tap walk exists to avoid.  This fails the build if one
drifts back in.
"""

import ast
import pathlib

import pytest

import repro.tensor

KERNELS = [pathlib.Path(repro.tensor.__file__).with_name(name)
           for name in ("conv_direct.py", "filtering.py")]

#: Calls by (attribute or bare) name: BLAS contractions, selects, pad.
BANNED_CALLS = {"tensordot", "dot", "vdot", "inner", "matmul",
                "putmask", "where", "select", "pad"}
#: Keywords that turn an innocent call into one of the above.
BANNED_KEYWORDS = {"where": "masked select", "optimize": "einsum via BLAS"}


def violations(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @ (matmul)")
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", getattr(func, "id", None))
        if name in BANNED_CALLS:
            found.append(f"line {node.lineno}: {name}()")
        for keyword in node.keywords:
            if keyword.arg in BANNED_KEYWORDS:
                found.append(f"line {node.lineno}: {name}({keyword.arg}=) "
                             f"— {BANNED_KEYWORDS[keyword.arg]}")
    return found


@pytest.mark.parametrize("path", KERNELS, ids=lambda p: p.name)
def test_kernel_module_calls_no_blas_select_or_pad(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize("offender", [
    "np.tensordot(a, b, axes=3)",
    "a.dot(b)",
    "np.matmul(a, b)",
    "a @ b",
    "np.putmask(a, m, b)",
    "np.where(m, a, b)",
    "np.copyto(a, b, where=m)",
    "np.maximum(a, b, out=a, where=m)",
    "np.pad(a, 2)",
    "np.einsum('ij,jk', a, b, optimize=True)",
])
def test_the_rule_catches(offender):
    assert len(violations(f"x = {offender}\n")) == 1


def test_the_rule_passes_the_folds_the_kernels_are_made_of():
    assert violations("acc = np.maximum(acc, tap)\n"
                      "code = code + (tap > acc) * (new - code)\n"
                      "block += weight * grad\n"
                      "total = np.einsum('zyx,zyx->', block, grad)\n") == []
