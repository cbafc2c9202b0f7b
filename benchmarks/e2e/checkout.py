"""Where the harness lives, and the one contract file it reads.

Kept free of numpy/repro imports: the parent process never imports the
program, and the child times its own ``import repro``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch and result directory (gitignored).
OUT = HERE / "out"


def benchmark_contract() -> dict:
    """The parsed ``BENCHMARK.json`` at the root of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on ``sys.path``.

    The benchmark measures the program it was checked out with, never
    an installed copy; a checkout without the program is an error, not
    an empty result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmarks/e2e: nothing to measure, {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
