"""Fixtures of the live-system reports.

The repo's wall-clock ruler is ``benchmarks/e2e``; the paper's tables
and figures come from ``repro figure`` / ``examples/reproduce_paper.py``.
What is left here are the five multi-process / serving reports that a
CI lane or a doc consumes and that have no e2e counterpart yet.  Each
prints its tables through ``repro.reporting.render_table`` (run with
``-s``) and accumulates its numbers into ``BENCH_<name>.json`` in the
working directory.  ``ZNN_BENCH_FULL=1`` widens their sweeps.
"""

import json
import os
import threading
import time

import pytest

# ``repro`` is imported where it is used: this conftest also loads for
# the e2e harness's own tests, which must run without ``src`` on the path.
FULL = os.environ.get("ZNN_BENCH_FULL", "0") not in ("0", "", "false")


class Report:
    """What a bench module gets from the harness: tables on stdout,
    numbers in ``BENCH_<name>.json`` (rewritten on every :meth:`emit`,
    so a run that dies half-way still leaves what it measured), and
    the closed-loop client both serving reports drive."""

    def __init__(self, name: str) -> None:
        self.full = FULL
        self.path = f"BENCH_{name}.json"
        self.doc = {"bench": name, "full_run": FULL, "results": {}}

    def table(self, title, header, rows) -> None:
        from repro import reporting

        print()
        print(reporting.render_table(title, header, rows))

    def emit(self, key, value) -> None:
        self.doc["results"][key] = value
        with open(self.path, "w") as fh:
            json.dump(self.doc, fh, indent=2)
            fh.write("\n")

    @staticmethod
    def closed_loop(call, requests, clients):
        """*clients* threads each keep one ``call()`` in flight until
        *requests* are done; returns (seconds, list of results)."""
        lock = threading.Lock()
        todo = [None] * requests
        results = []

        def client():
            while True:
                with lock:
                    if not todo:
                        return
                    todo.pop()
                out = call()
                with lock:
                    results.append(out)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start, results


@pytest.fixture(scope="module")
def report(request):
    """The module's :class:`Report`, named by its ``BENCH`` constant."""
    return Report(request.module.BENCH)


@pytest.fixture(scope="session")
def spec_path(tmp_path_factory):
    """Spec file of the small CTPCT model both serving reports use."""
    from repro.graph.specfile import dump_layered_spec

    path = tmp_path_factory.mktemp("bench") / "bench.spec"
    path.write_text(dump_layered_spec(
        "CTPCT", width=[2, 1], kernel=2, window=2, transfer="tanh"))
    return path


@pytest.fixture(scope="session")
def requests():
    """Request count of the two closed-loop serving reports."""
    return 32 if FULL else 8
