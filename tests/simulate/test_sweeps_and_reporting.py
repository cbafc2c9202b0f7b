"""Additional sweep-driver and reporting coverage."""

from repro import reporting
from repro.simulate import (
    default_thread_counts,
    get_machine,
    paper_task_graph,
    simulate_schedule,
)


def header_threads(header):
    return [int(h.split("=")[1]) for h in header[1:]]


class TestSpeedupSweep:
    def test_rows_sorted_by_width(self):
        _, rows = reporting.figure5("xeon-8", 3, widths=[10, 5])
        assert [row[0] for row in rows] == ["5", "10"]

    def test_custom_policy(self):
        result = simulate_schedule(paper_task_graph(3, 5),
                                   get_machine("xeon-8"), 8,
                                   policy="fifo")
        assert result.speedup > 1.0

    def test_default_thread_counts_used(self):
        header, _ = reporting.figure5("xeon-8", 3, widths=[5])
        assert header_threads(header) \
            == default_thread_counts(get_machine("xeon-8"))


class TestSpeedupVsThreads:
    def test_returns_pairs_in_input_order(self):
        """Each cell sits under the thread count it was simulated at."""
        tg = paper_task_graph(3, 5)
        machine = get_machine("xeon-8")
        header, rows = reporting.figure5("xeon-8", 3, widths=[5])
        for threads, cell in zip(header_threads(header), rows[0][1:]):
            speedup = simulate_schedule(tg, machine, threads).speedup
            assert cell == f"{speedup:.4g}"

    def test_speedup_at_one_thread_close_to_one(self):
        header, rows = reporting.figure5("xeon-8", 3, widths=[5])
        assert header[1] == "W=1"
        assert 0.9 < float(rows[0][1]) <= 1.0  # sync overhead: under 1


class TestReportingDrivers:
    def test_figure5_values_numeric(self):
        header, rows = reporting.figure5("xeon-8", 3, widths=(5,))
        values = [float(v) for v in rows[0][1:]]
        assert all(v > 0 for v in values)

    def test_figure4_monotone_in_width(self):
        header, rows = reporting.figure4(widths=(5, 40, 120))
        for row in rows:
            values = [float(v) for v in row[1:]]
            assert values == sorted(values)

    def test_figure8_winner_column_consistent(self):
        header, rows = reporting.figure8(outputs=(8,))
        for row in rows:
            systems = header[2:-1]
            seconds = {s: (None if v == "OOM" else float(v))
                       for s, v in zip(systems, row[2:-1])}
            valid = {s: v for s, v in seconds.items() if v is not None}
            assert row[-1] == min(valid, key=valid.get)
