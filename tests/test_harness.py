"""Timing-harness tests: measurement, DNF reporting, table formatting,
and the process-tree CPU sampler used by the T4 speedup analysis."""
import os
import time

import pytest

from repro.jsoniq.errors import DeadlineExceeded
from repro.workloads.harness import (
    Measurement,
    format_table,
    measure,
    process_tree_cpu_seconds,
)


class TestMeasure:
    def test_success(self):
        m = measure("sys", "q", 10, lambda: 42)
        assert not m.dnf and m.result == 42 and m.wall_s >= 0

    def test_wall_time_sane(self):
        m = measure("sys", "q", 0, lambda: time.sleep(0.05))
        assert 0.04 < m.wall_s < 1.0

    def test_repeat_reports_the_median(self):
        waits = iter([0.3, 0.01, 0.05])
        calls = []

        def run():
            calls.append(1)
            time.sleep(next(waits))
            return len(calls)

        m = measure("sys", "q", 0, run, repeat=3, with_cpu=True)
        assert len(calls) == 3 and m.result == 3
        assert 0.04 < m.wall_s < 0.25 and m.cpu_s is not None

    def test_repeat_stops_at_the_first_dnf(self):
        calls = []

        def run():
            calls.append(1)
            raise DeadlineExceeded("over budget")

        m = measure("sys", "q", 0, run, repeat=3)
        assert m.dnf and calls == [1]

    def test_dnf_on_resource_cap(self):
        def boom():
            raise DeadlineExceeded("over budget")

        m = measure("sys", "q", 0, boom)
        assert m.dnf and m.dnf_reason == "DeadlineExceeded"

    def test_other_exceptions_propagate(self):
        with pytest.raises(ValueError):
            measure("sys", "q", 0, lambda: (_ for _ in ()).throw(ValueError()))

    def test_cpu_sampling(self):
        def spin():
            t0 = time.process_time()
            while time.process_time() - t0 < 0.1:
                pass

        m = measure("sys", "q", 0, spin, with_cpu=True)
        assert m.cpu_s is not None and m.cpu_s >= 0.0


class TestProcessTreeCpu:
    def test_includes_self(self):
        t0 = time.process_time()
        while time.process_time() - t0 < 0.05:
            pass
        assert process_tree_cpu_seconds() > 0

    def test_monotone(self):
        a = process_tree_cpu_seconds()
        t0 = time.process_time()
        while time.process_time() - t0 < 0.05:
            pass
        assert process_tree_cpu_seconds() >= a

    def test_nonexistent_root(self):
        # An arbitrary high PID with no descendants still returns a float.
        assert isinstance(process_tree_cpu_seconds(2**21), float)

    def test_root_is_current_pid_by_default(self):
        assert process_tree_cpu_seconds(os.getpid()) == pytest.approx(
            process_tree_cpu_seconds(), abs=1.0
        )


class TestFormatTable:
    def test_contains_rows_and_dnf(self):
        rows = [
            Measurement("rumble", "filter", 1000, 1.234),
            Measurement("zorba-like", "sort", 1000, 60.0, dnf=True,
                        dnf_reason="DeadlineExceeded"),
        ]
        out = format_table("T2", rows)
        assert "T2" in out
        assert "1.23s" in out
        assert "DNF(DeadlineExceeded)" in out

    def test_cpu_column(self):
        rows = [Measurement("rumble", "filter", 1, 2.0, cpu_s=8.0)]
        out = format_table("T4", rows)
        assert "(cpu 8.00s)" in out
