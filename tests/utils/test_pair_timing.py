"""Alternated-pair timing shared by the perf benches."""

import pytest

from benchmarks import pair_timing
from benchmarks.pair_timing import median_pair_times


def test_pairs_alternate_which_path_runs_first():
    calls = []
    median_pair_times(lambda: calls.append("a"), lambda: calls.append("b"), pairs=4)
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]


def test_each_path_gets_the_median_of_its_own_times(monkeypatch):
    """Each path's time is the median of its runs alone, so one slow pair
    moves neither result."""
    clock = [0.0]
    monkeypatch.setattr(pair_timing.time, "perf_counter", lambda: clock[0])

    def path(durations):
        runs = iter(durations)

        def run():
            clock[0] += next(runs)

        return run

    first, second = median_pair_times(path([1.0, 9.0, 2.0]), path([30.0, 10.0, 20.0]), 3)
    assert first == pytest.approx(2.0)
    assert second == pytest.approx(20.0)
