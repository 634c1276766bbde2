"""Alternated-pair timing shared by the perf benches (``perf_rollout.py``,
``perf_train.py``)."""

from __future__ import annotations

import time
from typing import Callable, Tuple

import numpy as np


def median_pair_times(
    first: Callable[[], object], second: Callable[[], object], pairs: int
) -> Tuple[float, float]:
    """Median seconds of each callable over ``pairs`` alternated pairs.

    Even pairs run ``first`` first and odd pairs ``second`` first, so a
    host that speeds up or slows down mid-run biases neither side; on a
    shared 2-CPU host a min over back-to-back repeats swings past the
    floors' tolerance band from one run to the next.
    """
    times = {first: [], second: []}
    for pair in range(pairs):
        for path in (first, second) if pair % 2 == 0 else (second, first):
            start = time.perf_counter()
            path()
            times[path].append(time.perf_counter() - start)
    return float(np.median(times[first])), float(np.median(times[second]))
