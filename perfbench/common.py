"""Shared plumbing: paths, BLAS pinning, the environment stamp and results.

Every workload returns a :class:`Result`; ``run.py`` prints its record
and the final JSON result line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Run artifacts (span dumps, checkpoints) stay inside the checkout.
OUT = ROOT / ".perfbench"

# One BLAS thread per process: on a small shared box, default pools in
# the parent plus every worker oversubscribe the cores and the timings
# measure the scheduler instead of the program.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """Pin BLAS to one thread here and in every child (call before numpy)."""
    for name in BLAS_VARS:
        os.environ[name] = "1"


def require_src() -> None:
    """Put the library on the import path, or fail if the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"library sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts: pinned BLAS, and both
    this package and the library importable."""
    env = dict(os.environ)
    for name in BLAS_VARS:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def stop_helper_processes() -> None:
    """Stop the multiprocessing resource tracker and wait for it to end.

    Shared-memory pools start it on first use and it would otherwise
    outlive this process (it exits only after noticing our exit).
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def environment_stamp(seed: int) -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        **{name: os.environ.get(name) for name in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tail_ms(samples_s: Sequence[float]) -> float:
    """The highest percentile (at most p99) with at least ten samples beyond it.

    With fewer than twenty samples no percentile above the median
    qualifies, so the median is returned.
    """
    values = sorted(samples_s)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    q = min(0.99, max(0.5, 1.0 - 10.0 / n))
    position = q * (n - 1)
    low = int(position)
    high = min(low + 1, n - 1)
    value = values[low] + (values[high] - values[low]) * (position - low)
    return value * 1000.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Result:
    """What one workload run measured and whether its outputs were right."""

    workload: str
    seed: int
    trace: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gate_errors: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)
    spans_file: Optional[str] = None

    @property
    def correct(self) -> bool:
        return not self.gate_errors

    def gate(self, ok: bool, message: str) -> None:
        """Record a failed correctness gate (no-op when ``ok``)."""
        if not ok:
            self.gate_errors.append(message)


def write_spans(name: str, payload: Dict[str, object]) -> str:
    """Dump a run's spans and ledger under ``.perfbench/``; returns the path."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}.json"
    path.write_text(json.dumps(payload))
    return str(path.relative_to(ROOT))
