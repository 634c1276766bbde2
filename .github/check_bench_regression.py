#!/usr/bin/env python3
"""CI bench-regression gate: fail the build when recorded speedups regress.

Compares the smoke-run ``BENCH_rollout.json`` / ``BENCH_train.json`` /
``BENCH_serve.json`` artifacts against committed baseline floors
(``bench_baselines.json``) and exits non-zero on regression. Semantics:

- every scenario floor is a *speedup* floor; the measured value must be
  at least ``floor * tolerance`` (the tolerance band absorbs shared-
  runner noise — regressions have to be real, not jitter);
- every scenario must carry ``"equivalent": true`` — a bench that could
  not verify bit-equivalence between its timed paths is a failure
  regardless of timing;
- worker-sweep floors (``workers`` section, keyed by worker count) apply
  the ``speedup_vs_sequential`` number and are skipped when the bench
  machine has fewer than ``min_cpus`` cores: multi-process collection
  cannot beat a single core, and the JSON records ``cpu_count`` exactly
  so this gate can tell a slow runner from a slow commit. Equivalence
  flags on worker records are enforced unconditionally: bit-identity
  does not depend on core count;
- scenario-sweep floors (``scenario_sweep`` section, keyed by case name)
  gate the registry-driven scenario cases (``repro.scenarios`` families
  driven through the vectorized engine, including the ≥200-env SlateRec
  large-scale case). They are ``min_speedup`` floors on the vectorized-
  vs-sequential ratio; equivalence flags on every swept record are
  enforced unconditionally (bit-identity is machine-independent);
- singleton sections gate one record each: the serve bench's
  ``gateway``/``soak``. ``min_*`` floors take the tolerance band;
  ``max_*`` ceilings (latency splits and queue depth from the
  observability layer) are the inverse — measured must stay at or
  below ``ceiling / tolerance``, with ``max_rss_growth_mb`` keeping its
  absolute, RSS-tracked-only semantics; the ``gateway`` equivalence
  flag is enforced on every machine;
- baselines are keyed by bench mode (``smoke`` for the CI artifacts,
  ``full`` for the committed dev-box artifacts), so the same gate checks
  whichever artifact it is handed.

Usage (CI runs this right after the smoke benches)::

    python .github/check_bench_regression.py \
        [--rollout BENCH_rollout.json] [--train BENCH_train.json] \
        [--serve BENCH_serve.json] [--baselines .github/bench_baselines.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List


def check_payload(payload: dict, baseline: dict, tolerance: float, label: str) -> List[str]:
    """Return a list of human-readable failures for one bench artifact."""
    failures: List[str] = []
    scenarios = {s["name"]: s for s in payload.get("scenarios", [])}
    cpu_count = payload.get("cpu_count") or 1

    for name, floors in baseline.get("scenarios", {}).items():
        scenario = scenarios.get(name)
        if scenario is None:
            failures.append(f"{label}: scenario {name!r} missing from artifact")
            continue
        if scenario.get("equivalent") is not True:
            failures.append(f"{label}/{name}: equivalence flag is not true")
        floor = floors["min_speedup"]
        measured = scenario.get("speedup")
        if measured is None or measured < floor * tolerance:
            failures.append(
                f"{label}/{name}: speedup {measured} < floor {floor} x "
                f"tolerance {tolerance} = {floor * tolerance:.3f}"
            )

    worker_floors = baseline.get("workers", {})
    if worker_floors:
        # Every sweep scenario must clear the floor: collect all records
        # per worker count and gate the weakest one.
        sweeps: dict = {}
        for scenario in scenarios.values():
            for record in scenario.get("workers", []):
                # Bit-equivalence holds on any machine: enforce the flag
                # on every swept record regardless of core count.
                if record.get("equivalent") is not True:
                    failures.append(
                        f"{label}/{scenario['name']}/workers={record['num_workers']}: "
                        "equivalence flag is not true"
                    )
                sweeps.setdefault(str(record["num_workers"]), []).append(
                    (scenario["name"], record)
                )
        for count, floors in worker_floors.items():
            min_cpus = floors.get("min_cpus", 2)
            if cpu_count < min_cpus:
                print(
                    f"skip {label}/workers={count}: bench ran on {cpu_count} "
                    f"CPU(s), floor needs >= {min_cpus}"
                )
                continue
            records = sweeps.get(str(count))
            if not records:
                failures.append(
                    f"{label}/workers={count}: missing from the worker sweep"
                )
                continue
            floor = floors["min_speedup_vs_sequential"]
            for scenario_name, record in records:
                measured = record.get("speedup_vs_sequential")
                if measured is None or measured < floor * tolerance:
                    failures.append(
                        f"{label}/{scenario_name}/workers={count}: "
                        f"speedup_vs_sequential {measured} < floor {floor} x "
                        f"tolerance {tolerance} = {floor * tolerance:.3f}"
                    )

    sweep_floors = baseline.get("scenario_sweep", {})
    sweep_records = payload.get("scenario_sweep", [])
    if sweep_floors or sweep_records:
        by_name = {}
        for record in sweep_records:
            # Scenario cases verify bit-equivalence before timing on any
            # machine: the flag is enforced regardless of core count.
            if record.get("equivalent") is not True:
                failures.append(
                    f"{label}/scenario_sweep/{record.get('name')}: "
                    "equivalence flag is not true"
                )
            by_name[record.get("name")] = record
        for name, floors in sweep_floors.items():
            record = by_name.get(name)
            if record is None:
                failures.append(
                    f"{label}/scenario_sweep/{name}: missing from the scenario sweep"
                )
                continue
            floor = floors["min_speedup"]
            measured = record.get("speedup")
            if measured is None or measured < floor * tolerance:
                failures.append(
                    f"{label}/scenario_sweep/{name}: speedup {measured} < "
                    f"floor {floor} x tolerance {tolerance} = {floor * tolerance:.3f}"
                )

    # Singleton record sections: the serve bench's 'gateway' and 'soak'.
    # min_* floors take the tolerance band like every other floor.
    # max_* ceilings are the inverse: the measured value must stay at or
    # below ceiling / tolerance (the same band, loosened upward), so
    # latency splits recorded by the observability layer (queue-wait /
    # compute p99s, queue depth) cannot silently blow up.
    # max_rss_growth_mb keeps its special absolute semantics: a leak
    # ceiling applied as-is and only when the artifact tracked RSS
    # (Linux /proc).
    for section in ("gateway", "soak"):
        floors = baseline.get(section)
        if not floors:
            continue
        record = payload.get(section)
        if record is None:
            failures.append(f"{label}/{section}: missing from artifact")
            continue
        if section == "gateway" and record.get("equivalent") is not True:
            failures.append(f"{label}/{section}: equivalence flag is not true")
        for metric, floor in floors.items():
            if metric.startswith("min_"):
                key = metric[len("min_"):]
                measured = record.get(key)
                if measured is None or measured < floor * tolerance:
                    failures.append(
                        f"{label}/{section}: {key} {measured} < floor {floor} x "
                        f"tolerance {tolerance} = {floor * tolerance:.3f}"
                    )
            elif metric.startswith("max_") and metric != "max_rss_growth_mb":
                key = metric[len("max_"):]
                measured = record.get(key)
                allowed = floor / tolerance if tolerance else floor
                if measured is None or measured > allowed:
                    failures.append(
                        f"{label}/{section}: {key} {measured} > ceiling {floor} / "
                        f"tolerance {tolerance} = {allowed:.3f}"
                    )
        ceiling = floors.get("max_rss_growth_mb")
        if ceiling is not None and section == "soak":
            if record.get("rss_tracked"):
                measured = record.get("rss_growth_mb")
                if measured is None or measured > ceiling:
                    failures.append(
                        f"{label}/{section}: rss_growth_mb {measured} > "
                        f"ceiling {ceiling}"
                    )
            else:
                print(f"skip {label}/{section}/rss: artifact did not track RSS")
    return failures


def run(
    rollout_path: Path,
    train_path: Path,
    baselines_path: Path,
    serve_path: Path = None,
) -> int:
    baselines = json.loads(baselines_path.read_text())
    tolerance = baselines.get("tolerance", 1.0)
    failures: List[str] = []
    artifacts = [("rollout", rollout_path), ("train", train_path)]
    if serve_path is not None:
        artifacts.append(("serve", serve_path))
    for label, path in artifacts:
        per_mode = baselines.get(label)
        if per_mode is None:
            continue
        if not path.exists():
            failures.append(f"{label}: bench artifact {path} not found")
            continue
        payload = json.loads(path.read_text())
        mode = payload.get("mode", "smoke")
        baseline = per_mode.get(mode)
        if baseline is None:
            print(f"skip {label}: no {mode!r} baselines committed")
            continue
        failures.extend(check_payload(payload, baseline, tolerance, f"{label}/{mode}"))

    if failures:
        print("\nBENCH REGRESSION GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        print(
            "\nIf the regression is intentional (e.g. a trade for correctness),"
            "\nlower the floors in .github/bench_baselines.json in the same PR"
            "\nand say why in the PR description."
        )
        return 1
    print("bench regression gate: all floors held")
    return 0


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rollout", type=Path, default=root / "BENCH_rollout.json")
    parser.add_argument("--train", type=Path, default=root / "BENCH_train.json")
    parser.add_argument("--serve", type=Path, default=root / "BENCH_serve.json")
    parser.add_argument(
        "--baselines", type=Path, default=root / ".github" / "bench_baselines.json"
    )
    args = parser.parse_args()
    return run(args.rollout, args.train, args.baselines, serve_path=args.serve)


if __name__ == "__main__":
    sys.exit(main())
