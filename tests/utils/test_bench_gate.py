"""The CI bench-regression gate: floor comparisons, tolerance, equivalence."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", ROOT / ".github" / "check_bench_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rollout_payload(
    speedup=2.5,
    cpu_count=4,
    equivalent=True,
    scenario_speedup=2.0,
    scenario_equivalent=True,
    with_scenario_sweep=True,
):
    scenario = {
        "name": "smoke_cross_city",
        "speedup": speedup,
        "equivalent": equivalent,
    }
    payload = {"cpu_count": cpu_count, "scenarios": [scenario]}
    if with_scenario_sweep:
        payload["scenario_sweep"] = [
            {
                "name": name,
                "num_envs": 12,
                "speedup": scenario_speedup,
                "equivalent": scenario_equivalent,
            }
            for name in ("scenario_slate", "scenario_lts")
        ]
    return payload


BASELINE = {
    "scenarios": {"smoke_cross_city": {"min_speedup": 1.6}},
    "scenario_sweep": {
        "scenario_slate": {"min_speedup": 1.3},
        "scenario_lts": {"min_speedup": 1.5},
    },
}


class TestCheckPayload:
    def test_passes_when_floors_hold(self, gate):
        failures = gate.check_payload(rollout_payload(), BASELINE, 0.8, "rollout")
        assert failures == []

    def test_fails_on_scenario_regression(self, gate):
        failures = gate.check_payload(
            rollout_payload(speedup=1.1), BASELINE, 0.8, "rollout"
        )
        assert any("smoke_cross_city" in f and "1.1" in f for f in failures)

    def test_tolerance_band_absorbs_jitter(self, gate):
        # floor 1.6 x tolerance 0.8 = 1.28: 1.3 passes, 1.2 fails
        assert gate.check_payload(rollout_payload(speedup=1.3), BASELINE, 0.8, "r") == []
        assert gate.check_payload(rollout_payload(speedup=1.2), BASELINE, 0.8, "r")

    def test_fails_when_equivalence_not_verified(self, gate):
        failures = gate.check_payload(
            rollout_payload(equivalent=False), BASELINE, 0.8, "rollout"
        )
        assert any("equivalence" in f for f in failures)

    def test_fails_on_missing_scenario(self, gate):
        failures = gate.check_payload(
            {"cpu_count": 4, "scenarios": []}, BASELINE, 0.8, "rollout"
        )
        assert any("missing" in f for f in failures)


class TestScenarioSweepFloors:
    def test_passes_when_floors_hold(self, gate):
        assert gate.check_payload(rollout_payload(), BASELINE, 0.8, "rollout") == []

    def test_fails_on_scenario_case_regression(self, gate):
        # floor 1.5 x tolerance 0.8 = 1.2: a 1.1x scenario case fails
        failures = gate.check_payload(
            rollout_payload(scenario_speedup=1.1), BASELINE, 0.8, "rollout"
        )
        assert any("scenario_sweep/scenario_lts" in f and "1.1" in f for f in failures)

    def test_equivalence_enforced_even_on_single_core(self, gate):
        """Scenario populations verify bit-identity on any machine — a
        false flag fails the gate regardless of cpu_count."""
        failures = gate.check_payload(
            rollout_payload(scenario_equivalent=False, cpu_count=1),
            BASELINE,
            0.8,
            "rollout",
        )
        assert any(
            "scenario_sweep/scenario_slate" in f and "equivalence" in f
            for f in failures
        )

    def test_fails_when_case_missing_from_sweep(self, gate):
        failures = gate.check_payload(
            rollout_payload(with_scenario_sweep=False), BASELINE, 0.8, "rollout"
        )
        assert any(
            "scenario_sweep/scenario_slate" in f and "missing" in f for f in failures
        )

    def test_uncommitted_cases_only_checked_for_equivalence(self, gate):
        """A swept case without a committed floor (e.g. a new family being
        explored) passes on speed but still must verify equivalence."""
        payload = rollout_payload()
        payload["scenario_sweep"].append(
            {"name": "scenario_new_family", "speedup": 0.5, "equivalent": True}
        )
        assert gate.check_payload(payload, BASELINE, 0.8, "rollout") == []
        payload["scenario_sweep"][-1]["equivalent"] = False
        failures = gate.check_payload(payload, BASELINE, 0.8, "rollout")
        assert any("scenario_new_family" in f for f in failures)


def train_payload():
    return {
        "cpu_count": 4,
        "mode": "smoke",
        "scenarios": [
            {"name": "smoke_ppo", "speedup": 3.5, "equivalent": True},
            {"name": "smoke_sadae", "speedup": 1.5, "equivalent": True},
        ],
    }


class TestTrainFloors:
    """The train bench is gated by its scenario floors alone: the PPO
    learner and SADAE speedups plus their equivalence flags."""

    @pytest.fixture
    def floors(self):
        baselines = json.loads((ROOT / ".github" / "bench_baselines.json").read_text())
        return baselines["train"]["smoke"]

    def test_passes_when_floors_hold(self, gate, floors):
        assert gate.check_payload(train_payload(), floors, 0.8, "train") == []

    def test_fails_on_sadae_regression(self, gate, floors):
        # floor 1.2 x tolerance 0.8 = 0.96: a 0.9x stacked SADAE step fails
        payload = train_payload()
        payload["scenarios"][1]["speedup"] = 0.9
        failures = gate.check_payload(payload, floors, 0.8, "train")
        assert any("smoke_sadae" in f and "0.9" in f for f in failures)

    def test_fails_when_equivalence_not_verified(self, gate, floors):
        payload = train_payload()
        payload["scenarios"][0]["equivalent"] = False
        failures = gate.check_payload(payload, floors, 0.8, "train")
        assert failures == ["train/smoke_ppo: equivalence flag is not true"]

    def test_committed_train_artifact_clears_its_floors(self, gate):
        """The committed full-mode BENCH_train.json, recorded with BLAS
        pinned, holds its full-mode floors."""
        baselines = json.loads((ROOT / ".github" / "bench_baselines.json").read_text())
        payload = json.loads((ROOT / "BENCH_train.json").read_text())
        assert payload["mode"] == "full"
        assert set(payload["blas_threads"].values()) == {"1"}
        floors = baselines["train"]["full"]
        assert gate.check_payload(payload, floors, baselines["tolerance"], "train") == []


class TestRun:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_run_with_committed_baselines_shape(self, gate, tmp_path):
        """The committed baselines file parses and gates a healthy artifact."""
        baselines_path = ROOT / ".github" / "bench_baselines.json"
        baselines = json.loads(baselines_path.read_text())
        assert "rollout" in baselines and "train" in baselines
        rollout = self.write(tmp_path, "r.json", rollout_payload())
        train = self.write(tmp_path, "t.json", train_payload())
        assert gate.run(rollout, train, baselines_path) == 0

    def test_committed_rollout_artifact_clears_its_floors(self, gate):
        """The committed full-mode BENCH_rollout.json was recorded with
        BLAS pinned, and its floors held."""
        baselines = json.loads((ROOT / ".github" / "bench_baselines.json").read_text())
        payload = json.loads((ROOT / "BENCH_rollout.json").read_text())
        assert payload["mode"] == "full"
        floors = baselines["rollout"]["full"]
        assert set(payload["blas_threads"].values()) == {"1"}
        assert gate.check_payload(payload, floors, baselines["tolerance"], "rollout") == []

    def test_run_fails_on_missing_artifact(self, gate, tmp_path):
        rollout = self.write(tmp_path, "r.json", rollout_payload())
        assert (
            gate.run(rollout, tmp_path / "absent.json", ROOT / ".github" / "bench_baselines.json")
            == 1
        )


BASELINES = json.loads((ROOT / ".github" / "bench_baselines.json").read_text())

#: Where a healthy artifact for each (bench, mode) comes from: the full-mode
#: artifacts are the committed ones, the smoke ones the builders above.
HEALTHY_ARTIFACTS = {
    ("rollout", "smoke"): rollout_payload,
    ("rollout", "full"): lambda: json.loads((ROOT / "BENCH_rollout.json").read_text()),
    ("train", "smoke"): train_payload,
    ("train", "full"): lambda: json.loads((ROOT / "BENCH_train.json").read_text()),
}

COMMITTED_SPEEDUP_FLOORS = [
    (bench, mode, section, name)
    for bench, mode in HEALTHY_ARTIFACTS
    for section, floors in BASELINES[bench][mode].items()
    for name in floors
]


@pytest.mark.parametrize("bench,mode,section,name", COMMITTED_SPEEDUP_FLOORS)
def test_every_committed_floor_gates_its_record(gate, bench, mode, section, name):
    """Each committed speedup floor binds its own record at floor x
    tolerance: a healthy artifact passes, the same artifact with only
    that record on the band edge still passes, and just under the edge
    it fails once, naming the record."""
    floors, tolerance = BASELINES[bench][mode], BASELINES["tolerance"]
    payload = HEALTHY_ARTIFACTS[bench, mode]()
    assert gate.check_payload(payload, floors, tolerance, bench) == []
    (record,) = [r for r in payload[section] if r["name"] == name]
    edge = floors[section][name]["min_speedup"] * tolerance
    record["speedup"] = edge
    assert gate.check_payload(payload, floors, tolerance, bench) == []
    record["speedup"] = edge * 0.99
    failures = gate.check_payload(payload, floors, tolerance, bench)
    assert len(failures) == 1 and f"/{name}: speedup" in failures[0], failures


def serve_payload(
    speedup=2.0,
    equivalent=True,
    cpu_count=4,
    gateway_rps=1500.0,
    gateway_equivalent=True,
    queue_wait_p99_ms=2.5,
    compute_p99_ms=1.0,
    max_queue_depth=8,
    soak_sessions=3000,
    soak_evictions=1700,
    rss_growth_mb=0.5,
    rss_tracked=True,
):
    return {
        "cpu_count": cpu_count,
        "mode": "smoke",
        "scenarios": [
            {
                "name": name,
                "speedup": speedup,
                "p50_ms": 0.4,
                "p99_ms": 0.9,
                "throughput_rps": 10000.0,
                "equivalent": equivalent,
            }
            for name in ("sessions_2", "sessions_4", "sessions_8")
        ],
        "gateway": {
            "name": "gateway",
            "throughput_rps": gateway_rps,
            "p50_ms": 2.0,
            "p99_ms": 4.0,
            "queue_wait_p50_ms": 1.0,
            "queue_wait_p99_ms": queue_wait_p99_ms,
            "compute_p50_ms": 0.5,
            "compute_p99_ms": compute_p99_ms,
            "max_queue_depth": max_queue_depth,
            "equivalent": gateway_equivalent,
        },
        "soak": {
            "name": "soak",
            "sessions_opened": soak_sessions,
            "evictions": soak_evictions,
            "evicted_lru": soak_evictions,
            "evicted_ttl": 0,
            "rss_growth_mb": rss_growth_mb if rss_tracked else None,
            "rss_tracked": rss_tracked,
        },
    }


class TestServeFloors:
    """The serving-bench artifact rides the same scenarios gate."""

    #: The committed smoke floors for BENCH_serve.json.
    BASELINE = {
        "scenarios": {
            "sessions_2": {"min_speedup": 1.0},
            "sessions_4": {"min_speedup": 1.2},
            "sessions_8": {"min_speedup": 1.5},
        },
        "gateway": {
            "min_throughput_rps": 100.0,
            "min_max_queue_depth": 1,
            "max_queue_wait_p99_ms": 100.0,
            "max_compute_p99_ms": 50.0,
        },
        "soak": {
            "min_sessions_opened": 3000,
            "min_evictions": 1000,
            "max_rss_growth_mb": 64.0,
        },
    }

    def test_passes_when_floors_hold(self, gate):
        assert gate.check_payload(serve_payload(), self.BASELINE, 0.8, "serve") == []

    def test_fails_on_throughput_regression(self, gate):
        # floor 1.5 x tolerance 0.8 = 1.2: a 1.1x microbatching win fails
        failures = gate.check_payload(
            serve_payload(speedup=1.1), self.BASELINE, 0.8, "serve"
        )
        assert any("sessions_8" in f and "1.1" in f for f in failures)

    def test_fails_when_parity_not_verified(self, gate):
        failures = gate.check_payload(
            serve_payload(equivalent=False), self.BASELINE, 0.8, "serve"
        )
        assert any("equivalence" in f for f in failures)

    def test_committed_baselines_carry_serve_floors(self, gate):
        baselines = json.loads(
            (ROOT / ".github" / "bench_baselines.json").read_text()
        )
        assert "serve" in baselines
        for mode in ("smoke", "full"):
            assert baselines["serve"][mode]["scenarios"]
            gateway = baselines["serve"][mode]["gateway"]
            assert "min_throughput_rps" in gateway
            assert gateway["min_max_queue_depth"] >= 1
            assert gateway["max_queue_wait_p99_ms"] > 0
            assert gateway["max_compute_p99_ms"] > 0
            soak = baselines["serve"][mode]["soak"]
            assert soak["min_evictions"] > 0
            assert soak["max_rss_growth_mb"] > 0

    def test_gateway_floor_and_equivalence(self, gate):
        # floor 100 x tolerance 0.8 = 80: 90 rps passes, 50 fails
        assert gate.check_payload(
            serve_payload(gateway_rps=90.0), self.BASELINE, 0.8, "serve"
        ) == []
        failures = gate.check_payload(
            serve_payload(gateway_rps=50.0), self.BASELINE, 0.8, "serve"
        )
        assert any("gateway" in f and "throughput_rps" in f for f in failures)
        failures = gate.check_payload(
            serve_payload(gateway_equivalent=False), self.BASELINE, 0.8, "serve"
        )
        assert any("gateway" in f and "equivalence" in f for f in failures)

    def test_gateway_latency_ceilings(self, gate):
        """max_* ceilings are loosened by the tolerance band upward:
        ceiling 100 / tolerance 0.8 = 125, so 120 passes and 130 fails."""
        assert gate.check_payload(
            serve_payload(queue_wait_p99_ms=120.0), self.BASELINE, 0.8, "serve"
        ) == []
        failures = gate.check_payload(
            serve_payload(queue_wait_p99_ms=130.0), self.BASELINE, 0.8, "serve"
        )
        assert any("queue_wait_p99_ms" in f and "ceiling" in f for f in failures)
        failures = gate.check_payload(
            serve_payload(compute_p99_ms=90.0), self.BASELINE, 0.8, "serve"
        )
        assert any("compute_p99_ms" in f and "ceiling" in f for f in failures)

    def test_gateway_ceiling_fails_when_metric_missing(self, gate):
        """An artifact predating the instrumentation must not pass a
        committed ceiling by omission."""
        payload = serve_payload()
        del payload["gateway"]["queue_wait_p99_ms"]
        failures = gate.check_payload(payload, self.BASELINE, 0.8, "serve")
        assert any("queue_wait_p99_ms None" in f for f in failures)

    def test_gateway_queue_depth_floor(self, gate):
        """min_max_queue_depth proves the bench actually queued work:
        a depth of 0 means the latency split measured nothing."""
        failures = gate.check_payload(
            serve_payload(max_queue_depth=0), self.BASELINE, 0.8, "serve"
        )
        assert any("max_queue_depth" in f for f in failures)

    def test_soak_floors(self, gate):
        # min_evictions 1000 x tolerance 0.8 = 800
        failures = gate.check_payload(
            serve_payload(soak_evictions=700), self.BASELINE, 0.8, "serve"
        )
        assert any("soak" in f and "evictions" in f for f in failures)
        failures = gate.check_payload(
            serve_payload(soak_sessions=100), self.BASELINE, 0.8, "serve"
        )
        assert any("soak" in f and "sessions_opened" in f for f in failures)

    def test_soak_rss_ceiling_is_absolute(self, gate):
        """No tolerance band on the leak ceiling: 64 MiB means 64 MiB."""
        assert gate.check_payload(
            serve_payload(rss_growth_mb=63.0), self.BASELINE, 0.8, "serve"
        ) == []
        failures = gate.check_payload(
            serve_payload(rss_growth_mb=65.0), self.BASELINE, 0.8, "serve"
        )
        assert any("rss_growth_mb" in f for f in failures)

    def test_soak_rss_skipped_when_untracked(self, gate, capsys):
        """Off-Linux artifacts record rss_tracked=false; the ceiling is
        skipped, not failed (the eviction floors still apply)."""
        failures = gate.check_payload(
            serve_payload(rss_tracked=False), self.BASELINE, 0.8, "serve"
        )
        assert failures == []
        assert "skip serve/soak/rss" in capsys.readouterr().out

    def test_missing_sections_fail(self, gate):
        payload = serve_payload()
        del payload["gateway"], payload["soak"]
        failures = gate.check_payload(payload, self.BASELINE, 0.8, "serve")
        assert any("gateway: missing" in f for f in failures)
        assert any("soak: missing" in f for f in failures)

    def test_run_gates_serve_artifact(self, gate, tmp_path):
        """run() checks the serve artifact when handed a path to one."""
        baselines_path = ROOT / ".github" / "bench_baselines.json"
        write = TestRun().write
        rollout = write(tmp_path, "r.json", rollout_payload())
        train = write(tmp_path, "t.json", train_payload())
        good = write(tmp_path, "s.json", serve_payload())
        assert gate.run(rollout, train, baselines_path, serve_path=good) == 0
        bad = write(tmp_path, "s_bad.json", serve_payload(speedup=0.5))
        assert gate.run(rollout, train, baselines_path, serve_path=bad) == 1
        assert (
            gate.run(
                rollout, train, baselines_path, serve_path=tmp_path / "absent.json"
            )
            == 1
        )
