"""Tests for ``tools/bench_pairs.py``, the paired-run summariser, on made-up records."""

import importlib.util
import json
import os
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEEDS = [11, 12, 13]
ENV = {
    "python": "3.11.7",
    "implementation": "CPython",
    "cpu_model": "cpu",
    "nproc": 2,
    "platform": "linux",
    "seconds": 30.0,
    "trace": 0,
}


def _write(root, workload, seed, ops, mtime, **env):
    out = root / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    metrics = {
        "ops_per_s": ops,
        "latency_p50_ms": 1000 / ops,
        "latency_tail_ms": 2000 / ops,
        "setup_s": 0.1,
        "peak_rss_mib": 25.0,
    }
    record = {
        "environment": {**ENV, **env, "seed": seed},
        "attempted": int(ops * 30),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "?"} for name, value in metrics.items()},
    }
    path = out / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(record))
    os.utime(path, (mtime, mtime))


def _checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    for k, seed in enumerate(SEEDS):
        # the parent runs first in pairs 0 and 2, the change in pair 1
        parent_first = k % 2 == 0
        for workload in WORKLOADS:
            _write(parent, workload, seed, 100.0 + k, 1000 + 10 * k + (0 if parent_first else 5))
            _write(change, workload, seed, 120.0 - k, 1000 + 10 * k + (5 if parent_first else 0))
    return {"parent": parent, "change": change}


def test_summary_layout_medians_wins_and_order(tmp_path):
    checkouts = _checkouts(tmp_path)
    log = tmp_path / "tier1.log"
    log.write_text(
        "7.50s call     tests/test_acceptance.py::test_criterion_8_homomorphism_laws\n"
        "=== 435 passed in 38.64s ===\n"
    )
    commits = {"parent": "a" * 40, "change": "b" * 40}
    result = bench_pairs.summarise(checkouts, commits, SEEDS, (log, log), "Claims a gain.")
    assert result["commits"] == commits and result["seeds"] == SEEDS
    assert result["first"] == ["parent", "change", "parent"]
    assert result["about"].endswith("Claims a gain.")
    assert result["environment"] == {key: ENV[key] for key in bench_pairs.ENVIRONMENT}
    assert list(result["workloads"]) == WORKLOADS
    ops = result["workloads"][WORKLOADS[0]]["ops_per_s"]
    assert ops["parent"] == {"median": 101.0, "q1": 100.5, "q3": 101.5, "runs": [100.0, 101.0, 102.0]}
    assert ops["change"]["median"] == 119.0 and ops["wins"] == 3
    assert ops["change_vs_parent_median"] == pytest.approx(119 / 101 - 1)
    assert (ops["unit"], ops["better"], ops["bound"]) == ("1/s", "higher", 0.15)
    p50 = result["workloads"][WORKLOADS[0]]["latency_p50_ms"]
    assert p50["wins"] == 3 and p50["better"] == "lower"
    assert result["workloads"][WORKLOADS[0]]["setup_s"]["wins"] == 0  # ties count for neither
    assert result["workloads"][WORKLOADS[0]]["failed"] == {"parent": [0] * 3, "change": [0] * 3}
    assert result["tier1_durations_s"]["change"] == {
        "test_criterion_8_homomorphism_laws": 7.5, "suite_passed": 435, "suite_s": 38.64
    }


def test_refusals(tmp_path, capsys):
    checkouts = _checkouts(tmp_path)
    commits = {"parent": "a", "change": "b"}
    _write(checkouts["change"], WORKLOADS[1], SEEDS[0], 100.0, 0, seconds=12.0)
    with pytest.raises(bench_pairs.Refused, match="different interpreters"):
        bench_pairs.summarise(checkouts, commits, SEEDS, None, "")
    with pytest.raises(bench_pairs.Refused, match="missing record"):
        bench_pairs.summarise(checkouts, commits, SEEDS + [14], None, "")
    existing = tmp_path / "BENCH_1.json"
    existing.write_text("{}")
    argv = [str(checkouts["parent"]), str(checkouts["change"]), str(existing), "--seeds", "11"]
    assert bench_pairs.main(argv) == 2
    assert existing.read_text() == "{}"
    assert "exists" in capsys.readouterr().err


def _tier1_log(path, passed, seconds, slowest):
    path.write_text(
        f"{slowest:.2f}s call     tests/test_acceptance.py::test_criterion_8_homomorphism_laws\n"
        f"=== {passed} passed in {seconds:.2f}s ===\n"
    )
    return path


def test_tier1_takes_alternated_logs_per_side(tmp_path, monkeypatch):
    checkouts = _checkouts(tmp_path)
    commits = {"parent": "a" * 40, "change": "b" * 40}
    # parent, change, parent, change, parent, change
    times = [(60.0, 7.0), (55.0, 6.0), (64.0, 8.0), (54.0, 6.5), (61.0, 7.5), (58.0, 5.0)]
    logs = [
        _tier1_log(tmp_path / f"tier1-{k}.log", 700, suite, slowest)
        for k, (suite, slowest) in enumerate(times)
    ]
    result = bench_pairs.summarise(checkouts, commits, SEEDS, logs, "")
    tier1 = result["tier1_durations_s"]
    assert tier1["parent"] == {
        "test_criterion_8_homomorphism_laws": 7.5, "suite_passed": 700, "suite_s": 61.0
    }
    assert tier1["change"]["test_criterion_8_homomorphism_laws"] == 6.0
    assert tier1["suite_s"]["parent"] == {
        "median": 61.0, "min": 60.0, "max": 64.0, "runs": [60.0, 64.0, 61.0]
    }
    assert tier1["suite_s"]["change"] == {
        "median": 55.0, "min": 54.0, "max": 58.0, "runs": [55.0, 54.0, 58.0]
    }
    assert tier1["suite_s"]["change_vs_parent_median"] == pytest.approx(55 / 61 - 1)
    assert "3 alternated log(s)" in tier1["about"]
    with pytest.raises(bench_pairs.Refused, match="pairs of logs"):
        bench_pairs.summarise(checkouts, commits, SEEDS, logs[:3], "")
    logs[2] = _tier1_log(tmp_path / "short.log", 699, 50.0, 7.0)
    with pytest.raises(bench_pairs.Refused, match="differ in passed count"):
        bench_pairs.summarise(checkouts, commits, SEEDS, logs, "")
    # the command line takes the logs as one list
    monkeypatch.setattr(bench_pairs, "_commit", lambda checkout: "c" * 40)
    out = tmp_path / "BENCH_2.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), str(out), "--seeds", *map(str, SEEDS)]
    assert bench_pairs.main([*argv, "--tier1", *map(str, logs[:2] + logs[4:])]) == 0
    assert json.loads(out.read_text())["tier1_durations_s"]["suite_s"]["parent"]["runs"] == [
        60.0, 61.0
    ]
