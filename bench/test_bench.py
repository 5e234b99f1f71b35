"""Self-tests of the benchmark harness, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

They run the benchmark itself in ``--tiny`` mode (minimal set-up, warm-up and
sweeps, one-second loops), so they take well under a minute.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clijobs  # noqa: E402
import families  # noqa: E402
import harness  # noqa: E402
import search  # noqa: E402
import symbolic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout.decode()[-2000:] + proc.stderr.decode()[-2000:]
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if trace == 0:
            assert metric["value"] > 0, name


def test_seed_changes_random_inputs_but_not_the_families():
    # the exhaustive families are built without a seed
    state = symbolic.setup()
    assert len(state.family) == 2532
    assert symbolic.op_inputs(state, 1, random.Random(1)) == symbolic.op_inputs(state, 1, random.Random(1))
    assert symbolic.op_inputs(state, 1, random.Random(1)) != symbolic.op_inputs(state, 1, random.Random(2))

    state = search.setup()
    assert len(state.arch) == 9590 and len(state.desc) == 1643
    space = search.random_space(random.Random(1), 0)["source"]
    assert space == search.random_space(random.Random(1), 0)["source"]
    assert space != search.random_space(random.Random(2), 0)["source"]

    def order(seed):
        return list(itertools.islice(families.chunk_order(2532, 16, random.Random(seed)), 159))

    assert order(1) != order(2)
    assert sorted(order(1)) == sorted(order(2)) == list(range(159))

    state = clijobs.State(clijobs.load_jobs())

    def jobs(seed):
        return [job.name for job in itertools.islice(clijobs.job_order(state, random.Random(seed)), 28)]

    assert jobs(1) != jobs(2) and sorted(jobs(1)) == sorted(jobs(2))


def test_outcomes_of_the_families_do_not_depend_on_the_seed():
    state = symbolic.setup()
    tracer = harness.Tracer()
    outcomes = set()
    for seed in (1, 2):
        task = symbolic.make_task(state, 1, random.Random(seed))
        outcomes.add(task.check(task.fn(tracer)))
    assert len(outcomes) == 1


def _first_chunk(state) -> harness.LoopResult:
    return harness.run_loop(
        symbolic.record_rounds(state), math.inf, harness.Tracer(), False, max_rounds=symbolic.CHUNK
    )


def test_wrong_expected_digest_counts_as_failure():
    state = symbolic.setup()
    recorded = harness.load_digests()[symbolic.FAMILY]
    res = _first_chunk(state)
    assert harness.check_chunks(res, {symbolic.FAMILY: recorded}) == 1
    assert not res.failed

    wrong = dict(recorded, digests=["0" * 16, *recorded["digests"][1:]])
    res = _first_chunk(state)
    assert harness.check_chunks(res, {symbolic.FAMILY: wrong}) == 1
    assert res.failed == set(range(symbolic.CHUNK))

    job = clijobs.load_jobs()[0]
    job.report_sha256 = "0" * 64
    cli_state = clijobs.State([job])
    res = harness.run_loop(iter([[clijobs.job_task(cli_state, job)]]), math.inf, harness.Tracer(), False)
    assert res.attempted == 1 and res.failed == {0}


def test_refuses_to_run_without_the_library():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for workload in WORKLOADS:
            proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            assert proc.returncode != 0
            assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
