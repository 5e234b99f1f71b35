"""Benchmark of eigentransfer: three closed-loop workloads, one client, no threads.

    python3 bench/run.py --workload symbolic-verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30      # every workload, one table
    python3 bench/run.py --record                                   # rewrite jobs.json, digests.json

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead.  Every op is checked; the exit code is 1 when any op
failed.  The library is imported from ``src`` next to this directory and the
benchmark refuses to run without it.  See README.md for the metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
from harness import OUT_DIR, SRC, perf  # noqa: E402

WORKLOADS = {
    "symbolic-verify": "symbolic",
    "combinatorial-search": "search",
    "cli-jobs": "clijobs",
}
TAIL_PERCENTILE = {"symbolic-verify": 99, "combinatorial-search": 99, "cli-jobs": 90}
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
SETUP_REPEATS = 7
WARMUP_ROUNDS = {"symbolic-verify": 12, "combinatorial-search": 2, "cli-jobs": 3}
SWEEP_ROUNDS = 3
STARTUP_REPEATS = 5


def fail(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def import_library() -> None:
    """Import eigentransfer from this checkout's ``src``, and only from there."""
    init = SRC / "eigentransfer" / "__init__.py"
    if not init.is_file():
        fail(f"no eigentransfer package at {init}; run from a checkout that has src/")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("eigentransfer")
    if not package.__file__ or Path(package.__file__).resolve() != init.resolve():
        fail(f"eigentransfer was imported from {package.__file__}, not from {init}")


def per_layer_names() -> list[str]:
    names = []
    for module in ("symbolic", "search", "clijobs"):
        names.extend(importlib.import_module(module).LAYERS)
    return names


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in per_layer_names():
        units[name + "_us"] = "us"
        units[name + ".calls_per_op"] = "count"
    units.update(
        {
            "transfer.archimedean_realized_ratio": "ratio",
            "refinements.accessible_ratio": "ratio",
            "cli.import_ms": "ms",
            "env.python_startup_ms": "ms",
            "trace.overhead_pct": "%",
        }
    )
    return units


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, tiny: bool):
    """Import, build inputs and warm up; everything before the first timed op."""
    if workload == "cli-jobs":
        if not (SRC / "eigentransfer" / "__init__.py").is_file():
            fail("no eigentransfer package under src/")
        module = importlib.import_module(WORKLOADS[workload])
        state = module.setup()
        module.warm_up(state, 1 if tiny else WARMUP_ROUNDS[workload])
    else:
        import_library()
        module = importlib.import_module(WORKLOADS[workload])
        state = module.setup()
        warm = harness.run_loop(
            module.rounds(state, random.Random(-1 - seed)),
            math.inf,
            harness.Tracer(),
            False,
            max_rounds=1 if tiny else WARMUP_ROUNDS[workload],
        )
        if warm.failed:
            fail("warm-up failed: " + "; ".join(warm.errors[:3]), 1)
    return module, state


def setup_seconds(workload: str, seed: int, own: float, repeats: int) -> float:
    """Median of this process's set-up and ``repeats - 1`` more in fresh interpreters."""
    samples = [own]
    for _ in range(repeats - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True,
            check=False,
        )
        if proc.returncode != 0:
            fail(f"set-up in a fresh interpreter failed: {proc.stderr.decode()[-500:]}", 1)
        samples.append(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def sweep(workload: str, seed: int, tracer: harness.Tracer, tiny: bool) -> harness.LoopResult:
    """Trace a few ops of the other workloads, so every layer has a measurement."""
    rounds: list = []
    count = 1 if tiny else SWEEP_ROUNDS
    rng = random.Random(seed)
    if workload != "symbolic-verify":
        import_library()
        import symbolic

        rounds += symbolic.sweep_rounds(symbolic.setup(), rng, count)
    if workload != "combinatorial-search":
        import search

        rounds += search.sweep_rounds(search.setup(), rng, count)
    import clijobs

    # every job once in process, so that every command has a measurement
    rounds += clijobs.replay_tasks(clijobs.State(clijobs.load_jobs()))
    return harness.run_sweep(rounds, tracer)


def traced_metrics(workload, module, state, res, tracer, seed, tiny) -> tuple[dict, list[str]]:
    import clijobs
    import search

    traced_ops = sum(res.traced)
    before = harness.reference_seconds()
    swept = sweep(workload, seed, tracer, tiny)
    sweep_factor = harness.NOMINAL_REFERENCE_S / statistics.mean((before, harness.reference_seconds()))
    metrics = harness.layer_metrics(tracer, per_layer_names(), traced_ops, res.factors, sweep_factor)
    metrics.update(search.ratios(res if workload == "combinatorial-search" else swept))
    metrics.update(clijobs.startup_metrics(harness.child_env(), 1 if tiny else STARTUP_REPEATS))
    metrics["trace.overhead_pct"] = harness.trace_overhead_pct(res)
    return metrics, swept.errors


# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    workload, seed = args.workload, args.seed
    t_probe = perf()
    before = harness.reference_seconds()
    t_probe = perf() - t_probe
    module, state = setup(workload, seed, args.tiny)
    # set-up time at nominal machine speed, without the two speed probes
    after = harness.reference_seconds()
    own_setup = (perf() - T0 - 2 * t_probe) * harness.NOMINAL_REFERENCE_S / statistics.mean((before, after))
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    if args.trace:
        import_library()  # the traced run also calls layers in process
    tracer = harness.Tracer()
    calibration = {}
    if workload == "cli-jobs":
        calibration = {
            "speed_probe": lambda: module.speed_probe(state.env),
            "probe_period": module.PROBE_PERIOD,
            "probes_per_factor": module.PROBES_PER_FACTOR,
        }
    res = harness.run_loop(
        module.rounds(state, random.Random(seed)), args.seconds, tracer, bool(args.trace), **calibration
    )
    compared = 0
    if workload != "cli-jobs":
        recorded = harness.load_digests()
        compared = harness.check_chunks(res, {family: recorded[family] for family in module.CHUNKS})

    errors = list(res.errors)
    failed = len(res.failed)
    attempted = res.attempted
    if args.trace:
        metrics, sweep_errors = traced_metrics(workload, module, state, res, tracer, seed, args.tiny)
        errors += sweep_errors
        failed += len(sweep_errors)
        units = per_layer_units()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    else:
        metrics = harness.latency_metrics(res, TAIL_PERCENTILE[workload])
        metrics["ops_per_s"] = harness.ops_per_s(res)
        metrics["setup_s"] = setup_seconds(workload, seed, own_setup, 1 if args.tiny else SETUP_REPEATS)
        if workload == "cli-jobs":
            metrics["peak_rss_mib"] = state.max_rss_kib / 1024.0
        else:
            metrics["peak_rss_mib"] = harness.peak_rss_mib_self()
        units = END_TO_END
    missing = [name for name in units if not math.isfinite(metrics.get(name, math.nan))]
    if missing:
        errors.append("no measurement for " + ", ".join(missing))
        failed += 1
        for name in missing:
            metrics[name] = -1.0

    untraced_ms = [x * 1000.0 for x, traced in zip(harness.calibrated(res), res.traced) if not traced]
    raw_ms = [x * 1000.0 for x, traced in zip(res.latencies, res.traced) if not traced]
    env = harness.environment(
        workload=workload,
        seed=seed,
        seconds=args.seconds,
        trace=args.trace,
        ops=attempted,
        rounds=len(res.round_sizes),
        chunks_compared=compared,
        setup_repeats=1 if args.tiny else SETUP_REPEATS,
        warmup_rounds=1 if args.tiny else WARMUP_ROUNDS[workload],
        tail_percentile=TAIL_PERCENTILE[workload],
        untraced_ops=len(untraced_ms),
        samples_beyond_tail=sum(1 for x in untraced_ms if x > metrics.get("latency_tail_ms", math.inf)),
        speed_factor_quartiles=statistics.quantiles(res.factors, n=4) if len(res.factors) > 1 else res.factors,
        raw_ops_per_s=len(raw_ms) / sum(raw_ms) * 1000.0 if raw_ms else None,
        raw_latency_p50_ms=harness.percentile(raw_ms, 50) if raw_ms else None,
    )
    correct = failed == 0
    record = {
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "errors": errors[:50],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    for line in errors[:10]:
        print("error " + line)
    print(f"fail_ratio {record['fail_ratio']:.6g} ({failed} failed of {attempted} attempted)")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": record["metrics"]}
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, then one table of all metrics."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, capture_output=True, check=False)
        lines = proc.stdout.decode().splitlines()
        if not lines:
            print(f"{workload}: no result (exit {proc.returncode}): {proc.stderr.decode()[-500:]}")
            return 2
        results[workload] = json.loads(lines[-1])
    ok = True
    for workload, result in results.items():
        ok &= result["correct"]
        ratio = result["failed"] / result["attempted"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={ratio:.6g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    return 0 if ok else 1


def record() -> int:
    """Rewrite jobs.json and digests.json from the library at this commit."""
    import_library()
    import clijobs
    import search
    import symbolic

    entries = clijobs.record_pool(harness.child_env())
    print(f"jobs.json: {len(entries)} jobs")
    tables = {}
    for module in (symbolic, search):
        state = module.setup()
        res = harness.run_loop(module.record_rounds(state), math.inf, harness.Tracer(), False)
        if res.failed:
            fail("recording failed: " + "; ".join(res.errors[:5]), 1)
        for family, count in module.family_sizes(state).items():
            size = module.CHUNKS[family]
            chunks = -(-count // size)
            digests = [
                harness.chunk_digest([outcome for _, outcome in res.chunk_outcomes[(family, index)]])
                for index in range(chunks)
            ]
            tables[family] = {"chunk": size, "count": count, "digests": digests}
            print(f"digests.json: {family}: {count} outcomes in {chunks} chunks")
    harness.DIGESTS.write_text(json.dumps(tables, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal set-up, warm-up and sweeps (self-tests)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help="rewrite jobs.json and digests.json")
    args = parser.parse_args()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
