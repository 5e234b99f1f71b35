"""Shared machinery for the benchmark: the closed loop, tracing, statistics, digests.

A workload hands the loop an endless stream of *rounds*.  A round is a list of
tasks; each task is one op: ``fn(tracer)`` makes the library calls (and is
the only timed part), ``check(result)`` verifies the result outside the timed
region and returns the op's outcome string (or ``None`` for ops whose outcome
depends on the seed).  ``tracer.span(name)`` opens a span around one call into
a layer; with tracing off it is a shared no-op, so the untraced loop runs the
same code.

Digests: the seed-independent families are cut into fixed chunks in their
canonical order, and the expected SHA-256 of each chunk's outcomes is recorded
in ``digests.json``.  A run visits chunks in seeded order; every chunk it
completes is compared, and a mismatch marks all ops of that chunk failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator

perf = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"


# ---------------------------------------------------------------------------
# tracing


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.name, tr.op, tr.stack[-1], time.perf_counter_ns(), 0])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][4] = time.perf_counter_ns()
        tr.stack.pop()
        return False


class Tracer:
    """In-memory spans: ``[name, op id, parent span index, start ns, end ns]``.

    Op ids of the main loop count up from 0; ops run outside it (the layer
    sweep) get negative ids, so per-op call counts cover the main loop only.
    """

    def __init__(self) -> None:
        self.on = False
        self.op = 0
        self.spans: list[list] = []
        self.stack: list[int] = [-1]

    def span(self, name: str):
        return _Span(self, name) if self.on else _NULL

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span whose name is only known once the call has returned."""
        if self.on:
            self.spans.append([name, self.op, self.stack[-1], start_ns, end_ns])

    def durations_us(self, factors: list[float], sweep_factor: float) -> dict[str, list[float]]:
        """Span durations by name, scaled by the speed factor of the op they belong to."""
        out: dict[str, list[float]] = {}
        for name, op, _parent, start, end in self.spans:
            factor = factors[op] if op >= 0 else sweep_factor
            out.setdefault(name, []).append((end - start) / 1000.0 * factor)
        return out

    def main_loop_calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, op, _parent, _start, _end in self.spans:
            if op >= 0:
                out[name] = out.get(name, 0) + 1
        return out

    def dump(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], op, parent, start, end - start] for n, op, parent, start, end in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "columns": ["name", "op", "parent", "start_ns", "duration_ns"],
                    "names": names,
                    "spans": rows,
                },
                separators=(",", ":"),
            )
        )


# ---------------------------------------------------------------------------
# the closed loop


class CheckFailed(Exception):
    """An op's result disagrees with the benchmark's oracle."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class Task:
    kind: str
    fn: Callable[[Tracer], Any]
    check: Callable[[Any], str | None]
    chunk: tuple[str, int] | None = None  # (family, chunk index) for digest checks
    # traced rounds only, after the timed op: extra layer calls attributed to the op
    extra: Callable[[Tracer], None] | None = None


# ---------------------------------------------------------------------------
# machine-speed calibration
#
# A shared virtual machine can drift in speed by 10-20% from one second to the
# next, and more between runs (seen on a 2-vCPU Xeon VM under Python 3.11).  The loop therefore runs a fixed piece of
# pure-Python reference work (rationals, dicts, tuples, sorting, formatting;
# it never calls the library) every CALIBRATION_PERIOD seconds, and scales each
# op's time by NOMINAL_REFERENCE_S / (reference time measured around it).
# Reported times are thus in "seconds at nominal speed": on a machine where the
# reference takes exactly NOMINAL_REFERENCE_S they are the raw times.  The raw
# figures and the speed factors are kept in the per-run record.

NOMINAL_REFERENCE_S = 0.001
CALIBRATION_PERIOD = 0.05


def reference_work() -> tuple:
    acc = Fraction(0)
    table: dict[tuple[str, int], int] = {}
    for i in range(1, 181):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(i % 3 + 1, 2)
        key = (f"s{i % 13}", i % 3)
        table[key] = table.get(key, 0) + i
    return acc, tuple(sorted(table.items()))


def reference_seconds(reps: int = 3) -> float:
    """Median time of the reference work: one probe of the machine's current speed."""
    times = []
    for _ in range(reps):
        t0 = perf()
        reference_work()
        times.append(perf() - t0)
    return statistics.median(times)


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)  # seconds, every op
    factors: list[float] = field(default_factory=list)  # speed factor of each op's window
    kinds: list[str] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    round_sizes: list[int] = field(default_factory=list)  # ops in each round
    failed: set[int] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)
    chunk_outcomes: dict[tuple[str, int], list[tuple[int, str]]] = field(default_factory=dict)
    outcomes: list[str | None] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_loop(
    rounds: Iterator[list[Task]],
    seconds: float,
    tracer: Tracer,
    trace: bool,
    max_rounds: int | None = None,
    speed_probe: Callable[[], float] | None = None,
    probe_period: float = CALIBRATION_PERIOD,
    probes_per_factor: int = 2,
) -> LoopResult:
    """Run rounds until the wall-clock budget is spent.

    With ``trace`` on, a fixed pseudo-random half of the rounds is traced (a
    coin rather than alternation, so that it cannot alias with the period of
    a workload's rounds; round 0 is never and round 1 always traced, so even a
    short run has both); the other half measures the same ops untraced.
    ``speed_probe`` returns the machine's current speed factor (1.0 at
    nominal speed); the default times the in-process reference work.  It runs
    every ``probe_period`` seconds, and the ops in between are scaled by the
    median of the last ``probes_per_factor`` probes: the two around them by
    default, or more where single probes are noisy.
    """
    probe = speed_probe or (lambda: NOMINAL_REFERENCE_S / reference_seconds())
    res = LoopResult()
    coin = random.Random(0x7ACE)
    probes = [probe()]
    window_start = 0  # first op measured since the last probe
    next_probe = perf() + probe_period
    deadline = perf() + seconds

    def close_window() -> None:
        nonlocal window_start
        probes.append(probe())
        factor = statistics.median(probes[-probes_per_factor:])
        res.factors.extend([factor] * (res.attempted - window_start))
        window_start = res.attempted

    for r, tasks in enumerate(rounds):
        if perf() >= deadline or (max_rounds is not None and r >= max_rounds):
            break
        if perf() >= next_probe:
            close_window()
            next_probe = perf() + probe_period
        traced = trace and (r == 1 or (r > 1 and coin.random() < 0.5))
        for task in tasks:
            op_id = res.attempted
            tracer.op = op_id
            tracer.on = traced
            result: Any = None
            with tracer.span("op." + task.kind):
                t0 = perf()
                try:
                    result = task.fn(tracer)
                    ok = True
                except Exception as err:  # an op that raises is a failed op, not a crash
                    ok = False
                    res.errors.append(f"{task.kind}: {type(err).__name__}: {err}")
                t1 = perf()
            tracer.on = False
            res.latencies.append(t1 - t0)
            res.kinds.append(task.kind)
            res.traced.append(traced)
            outcome = None
            if ok:
                try:
                    outcome = task.check(result)
                    if traced and task.extra is not None:
                        tracer.on = True
                        task.extra(tracer)
                except Exception as err:
                    ok = False
                    res.errors.append(f"{task.kind} check: {type(err).__name__}: {err}")
                tracer.on = False
            if not ok:
                res.failed.add(op_id)
            res.outcomes.append(outcome)
            if task.chunk is not None:
                res.chunk_outcomes.setdefault(task.chunk, []).append((op_id, outcome or "FAILED"))
        res.round_sizes.append(len(tasks))
    close_window()
    return res


def run_sweep(rounds: list[list[Task]], tracer: Tracer) -> LoopResult:
    """Run and check a few traced ops outside the main loop (negative op ids)."""
    res = LoopResult()
    for tasks in rounds:
        for task in tasks:
            tracer.op = -1 - res.attempted
            tracer.on = True
            t0 = perf()
            outcome = None
            try:
                result = task.fn(tracer)
                outcome = task.check(result)
                if task.extra is not None:
                    task.extra(tracer)
            except Exception as err:
                res.failed.add(res.attempted)
                res.errors.append(f"sweep {task.kind}: {type(err).__name__}: {err}")
            tracer.on = False
            res.latencies.append(perf() - t0)
            res.kinds.append(task.kind)
            res.outcomes.append(outcome)
        res.round_sizes.append(len(tasks))
    return res


def chunk_digest(outcomes: list[str]) -> str:
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]


def check_chunks(res: LoopResult, recorded: dict[str, dict]) -> int:
    """Compare every completed chunk visit with its recorded digest; return visits compared.

    ``recorded[family]`` holds ``chunk`` (size), ``count`` (family size) and
    ``digests``.  A mismatch marks every op of the visit failed.
    """
    compared = 0
    for (family, index), items in res.chunk_outcomes.items():
        table = recorded[family]
        size = min(table["chunk"], table["count"] - index * table["chunk"])
        for start in range(0, len(items) - size + 1, size):
            visit = items[start : start + size]
            compared += 1
            if chunk_digest([outcome for _, outcome in visit]) != table["digests"][index]:
                res.errors.append(f"{family} chunk {index}: outcome digest mismatch")
                res.failed.update(op_id for op_id, _ in visit)
    return compared


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def calibrated(res: LoopResult) -> list[float]:
    """Each op's time in seconds at nominal machine speed."""
    return [latency * factor for latency, factor in zip(res.latencies, res.factors)]


def latency_metrics(res: LoopResult, tail: float) -> dict[str, float]:
    ms = [x * 1000.0 for x, traced in zip(calibrated(res), res.traced) if not traced]
    return {"latency_p50_ms": percentile(ms, 50), "latency_tail_ms": percentile(ms, tail)}


def ops_per_s(res: LoopResult) -> float:
    """Untraced ops completed per second of (calibrated) op time."""
    times = [x for x, traced in zip(calibrated(res), res.traced) if not traced]
    return len(times) / sum(times) if times else float("nan")


def trace_overhead_pct(res: LoopResult) -> float:
    """Traced over untraced median op time, per kind of op, weighted by untraced time share."""
    by_kind: dict[str, tuple[list[float], list[float]]] = {}
    for kind, traced, latency in zip(res.kinds, res.traced, calibrated(res)):
        by_kind.setdefault(kind, ([], []))[traced].append(latency)
    total = sum(sum(plain) for plain, _ in by_kind.values())
    overhead = 0.0
    for plain, traced in by_kind.values():
        if not plain or not traced:
            return float("nan")
        overhead += sum(plain) / total * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return overhead * 100.0


def peak_rss_mib_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(
    tracer: Tracer, names: list[str], traced_ops: int, factors: list[float], sweep_factor: float
) -> dict[str, float]:
    """Median calibrated µs per call, and main-loop calls per traced op, for each layer span."""
    durations = tracer.durations_us(factors, sweep_factor)
    calls = tracer.main_loop_calls()
    out: dict[str, float] = {}
    for name in names:
        values = durations.get(name)
        out[name + "_us"] = statistics.median(values) if values else float("nan")
        out[name + ".calls_per_op"] = calls.get(name, 0) / traced_ops if traced_ops else 0.0
    return out


# ---------------------------------------------------------------------------
# environment and output


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(**extra: Any) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        **extra,
    }


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
