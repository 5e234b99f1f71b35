"""cli-jobs: one child interpreter per JSON job, run one at a time.

The job pool in ``jobs.json`` is fixed: three jobs for each of the eight
commands (some of them verdict failures that exit 1) and one heavy job, a
six-parameter ``enumerate-refinements``.  A deck is the 24 jobs plus four
copies of the heavy one; the seed shuffles each deck.  Every child's exit
code, ``input_sha256`` and report bytes are checked against the pool.

The pool stays off paths that planned clean-ups will change: no
``p_places``/``tracked`` config keys, no decimal or ``_`` coefficient tokens,
and no error reports.

Children import the library from this checkout's ``src`` through
``PYTHONPATH`` and run the same two lines as the ``eigentransfer`` console
script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from typing import Iterator

from harness import (
    BENCH_DIR,
    NOMINAL_REFERENCE_S,
    ROOT,
    Task,
    Tracer,
    child_env,
    expect,
    perf,
    reference_seconds,
)

JOBS = BENCH_DIR / "jobs.json"
HEAVY_COPIES = 4
CLI_ARGV = [sys.executable, "-c", "import sys\nfrom eigentransfer.cli import main\nsys.exit(main())"]
IMPORT_ARGV = [
    sys.executable,
    "-c",
    "import time\nt = time.perf_counter()\nimport eigentransfer.cli\n"
    "print((time.perf_counter() - t) * 1000)",
]
STARTUP_ARGV = [sys.executable, "-c", "pass"]
PROBE_ARGV = [sys.executable, "-S", "-c", "pass"]
NOMINAL_PROBE_S = 0.015
PROBE_PERIOD = 0.25
PROBES_PER_FACTOR = 3  # a single launch is sometimes disturbed
COMMANDS = (
    "transfer-weight",
    "transfer-refinement",
    "check-hypothesis1",
    "enumerate-refinements",
    "check-accessible-transfer",
    "transfer-point",
    "check-diagram",
    "check-interpolation",
)
LAYERS = [
    "jsonio.decode",
    "jsonio.encode",
    "monomial.parse",
    "monomial.text",
    *(f"cli.main.{command}" for command in COMMANDS),
]


class Job:
    def __init__(self, entry: dict):
        self.name: str = entry["name"]
        self.raw: bytes = entry["job"].encode()
        self.command: str = json.loads(self.raw)["command"]
        self.exit_code: int = entry["exit_code"]
        self.report_sha256: str = entry["report_sha256"]
        self.heavy: bool = entry.get("heavy", False)


class State:
    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.env = child_env()
        self.max_rss_kib = 0


def load_jobs() -> list[Job]:
    return [Job(entry) for entry in json.loads(JOBS.read_text())]


def warm_bytecode() -> None:
    """Write the library's bytecode caches, so children do not compile from source."""
    import compileall

    compileall.compile_dir(str(ROOT / "src"), quiet=1)


def setup() -> State:
    warm_bytecode()
    return State(load_jobs())


def run_child(argv: list[str], raw: bytes, env: dict) -> tuple[int, bytes, bytes, int]:
    """Run one child to completion; return exit code, stdout, stderr, peak RSS in KiB."""
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        proc.stdin.write(raw)
        proc.stdin.close()
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out, err, usage.ru_maxrss


def check_report(job: Job, code: int, out: bytes) -> None:
    expect(code == job.exit_code, f"{job.name}: exit code {code}, expected {job.exit_code}")
    report = json.loads(out)
    expect(
        report.get("input_sha256") == hashlib.sha256(job.raw).hexdigest(),
        f"{job.name}: input_sha256 does not echo the job bytes",
    )
    expect(
        hashlib.sha256(out).hexdigest() == job.report_sha256,
        f"{job.name}: report bytes differ from the recorded digest",
    )


# ---------------------------------------------------------------------------
# in-process replay: the layers a CLI job goes through, called one by one


MONOMIAL_KEYS = {"character", "up", "satake", "gamma"}


def _monomial_strings(obj, inside: bool = False) -> Iterator[str]:
    """Every string of a payload that sits under a key holding monomials."""
    if isinstance(obj, str):
        if inside:
            yield obj
    elif isinstance(obj, list):
        for item in obj:
            yield from _monomial_strings(item, inside)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _monomial_strings(value, inside or key in MONOMIAL_KEYS)


def _decode(sp, command: str, payload: dict) -> list:
    """Decode a payload with the public ``jsonio`` decoders; return what can be encoded."""
    from eigentransfer import jsonio

    def dec(fn, *args):
        with sp("jsonio.decode"):
            return fn(*args)

    encodable: list = []
    if command == "transfer-weight":
        shape = dec(jsonio.decode_shape, payload["shape"], "shape")
        dec(jsonio.decode_rational, payload["alpha"], "alpha")
        encodable.append(dec(jsonio.decode_weight, payload["weight"], shape, "weight"))
        return encodable
    if command == "enumerate-refinements":
        dec(jsonio.decode_descriptor, payload["descriptor"])
        return encodable
    cfg = dec(jsonio.decode_config, payload["config"])
    encodable.append(cfg.sigma)
    if command == "transfer-refinement":
        encodable.append(dec(jsonio.decode_character, payload["character"], cfg.source))
    elif command == "check-accessible-transfer":
        dec(jsonio.decode_descriptor, payload["descriptor"])
    elif command == "transfer-point":
        encodable.append(dec(jsonio.decode_point, payload["point"], cfg.source))
    elif command == "check-diagram":
        for obj in payload["source_points"]:
            encodable.append(dec(jsonio.decode_point, obj, cfg.source))
        for obj in payload["target_points"]:
            encodable.append(dec(jsonio.decode_point, obj, cfg.target))
    elif command == "check-interpolation":
        for key, shape in (("source_space", cfg.source), ("target_space", cfg.target)):
            space = dec(jsonio.decode_space, payload[key], shape, key)
            encodable.extend(point for point, _ in space.entries)
        for obj in payload["generators"]:
            dec(jsonio.decode_factors, obj)
        for obj in payload["assignments"]:
            dec(jsonio.decode_assignment, obj)
    return encodable


def _encode(sp, encodable: list) -> list:
    from eigentransfer import AlgebraicWeight, ClassicalPoint, UnramifiedCharacter, jsonio

    out = []
    for obj in encodable:
        with sp("jsonio.encode"):
            if isinstance(obj, AlgebraicWeight):
                out.append(jsonio.encode_weight(obj))
            elif isinstance(obj, UnramifiedCharacter):
                out.append(jsonio.encode_character(obj))
            elif isinstance(obj, ClassicalPoint):
                out.append(jsonio.encode_point(obj))
            else:
                out.append(jsonio.encode_sigma(obj))
    return out


def replay(tr: Tracer, job: Job) -> None:
    """Decode, parse, print, encode and run the job in this process, and check it."""
    from eigentransfer import Monomial
    from eigentransfer.cli import main

    sp = tr.span
    payload = json.loads(job.raw)["payload"]
    _encode(sp, _decode(sp, job.command, payload))
    for text in _monomial_strings(payload):
        with sp("monomial.parse"):
            value = Monomial.parse(text)
        with sp("monomial.text"):
            canonical = value.text()
        expect(Monomial.parse(canonical) == value, f"{job.name}: text does not round-trip")
    buffer = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(job.raw))
    try:
        with contextlib.redirect_stdout(buffer), sp("cli.main." + job.command):
            code = main([])
    finally:
        sys.stdin = saved
    check_report(job, code, buffer.getvalue().encode())


# ---------------------------------------------------------------------------


def job_task(state: State, job: Job) -> Task:
    def fn(tr):
        code, out, err, rss = run_child(CLI_ARGV, job.raw, state.env)
        state.max_rss_kib = max(state.max_rss_kib, rss)
        return code, out, err

    def check(result) -> str:
        code, out, err = result
        expect(not err, f"{job.name}: child wrote to stderr: {err[-300:]!r}")
        check_report(job, code, out)
        return job.name

    return Task("job", fn, check, extra=lambda tr: replay(tr, job))


def deck(state: State) -> list[Job]:
    heavy = [job for job in state.jobs if job.heavy]
    return [job for job in state.jobs if not job.heavy] + heavy * HEAVY_COPIES


def job_order(state: State, rng: random.Random) -> Iterator[Job]:
    cards = deck(state)
    while True:
        rng.shuffle(cards)
        yield from cards


def rounds(state: State, rng: random.Random) -> Iterator[list]:
    for job in job_order(state, rng):
        yield [job_task(state, job)]


def replay_tasks(state: State) -> list[list]:
    """Each distinct job once, in process (the layer sweep of other workloads)."""

    def task(job: Job) -> Task:
        return Task("replay", lambda tr: replay(tr, job), lambda _result: None)

    return [[task(job)] for job in state.jobs]


def startup_metrics(env: dict, reps: int) -> dict[str, float]:
    """Median interpreter start-up (``python -c pass``) and in-child import of the CLI, in ms.

    Calibrated like the jobs, by speed probes taken before and after.
    """
    before = speed_probe(env)
    startup, imports = [], []
    for _ in range(reps):
        t0 = perf()
        code, _out, _err, _rss = run_child(STARTUP_ARGV, b"", env)
        startup.append((perf() - t0) * 1000.0)
        expect(code == 0, "python -c pass failed")
        code, out, err, _rss = run_child(IMPORT_ARGV, b"", env)
        expect(code == 0, f"importing eigentransfer.cli failed: {err[-300:]!r}")
        imports.append(float(out))
    factor = statistics.mean((before, speed_probe(env)))
    return {
        "cli.import_ms": statistics.median(imports) * factor,
        "env.python_startup_ms": statistics.median(startup) * factor,
    }


def speed_probe(env: dict) -> float:
    """Speed factor for child jobs: geometric mean of two probes that never import the library.

    One launches a bare interpreter (``python -S -c pass``), which follows
    process creation and interpreter start; the other is the in-process
    reference work, which follows bytecode speed.  A job spends its time in
    both kinds of work.
    """
    t0 = perf()
    run_child(PROBE_ARGV, b"", env)
    launch = NOMINAL_PROBE_S / (perf() - t0)
    return math.sqrt(launch * NOMINAL_REFERENCE_S / reference_seconds())


def warm_up(state: State, count: int) -> None:
    for job in state.jobs[:count]:
        code, out, _err, _rss = run_child(CLI_ARGV, job.raw, state.env)
        check_report(job, code, out)


# ---------------------------------------------------------------------------
# building the pool (maintenance: ``run.py --record`` rewrites jobs.json)


def _job(command: str, payload: dict) -> str:
    return json.dumps({"schema_version": "1", "command": command, "payload": payload}, sort_keys=True)


def build_pool() -> list[tuple[str, str, bool]]:
    """(name, job text, heavy) for every job; matched targets are computed by the library."""
    from eigentransfer import build_transferred_space, jsonio, transfer_point

    def cfg(blocks, sigma, alpha):
        return {"blocks": blocks, "sigma": sigma, "alpha": alpha}

    def matched(config: dict, point: dict) -> dict:
        decoded = jsonio.decode_config(config)
        source = jsonio.decode_point(point, decoded.source)
        return jsonio.encode_point(transfer_point(source, decoded))

    def transferred_space(config: dict, space: dict) -> dict:
        decoded = jsonio.decode_config(config)
        moved = build_transferred_space(jsonio.decode_space(space, decoded.source), decoded)
        return {
            "weight": jsonio.encode_weight(moved.weight),
            "entries": [{"point": jsonio.encode_point(p), "mult": m} for p, m in moved.entries],
        }

    jobs: list[tuple[str, str, bool]] = []

    def add(name, command, payload, heavy=False):
        jobs.append((name, _job(command, payload), heavy))

    add("transfer-weight-1", "transfer-weight", {"shape": [1, 2], "alpha": "1/2", "weight": [[3], [1, 0]]})
    add("transfer-weight-2", "transfer-weight", {"shape": [1, 2], "alpha": "1/2", "weight": [[0], [3, 1]]})
    add("transfer-weight-3", "transfer-weight", {"shape": [2, 2], "alpha": "-3/2", "weight": [[3, 0], [1, -2]]})

    add("transfer-refinement-1", "transfer-refinement",
        {"config": cfg([1, 1], [1, 2], "1/2"), "character": ["1 * c1", "1 * c2"]})
    add("transfer-refinement-2", "transfer-refinement",
        {"config": cfg([2, 3], [1, 3, 2, 4, 5], "1/2"),
         "character": ["3/2 * a * q^(1/2)", "-2 * b^2", "1 * W * c", "5 * d^-1", "1/3 * e"]})
    add("transfer-refinement-3", "transfer-refinement",
        {"config": cfg([1, 2, 2], [3, 1, 4, 2, 5], "3/2"),
         "character": ["1 * x1", "2 * x2 * q^(-3/2)", "-1 * x3", "7/5 * x4^3", "1 * x5 * W^-1"]})

    add("check-hypothesis1-1", "check-hypothesis1", {"config": cfg([2, 3], [1, 3, 2, 4, 5], "1/2")})
    add("check-hypothesis1-2", "check-hypothesis1", {"config": cfg([1, 1, 1], [3, 1, 2], "-1/2")})
    add("check-hypothesis1-3", "check-hypothesis1",
        {"config": cfg([4], [1, 2, 3, 4], "3/2"), "drop_normalization": True})

    add("enumerate-refinements-1", "enumerate-refinements",
        {"descriptor": {"blocks": [[{"gamma": "1 * g", "d": 2}]]}})
    add("enumerate-refinements-2", "enumerate-refinements",
        {"descriptor": {"blocks": [[{"gamma": "1 * a", "d": 1}, {"gamma": "2 * b", "d": 2}],
                                   [{"gamma": "1 * c", "d": 1}]]}})
    add("enumerate-refinements-3", "enumerate-refinements",
        {"descriptor": {"blocks": [[{"gamma": "1 * a", "d": 1}, {"gamma": "1 * b", "d": 1},
                                    {"gamma": "1 * c", "d": 1}]]}})
    add("enumerate-refinements-heavy", "enumerate-refinements",
        {"descriptor": {"blocks": [[{"gamma": f"1 * s{k}", "d": 1} for k in range(1, 7)]]}},
        heavy=True)

    add("check-accessible-transfer-1", "check-accessible-transfer",
        {"config": cfg([1, 2], [3, 1, 2], "1/2"),
         "descriptor": {"blocks": [[{"gamma": "1 * a", "d": 1}], [{"gamma": "1 * g", "d": 2}]]}})
    add("check-accessible-transfer-2", "check-accessible-transfer",
        {"config": cfg([2, 3], [1, 3, 2, 4, 5], "1/2"),
         "descriptor": {"blocks": [[{"gamma": "1 * a", "d": 2}],
                                   [{"gamma": "1 * b", "d": 1}, {"gamma": "1 * c", "d": 2}]]}})
    add("check-accessible-transfer-3", "check-accessible-transfer",
        {"config": cfg([1, 1, 2], [4, 1, 2, 3], "-1/2"),
         "descriptor": {"blocks": [[{"gamma": "1 * a", "d": 1}], [{"gamma": "1 * b", "d": 1}],
                                   [{"gamma": "1 * c", "d": 1}, {"gamma": "3 * e", "d": 1}]]}})

    points = [
        (cfg([1, 1], [1, 2], "1/2"),
         {"weight": [[2], [0]], "up": {"p": ["1 * c1", "1 * c2"]}, "satake": {"v": [["1 * s1"], ["1 * s2"]]}}),
        (cfg([2, 3], [2, 4, 1, 3, 5], "1/2"),
         {"weight": [[3, 1], [2, 2, 0]],
          "up": {"p": ["1 * a", "2 * b * q^(1/2)", "1 * c", "-1 * d", "1/2 * e^2"]},
          "satake": {"v": [["1 * s1", "3 * s2"], ["1 * t1", "1 * t2 * q", "2 * t3"]]}}),
        (cfg([1, 2], [2, 1, 3], "-1/2"),
         {"weight": [[1], [0, -1]], "up": {"p": ["1 * x", "1 * y", "1 * z"]},
          "satake": {"v": [["1 * u"], ["1 * v", "5 * w"]]}}),
    ]
    for k, (config, point) in enumerate(points, 1):
        add(f"transfer-point-{k}", "transfer-point", {"config": config, "point": point})

    config, point = points[0]
    add("check-diagram-1", "check-diagram",
        {"config": config, "source_points": [point], "target_points": [matched(config, point)]})
    add("check-diagram-2-fail", "check-diagram",
        {"config": config, "source_points": [point], "target_points": [{"weight": [[9, 9]]}]})
    config, point = points[1]
    other = {"weight": [[3, 1], [2, 2, 0]],
             "up": {"p": ["1 * f", "1 * g", "1 * h", "1 * i", "1 * j"]},
             "satake": {"v": [["1 * s1", "1 * s2"], ["1 * t1", "1 * t2", "1 * t3"]]}}
    add("check-diagram-3", "check-diagram",
        {"config": config, "source_points": [point, other],
         "target_points": [matched(config, other), matched(config, point)]})

    config = cfg([1, 2], [1, 2, 3], "1/2")
    source = {
        "weight": [[3], [1, 0]],
        "entries": [
            {"point": {"weight": [[3], [1, 0]], "up": {"p": ["1 * a", "1 * g", "1 * h"]},
                       "satake": {"v": [["1 * a"], ["1 * g", "1 * h"]]}}, "mult": 3},
            {"point": {"weight": [[3], [1, 0]], "up": {"p": ["1 * a", "1 * h", "1 * g"]},
                       "satake": {"v": [["1 * a"], ["1 * g", "1 * h"]]}}, "mult": 2},
        ],
    }
    target = transferred_space(config, source)
    generators = [
        [{"type": "atkin-lehner", "place": "p", "cochar": [1, 0, 0]}],
        [{"type": "atkin-lehner", "place": "p", "cochar": [1, 1, 0]}, {"type": "spherical", "place": "v", "degree": 2}],
        [{"type": "spherical", "place": "v", "degree": 3}],
    ]
    assignments = [
        {"q": {"value": 4, "sqrt": 2}, "W": {"value": 2}, "M": {"value": 3},
         "a": {"value": 5}, "g": {"value": 7}, "h": {"value": 11}},
        {"q": {"value": "25/4", "sqrt": "5/2"}, "W": {"value": "1/2"}, "M": {"value": 7},
         "a": {"value": "2/3"}, "g": {"value": 3}, "h": {"value": "1/5"}},
    ]
    add("check-interpolation-1", "check-interpolation",
        {"config": config, "source_space": source, "target_space": target, "constant": 3,
         "generators": generators, "assignments": assignments})
    add("check-interpolation-2", "check-interpolation",
        {"config": config, "source_space": source, "target_space": target,
         "packet": {"dim_source": 5, "dims_target": [2, 4]},
         "generators": generators, "assignments": assignments})
    broken = {"weight": target["weight"], "entries": target["entries"][1:]}
    add("check-interpolation-3-fail", "check-interpolation",
        {"config": config, "source_space": source, "target_space": broken, "constant": 1,
         "generators": generators[:1], "assignments": assignments[:1]})
    return jobs


def record_pool(env: dict) -> list[dict]:
    """Run every pool job in a child and write ``jobs.json`` with its exit code and digest."""
    entries = []
    for name, text, heavy in build_pool():
        code, out, err, _rss = run_child(CLI_ARGV, text.encode(), env)
        if err or "error" in json.loads(out):
            raise SystemExit(f"pool job {name} did not produce a report: {out[:300]!r} {err[-300:]!r}")
        entry = {"name": name, "job": text, "exit_code": code,
                 "report_sha256": hashlib.sha256(out).hexdigest()}
        if heavy:
            entry["heavy"] = True
        entries.append(entry)
    JOBS.write_text(json.dumps(entries, indent=1) + "\n")
    return entries
