"""Summarise paired benchmark runs of a parent and a change into one ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT BENCH_10.json \\
        --seeds 9101 9102 ... [--tier1 PARENT_LOG CHANGE_LOG ...] [--note TEXT]

Each checkout must hold, for every seed and every workload that
``BENCHMARK.json`` lists, the record ``bench/out/<workload>-seed<seed>-trace0.json``
that ``python3 bench/run.py --workload all --seed <seed>`` wrote there.  Pair
``k`` is the two runs on ``seeds[k]``.  For each workload and end-to-end
metric the output holds both sides' median, quartiles
(``statistics.quantiles(method='inclusive')``) and every run, the change's
relative median difference, and ``wins``: the pairs in which the change is
better in the metric's direction.  It also records the failed and attempted
op counts per run, which side ran first in each pair (by record mtime), the
environment and both commits.  ``--tier1`` takes ``pytest --durations`` logs
of the Tier-1 command as pairs, parent log then change log, one pair per
alternated run; it adds each side's median time of the slowest tests, its
passed count and the suite's median, range and every run, and the change's
relative median difference.

Refused, with exit code 2: an existing output file (records are never
overwritten), a missing record, a traced record, records whose
interpreter, platform or run length differ, an odd number of Tier-1 logs, or
Tier-1 logs of one side with different passed counts.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ENVIRONMENT = ("python", "implementation", "cpu_model", "nproc", "platform")
SIDES = ("parent", "change")
_DURATION = re.compile(r"^([\d.]+)s call\s+\S+::(\S+)\s*$")
_SUMMARY = re.compile(r"(\d+) passed.* in ([\d.]+)s")


class Refused(Exception):
    pass


def _commit(checkout: Path) -> str:
    proc = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise Refused(f"{checkout} is not a git checkout: {proc.stderr.strip()}")
    return proc.stdout.strip()


def _record(checkout: Path, workload: str, seed: int) -> tuple[dict, float]:
    path = checkout / "bench" / "out" / f"{workload}-seed{seed}-trace0.json"
    if not path.is_file():
        raise Refused(f"missing record {path}")
    record = json.loads(path.read_text())
    if record["environment"]["trace"] != 0:
        raise Refused(f"{path} is a traced run")
    return record, path.stat().st_mtime


def _spread(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def _tier1_log(log: Path) -> tuple[dict[str, float], int, float]:
    """The listed test durations, the passed count and the suite time of one log."""
    text = log.read_text()
    durations = {}
    for line in text.splitlines():
        match = _DURATION.match(line)
        if match:
            durations[match.group(2)] = float(match.group(1))
    summary = _SUMMARY.findall(text)
    if not summary:
        raise Refused(f"{log} has no pytest summary line")
    passed, seconds = summary[-1]
    return durations, int(passed), float(seconds)


def _tier1(logs: list[Path]) -> tuple[dict, dict]:
    """One side's Tier-1 logs: the median of each listed test over the logs that
    list it, the passed count and the suite's median seconds; then the suite's
    median, range and every run."""
    parsed = [_tier1_log(log) for log in logs]
    if len({passed for _, passed, _ in parsed}) != 1:
        raise Refused(f"the Tier-1 logs {', '.join(map(str, logs))} differ in passed count")
    tests: dict[str, list[float]] = {}
    for durations, _, _ in parsed:
        for name, seconds in durations.items():
            tests.setdefault(name, []).append(seconds)
    out: dict = {name: statistics.median(runs) for name, runs in tests.items()}
    runs = [seconds for _, _, seconds in parsed]
    out["suite_passed"] = parsed[0][1]
    out["suite_s"] = statistics.median(runs)
    return out, {"median": out["suite_s"], "min": min(runs), "max": max(runs), "runs": runs}


def summarise(
    checkouts: dict[str, Path],
    commits: dict[str, str],
    seeds: list[int],
    tier1: list[Path] | None,
    note: str,
) -> dict:
    """The ``BENCH_<n>.json`` object for the records under ``checkouts[side]/bench/out``."""
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    records = {
        side: {w: [_record(checkouts[side], w, seed) for seed in seeds] for w in workloads}
        for side in SIDES
    }
    runs = {side: {w: [r for r, _ in records[side][w]] for w in workloads} for side in SIDES}
    settings = {
        json.dumps([r["environment"][key] for key in (*ENVIRONMENT, "seconds")])
        for side in SIDES
        for w in workloads
        for r in runs[side][w]
    }
    if len(settings) != 1:
        raise Refused("the records come from different interpreters, machines or run lengths")
    env = runs["parent"][workloads[0]][0]["environment"]
    # a pair's first side is the one whose first workload record was written first
    mtimes = {side: [m for _, m in records[side][workloads[0]]] for side in SIDES}
    first = ["parent" if p <= c else "change" for p, c in zip(mtimes["parent"], mtimes["change"])]
    out_workloads = {}
    for w in workloads:
        entry: dict = {
            "failed": {side: [r["failed"] for r in runs[side][w]] for side in SIDES},
            "attempted": {side: [r["attempted"] for r in runs[side][w]] for side in SIDES},
        }
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {side: [r["metrics"][name]["value"] for r in runs[side][w]] for side in SIDES}
            parent, change = _spread(values["parent"]), _spread(values["change"])
            entry[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": parent,
                "change": change,
                "change_vs_parent_median": change["median"] / parent["median"] - 1,
                "wins": sum(
                    (c > p) if higher else (c < p)
                    for p, c in zip(values["parent"], values["change"])
                ),
            }
        out_workloads[w] = entry
    about = (
        f"Paired runs of `python3 bench/run.py --workload all --seconds {env['seconds']:g}` "
        "on the parent and the change, one pair per seed; `first` names the side that ran "
        "first in each pair. Quartiles use statistics.quantiles(method='inclusive'); `wins` "
        "counts pairs where the change is better in the metric's direction."
    )
    result = {
        "about": f"{about} {note}".strip(),
        "commits": commits,
        "seeds": seeds,
        "first": first,
        "environment": {key: env[key] for key in ENVIRONMENT},
        "workloads": out_workloads,
    }
    if tier1:
        if len(tier1) % 2:
            raise Refused("--tier1 takes pairs of logs, parent then change")
        logs = {side: [Path(log) for log in tier1[k::2]] for k, side in enumerate(SIDES)}
        tests, suite = zip(*(_tier1(logs[side]) for side in SIDES))
        result["tier1_durations_s"] = {
            "about": (
                "pytest --durations of the Tier-1 command: per side, the median of each "
                f"listed test over {len(logs['parent'])} alternated log(s); suite_s holds "
                "each side's median, range and runs."
            ),
            **dict(zip(SIDES, tests)),
            "suite_s": {
                **dict(zip(SIDES, suite)),
                "change_vs_parent_median": suite[1]["median"] / suite[0]["median"] - 1,
            },
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("out", type=Path, help="BENCH_<n>.json to write; must not exist")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument(
        "--tier1",
        nargs="+",
        metavar="LOG",
        help="pytest --durations logs in alternated pairs: PARENT_LOG CHANGE_LOG ...",
    )
    parser.add_argument("--note", default="", help="text appended to the about field")
    args = parser.parse_args(argv)
    try:
        if args.out.exists():
            raise Refused(f"{args.out} exists; write a new BENCH_<n>.json instead")
        if len(set(args.seeds)) != len(args.seeds):
            raise Refused("seeds repeat")
        checkouts = {"parent": args.parent, "change": args.change}
        commits = {side: _commit(root) for side, root in checkouts.items()}
        result = summarise(checkouts, commits, args.seeds, args.tier1, args.note)
    except Refused as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 2
    with args.out.open("x") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
