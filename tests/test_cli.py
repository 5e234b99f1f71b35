"""End-to-end tests for the JSON job runner."""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eigentransfer import jsonio, refinements, transfer
from eigentransfer.cli import main


def run_job(tmp_path, capsys, job, pretty=False):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    argv = ["--job", str(path)]
    if pretty:
        argv.append("--pretty")
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def hyp1_job(blocks, sigma, alpha, **extra):
    return {
        "schema_version": "1",
        "command": "check-hypothesis1",
        "payload": {"config": {"blocks": blocks, "sigma": sigma, "alpha": alpha}, **extra},
    }


def test_check_hypothesis1_pass(tmp_path, capsys):
    code, report, _ = run_job(tmp_path, capsys, hyp1_job([1, 1], [1, 2], "1/2"))
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["command"] == "check-hypothesis1"
    assert report["schema_version"] == "1"
    assert [c["name"] for c in report["checks"]] == [
        "shift-integrality",
        "atkin-lehner-factorization",
        "modulus-duality",
    ]
    assert all(c["passed"] for c in report["checks"])


def test_check_hypothesis1_negative_control(tmp_path, capsys):
    job = hyp1_job([1, 1], [1, 2], "1/2", drop_normalization=True)
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 1
    assert report["verdict"] == "fail"
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing[0]["name"] == "atkin-lehner-factorization"
    assert failing[0]["residuals"] == ["t=(1, 0): 1 * q^(-1/2)"]


def test_check_hypothesis1_nonintegral_alpha(tmp_path, capsys):
    code, report, _ = run_job(tmp_path, capsys, hyp1_job([1, 2], [1, 2, 3], 1))
    assert code == 1
    assert report["verdict"] == "fail"


def test_check_hypothesis1_invalid_sigma(tmp_path, capsys):
    code, report, _ = run_job(tmp_path, capsys, hyp1_job([1, 2], [1, 3, 2], "1/2"))
    assert code == 2
    assert report["error"]["type"] == "InvalidSigma"


def test_transfer_weight(tmp_path, capsys):
    job = {
        "schema_version": "1",
        "command": "transfer-weight",
        "payload": {"shape": [1, 1], "alpha": "1/2", "weight": [[0], [5]]},
    }
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 0
    assert report["weight"] == [[5, 1]]
    assert report["sigma"] == [2, 1]
    assert report["realized"] is True


def test_transfer_weight_collision(tmp_path, capsys):
    job = {
        "schema_version": "1",
        "command": "transfer-weight",
        "payload": {"shape": [1, 1], "alpha": "1/2", "weight": [[0], [0]]},
    }
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 1
    assert report["error"]["type"] == "NotRelevant"
    assert "input_sha256" in report


def test_transfer_weight_unrealized(tmp_path, capsys):
    job = {
        "schema_version": "1",
        "command": "transfer-weight",
        "payload": {"shape": [1, 2], "alpha": "1/2", "weight": [[0], [3, 1]]},
    }
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 0
    assert report["weight"] == [[3, 1, 1]]
    assert report["realized"] is False
    assert report["sigma"] == [3, 1, 2]


@pytest.mark.parametrize(
    "payload, code",
    [
        ({"shape": [1, 1], "alpha": "1/2", "weight": [[0], [5]]}, 0),  # realized
        ({"shape": [1, 2], "alpha": "1/2", "weight": [[0], [3, 1]]}, 0),  # unrealized
        ({"shape": [1, 1], "alpha": "1/2", "weight": [[0], [0]]}, 1),  # collision
    ],
)
def test_transfer_weight_runs_the_recipe_once(monkeypatch, tmp_path, capsys, payload, code):
    """One job runs the archimedean recipe once, whether or not a sigma realizes it."""
    calls = []
    real = transfer._archimedean_transfer

    def counted(weight, alpha):
        calls.append(weight)
        return real(weight, alpha)

    monkeypatch.setattr(transfer, "_archimedean_transfer", counted)
    # jsonio binds the recipe itself; without that binding the count fails, not the patch
    monkeypatch.setattr(jsonio, "_archimedean_transfer", counted, raising=False)
    job = {"schema_version": "1", "command": "transfer-weight", "payload": payload}
    assert run_job(tmp_path, capsys, job)[0] == code
    assert len(calls) == 1


def test_transfer_refinement(tmp_path, capsys):
    job = {
        "schema_version": "1",
        "command": "transfer-refinement",
        "payload": {
            "config": {"blocks": [1, 1], "sigma": [1, 2], "alpha": "1/2"},
            "character": ["1 * c1", "1 * c2"],
        },
    }
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 0
    assert report["refinement"] == ["1 * M * c1", "1 * M * c2"]
    assert report["refinement_normalized"] == [
        "1 * M * c1 * q^(1/2)",
        "1 * M * c2 * q^(-1/2)",
    ]
    assert report["atkin_lehner"] == [
        "1 * M * c1 * q^(1/2)",
        "1 * M * W * c2 * q^(-1/2)",
    ]


def test_enumerate_refinements_steinberg(tmp_path, capsys):
    job = {
        "schema_version": "1",
        "command": "enumerate-refinements",
        "payload": {"descriptor": {"blocks": [[{"gamma": "1 * g", "d": 2}]]}},
    }
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 0
    assert report["counts"] == {"total": 2, "accessible": 1, "formula": 1}
    assert len(report["refinements"]) == 2
    assert sorted(report["accessible"]) == [False, True]


def test_check_accessible_transfer(tmp_path, capsys):
    job = {
        "schema_version": "1",
        "command": "check-accessible-transfer",
        "payload": {
            "config": {"blocks": [1, 2], "sigma": [3, 1, 2], "alpha": "1/2"},
            "descriptor": {
                "blocks": [[{"gamma": "1 * a", "d": 1}], [{"gamma": "1 * g", "d": 2}]]
            },
        },
    }
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["accessible_transfer"] is True
    assert report["count_source"] == 1
    assert report["count_target"] == 3
    assert report["count_inequality"] is True


def test_accessible_transfer_job_runs_the_transferred_sweep_once(monkeypatch, capsys):
    """One ``check-accessible-transfer`` job checks the transferred descriptor's genericity
    once, for its verdict and its counts together, and keeps its exit code and report bytes."""
    sweep, calls = refinements._require_transfer_generic, []
    monkeypatch.setattr(
        refinements,
        "_require_transfer_generic",
        lambda desc, cfg: calls.append(desc) or sweep(desc, cfg),
    )
    entry = next(entry for entry in POOL if entry["name"] == "check-accessible-transfer-2")
    code, out = run_stdin(monkeypatch, capsys, entry["job"].encode())
    assert len(calls) == 1
    assert (code, sha256(out.encode())) == (entry["exit_code"], entry["report_sha256"])


def test_transfer_point(tmp_path, capsys):
    job = {
        "schema_version": "1",
        "command": "transfer-point",
        "payload": {
            "config": {"blocks": [1, 1], "sigma": [1, 2], "alpha": "1/2"},
            "point": {
                "weight": [[2], [0]],
                "up": {"p": ["1 * c1", "1 * c2"]},
                "satake": {"v": [["1 * s1"], ["1 * s2"]]},
            },
        },
    }
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 0
    assert report["point"] == {
        "weight": [[2, 1]],
        "up": {"p": ["1 * M * c1 * q^(1/2)", "1 * M * W * c2 * q^(-1/2)"]},
        "satake": {"v": [["1 * M * s1", "1 * M * s2"]]},
    }


def test_check_diagram(tmp_path, capsys):
    config = {"blocks": [1, 1], "sigma": [1, 2], "alpha": "1/2"}
    source = {"weight": [[2], [0]], "up": {"p": ["1 * c1", "1 * c2"]}}
    matched = {
        "weight": [[2, 1]],
        "up": {"p": ["1 * M * c1 * q^(1/2)", "1 * M * W * c2 * q^(-1/2)"]},
    }
    job = {
        "schema_version": "1",
        "command": "check-diagram",
        "payload": {
            "config": config,
            "source_points": [source],
            "target_points": [matched],
        },
    }
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["matched"] == 1
    assert report["results"] == [True]
    job["payload"]["target_points"] = [{"weight": [[9, 9]]}]
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["unmatched"] == 1


def interpolation_job(**overrides):
    payload = {
        "config": {"blocks": [1], "sigma": [1], "alpha": "1/2"},
        "source_space": {
            "weight": [[0]],
            "entries": [{"point": {"weight": [[0]], "up": {"p": ["2"]}}, "mult": 1}],
        },
        "target_space": {
            "weight": [[0]],
            "entries": [{"point": {"weight": [[0]], "up": {"p": ["2"]}}, "mult": 1}],
        },
        "constant": 1,
        "generators": [[{"type": "atkin-lehner", "place": "p", "cochar": [1]}]],
        "assignments": [{}],
    }
    payload.update(overrides)
    return {"schema_version": "1", "command": "check-interpolation", "payload": payload}


def test_check_interpolation_pass(tmp_path, capsys):
    code, report, _ = run_job(tmp_path, capsys, interpolation_job())
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["constant"] == 1
    assert report["results"] == [[True]]


def test_check_interpolation_fail(tmp_path, capsys):
    bad_target = {
        "weight": [[0]],
        "entries": [{"point": {"weight": [[0]], "up": {"p": ["5"]}}, "mult": 1}],
    }
    code, report, _ = run_job(tmp_path, capsys, interpolation_job(target_space=bad_target))
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["results"] == [[False]]


def test_check_interpolation_packet(tmp_path, capsys):
    job = interpolation_job()
    del job["payload"]["constant"]
    job["payload"]["packet"] = {"dim_source": 3, "dims_target": [2]}
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 0
    assert report["constant"] == 2


def test_check_interpolation_constant_xor_packet(tmp_path, capsys):
    job = interpolation_job(packet={"dim_source": 3, "dims_target": [2]})
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"
    job = interpolation_job()
    del job["payload"]["constant"]
    code, report, _ = run_job(tmp_path, capsys, job)
    assert code == 2


def test_malformed_jobs(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["--job", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"

    for job in [
        {"command": "no-such-command", "payload": {}},
        {"command": "check-hypothesis1"},
        {"command": "check-hypothesis1", "payload": {}, "junk": 1},
        {"schema_version": "2", "command": "check-hypothesis1", "payload": {}},
        [1, 2, 3],
    ]:
        code, report, _ = run_job(tmp_path, capsys, job)
        assert code == 2
        assert report["error"]["type"] == "SchemaError"


def test_missing_job_file(tmp_path, capsys):
    code = main(["--job", str(tmp_path / "absent.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


def test_unknown_payload_key(tmp_path, capsys):
    code, report, _ = run_job(tmp_path, capsys, hyp1_job([1, 1], [1, 2], "1/2", junk=1))
    assert code == 2
    assert "junk" in report["error"]["message"]


def sha256(raw):
    return hashlib.sha256(raw).hexdigest()


DROP = object()


def edit(job, **changes):
    """A copy of ``job`` with payload keys replaced, added or (``DROP``) removed."""
    payload = {**job["payload"], **changes}
    return {**job, "payload": {k: v for k, v in payload.items() if v is not DROP}}


HYP1 = hyp1_job([1, 1], [1, 2], "1/2")
WEIGHT = {
    "schema_version": "1",
    "command": "transfer-weight",
    "payload": {"shape": [1, 1], "alpha": "1/2", "weight": [[0], [5]]},
}
CONFIG = {"blocks": [1, 1], "sigma": [1, 2], "alpha": "1/2"}
POINT = {"weight": [[2], [0]], "up": {"p": ["1 * c1", "1 * c2"]}}
DIAGRAM = {
    "schema_version": "1",
    "command": "check-diagram",
    "payload": {"config": CONFIG, "source_points": [POINT], "target_points": []},
}
TRANSFER_POINT = {
    "schema_version": "1",
    "command": "transfer-point",
    "payload": {"config": CONFIG, "point": POINT},
}
REFINEMENT = {
    "schema_version": "1",
    "command": "transfer-refinement",
    "payload": {"config": CONFIG, "character": ["1 * c1", "1 * c2"]},
}
DESCRIPTOR = {
    "schema_version": "1",
    "command": "enumerate-refinements",
    "payload": {"descriptor": {"blocks": [[{"gamma": "1 * g", "d": 2}]]}},
}
INTERP = interpolation_job()
POINT_0 = {"weight": [[0]]}
PACKET = edit(INTERP, constant=DROP, packet={"dim_source": 5, "dims_target": [2, 4]})


def packet(dim_source, dims_target):
    return edit(PACKET, packet={"dim_source": dim_source, "dims_target": dims_target})


COMMANDS = (
    "check-accessible-transfer, check-diagram, check-hypothesis1, check-interpolation, "
    "enumerate-refinements, transfer-point, transfer-refinement, transfer-weight"
)
XOR = "payload: provide exactly one of 'constant' and 'packet'"
ARRAYS = "source_points and target_points must be arrays"
POSITIVE = "constant: expected a positive integer"
NON_EMPTY = "{}: expected a non-empty array"
NO_BLOCKS = "a group shape needs at least one block, all of positive size"


def satake(groups):
    """The transfer-point job whose point carries ``groups`` as its Satake data at ``v``."""
    return edit(TRANSFER_POINT, point={**POINT, "satake": {"v": groups}})


def schema(job, message):
    return job, "SchemaError", message, 2


# A config whose computation raises NonIntegralShift, for jobs that pin that
# every field is decoded before the library runs.
SHIFT_CONFIG = {"blocks": [1, 2], "sigma": [1, 2, 3], "alpha": 1}
SHIFT_POINT = {"weight": [[0], [0, 0]]}
POINT_000 = {"weight": [[0, 0, 0]]}
SHIFT = "weight shift 3/2 at block 2 is not an integer (alpha = 1)"
SHIFT_DIAGRAM = edit(DIAGRAM, config=SHIFT_CONFIG, source_points=[SHIFT_POINT])
SHIFT_REFINEMENT = edit(REFINEMENT, config=SHIFT_CONFIG, character=["1 * c1", "1 * c2", "1 * c3"])
SHIFT_INTERP = interpolation_job(
    config=SHIFT_CONFIG,
    source_space={
        "weight": [[0], [0, 0]],
        "entries": [{"point": {**SHIFT_POINT, "up": {"p": ["1", "1", "1"]}}, "mult": 1}],
    },
    target_space={"weight": [[0, 0, 0]], "entries": []},
    generators=[[{"type": "atkin-lehner", "place": "p", "cochar": [1, 0, 0]}]],
)


def atkin_lehner(place, cochar):
    return {"type": "atkin-lehner", "place": place, "cochar": cochar}


def spherical(place, degree):
    return {"type": "spherical", "place": place, "degree": degree}


# One row per error message of the job envelope and the command payloads:
# (job, error type, error message, exit code).
ERROR_ROWS = [
    schema(edit(HYP1, junk=1), "payload: unknown key 'junk'"),
    schema(edit(HYP1, config=DROP), "payload: missing key 'config'"),
    schema(edit(WEIGHT, weight=DROP), "payload: missing key 'weight'"),
    schema(edit(INTERP, assignments=DROP), "payload: missing key 'assignments'"),
    schema(edit(INTERP, extra=1), "payload: unknown key 'extra'"),
    schema(edit(HYP1, drop_normalization=1), "drop_normalization: expected a boolean"),
    schema(edit(HYP1, drop_normalization="true"), "drop_normalization: expected a boolean"),
    schema(edit(DIAGRAM, source_points={}), ARRAYS),
    schema(edit(DIAGRAM, target_points="x"), ARRAYS),
    schema(edit(DIAGRAM, source_points=[{"weight": "bad"}], target_points=None), ARRAYS),
    schema(edit(INTERP, packet={"dim_source": 3, "dims_target": [2]}), XOR),
    schema(edit(INTERP, constant=DROP), XOR),
    schema(edit(INTERP, constant=0), POSITIVE),
    schema(edit(INTERP, constant=-1), POSITIVE),
    schema(edit(INTERP, constant=True), POSITIVE),
    schema(edit(INTERP, constant="1"), POSITIVE),
    schema(edit(INTERP, constant=1.0), POSITIVE),
    schema(edit(PACKET, packet=[]), "packet: expected an object"),
    schema(edit(PACKET, packet={"dims_target": [2]}), "packet: missing key 'dim_source'"),
    schema(edit(PACKET, packet={"dim_source": 3}), "packet: missing key 'dims_target'"),
    schema(
        edit(PACKET, packet={"dim_source": 3, "dims_target": [], "x": 1}), "packet: unknown key 'x'"
    ),
    schema(packet(3, 2), "packet.dims_target: expected an array"),
    schema(packet(3, [0]), "dimensions must be positive integers"),
    (packet(3, []), "EmptyPacket", "the packet of target dimensions is empty", 2),
    schema(edit(INTERP, generators=[]), NON_EMPTY.format("generators")),
    schema(edit(INTERP, generators={}), NON_EMPTY.format("generators")),
    schema(edit(INTERP, generators="x"), NON_EMPTY.format("generators")),
    schema(edit(INTERP, assignments=[]), NON_EMPTY.format("assignments")),
    schema(edit(INTERP, assignments={}), NON_EMPTY.format("assignments")),
    schema([1, 2, 3], "job: expected a JSON object"),
    schema({**HYP1, "junk": 1}, "job: unknown key 'junk'"),
    schema({**HYP1, "schema_version": "2"}, "job: unsupported schema_version '2'"),
    schema({**HYP1, "schema_version": 1}, "job: unsupported schema_version 1"),
    schema({"payload": {}}, f"job: command must be one of {COMMANDS}"),
    schema({"command": 5, "payload": {}}, f"job: command must be one of {COMMANDS}"),
    schema({"command": "nope", "payload": {}}, f"job: command must be one of {COMMANDS}"),
    schema({"command": "check-hypothesis1"}, "job: missing payload object"),
    schema({"command": "check-hypothesis1", "payload": []}, "job: missing payload object"),
    # several faults: the first one in decoding order is reported
    schema({"schema_version": "2", "command": "nope", "junk": 1}, "job: unknown key 'junk'"),
    schema(edit(HYP1, junk=1, config={}), "payload: unknown key 'junk'"),
    schema(edit(INTERP, config={"blocks": [1]}, generators=[]), "config: missing key 'sigma'"),
    schema(edit(INTERP, target_space={}, constant=0), "target_space: missing key 'weight'"),
    schema(edit(INTERP, constant=0, generators=[]), POSITIVE),
    schema(edit(INTERP, generators=[], assignments=[]), NON_EMPTY.format("generators")),
    schema(packet("5", 2), "packet.dims_target: expected an array"),
    schema(edit(DIAGRAM, config={"blocks": [1]}, source_points={}), "config: missing key 'sigma'"),
    # library errors keep their type; ValueError is reported as SchemaError
    (edit(WEIGHT, weight=[[0], [0]]), "NotRelevant", "archimedean parameters collide: 1/2, 1/2", 1),
    (
        edit(
            TRANSFER_POINT,
            config={"blocks": [1, 2], "sigma": [1, 2, 3], "alpha": 1},
            point={"weight": [[0], [0, 0]]},
        ),
        "NonIntegralShift",
        "weight shift 3/2 at block 2 is not an integer (alpha = 1)",
        1,
    ),
    (
        edit(HYP1, config={"blocks": [1, 2], "sigma": [1, 3, 2], "alpha": "1/2"}),
        "InvalidSigma",
        "sigma must be strictly increasing on block 2; images [2, 1]",
        2,
    ),
    schema(edit(WEIGHT, shape=[2], weight=[[0, 3]]), "archimedean transfer needs a dominant weight"),
    # a constructor's ValueError is reported with the location of the decoded value
    schema(edit(WEIGHT, shape=[0]), f"shape: {NO_BLOCKS}"),
    schema(
        edit(HYP1, config={**CONFIG, "alpha": "1/3"}),
        "config: alpha must be a half-integer, got 1/3",
    ),
    schema(
        edit(HYP1, config={**CONFIG, "mu": "q"}),
        "config: mu must be a fresh symbol name, got 'q'",
    ),
    schema(
        edit(REFINEMENT, character=["1 * c1", "nope nope"]),
        "character[1]: cannot parse monomial factor 'nope nope'",
    ),
    schema(
        edit(DESCRIPTOR, descriptor={"blocks": [[{"gamma": "1 * g", "d": 0}]]}),
        "descriptor.blocks[0][0]: segment length must be a positive integer, got 0",
    ),
    schema(edit(DESCRIPTOR, descriptor={"blocks": [[]]}), f"descriptor: {NO_BLOCKS}"),
    schema(
        edit(INTERP, source_space={"weight": [[0]], "entries": [{"point": POINT_0, "mult": 0}]}),
        "source_space: multiplicity must be positive, got 0",
    ),
    schema(
        edit(INTERP, generators=[[{"type": "spherical", "place": "v", "degree": 0}]]),
        "generators[0][0]: degree must be a positive integer, got 0",
    ),
    schema(
        edit(INTERP, assignments=[{"q": {"value": -2}}]),
        "assignments[0].q: symbol values must be positive rationals",
    ),
    # a sized array: the outer length, then block by block the type, the length and the entries
    schema(edit(REFINEMENT, character=["1 * c1"]), "character: expected 2 values, got 1"),
    schema(edit(WEIGHT, weight=[[0]]), "weight: expected 2 blocks, got 1"),
    schema(edit(WEIGHT, shape=[1, 2], weight=[[0], [1]]), "weight[1]: expected 2 entries, got 1"),
    schema(edit(WEIGHT, weight=[[0], 5]), "weight[1]: expected an array"),
    schema(edit(WEIGHT, weight=[[0.5], []]), "weight[0][0]: expected an integer"),
    schema(satake([["1 * s1"]]), "point.satake.v: expected 2 blocks, got 1"),
    schema(satake([["1 * s1"], []]), "point.satake.v[1]: expected 1 values, got 0"),
    schema(satake([["1 * s1"], "s2"]), "point.satake.v[1]: expected an array"),
    schema(satake([[5], []]), "point.satake.v[0][0]: expected a string"),
    # decode before compute: each well-formed job fails in the library, and a
    # malformed last field is reported instead
    (SHIFT_DIAGRAM, "NonIntegralShift", SHIFT, 1),
    schema(
        edit(SHIFT_DIAGRAM, target_points=[{"weight": [[0, 0]]}]),
        "target_points[0].weight[0]: expected 3 entries, got 2",
    ),
    (SHIFT_REFINEMENT, "NonIntegralShift", SHIFT, 1),
    schema(
        edit(SHIFT_REFINEMENT, character=["1 * c1", "1 * c2", "nope nope"]),
        "character[2]: cannot parse monomial factor 'nope nope'",
    ),
    (SHIFT_INTERP, "NonIntegralShift", SHIFT, 1),
    schema(
        edit(SHIFT_INTERP, assignments=[{"q": {"value": -2}}]),
        "assignments[0].q: symbol values must be positive rationals",
    ),
    # each generator is decoded against the target shape and the places of every point
    schema(
        edit(SHIFT_INTERP, generators=[[atkin_lehner("p", [1, 0])]]),
        "generators[0][0]: cocharacter needs 3 entries, got 2",
    ),
    schema(
        edit(SHIFT_INTERP, generators=[[atkin_lehner("p", [0, 1, 0])]]),
        "generators[0][0]: cocharacter (0, 1, 0) is not weakly decreasing within blocks",
    ),
    schema(
        edit(SHIFT_INTERP, generators=[[atkin_lehner("zz", [1, 0, 0])]]),
        "generators[0][0]: point has no eigenvalue system at place 'zz'",
    ),
    schema(
        edit(
            SHIFT_INTERP,
            target_space={"weight": [[0, 0, 0]], "entries": [{"point": POINT_000, "mult": 1}]},
        ),
        "generators[0][0]: point has no eigenvalue system at place 'p'",
    ),
    schema(
        edit(SHIFT_INTERP, generators=[[atkin_lehner("p", [1, 0, 0])], [spherical("v", 4)]]),
        "generators[1][0]: degree 4 exceeds the 3 Satake parameters",
    ),
    schema(
        edit(SHIFT_INTERP, generators=[[atkin_lehner("p", [1, 0, 0]), spherical("v", 3)]]),
        "generators[0][1]: point has no Satake data at place 'v'",
    ),
    schema(
        edit(
            INTERP,
            source_space={"weight": [[0]], "entries": []},
            target_space={"weight": [[0]], "entries": []},
            generators=[[atkin_lehner("p", [1, 0])]],
        ),
        "generators[0][0]: cocharacter needs 1 entries, got 2",
    ),
]


# Jobs that the schema now refuses: packet dimensions that are not integers,
# place-tag config keys and inexact rational strings.
CHANGED_ROWS = [
    schema(packet(5, [2.5]), "packet.dims_target[0]: expected an integer"),
    schema(packet(5.9, [2]), "packet.dim_source: expected an integer"),
    schema(packet(5, ["2"]), "packet.dims_target[0]: expected an integer"),
    schema(packet(True, [2]), "packet.dim_source: expected an integer"),
    schema(packet(5, [True]), "packet.dims_target[0]: expected an integer"),
    schema(packet("5", [2]), "packet.dim_source: expected an integer"),
    *(
        schema(edit(TRANSFER_POINT, config={**CONFIG, key: ["v"]}), f"config: unknown key '{key}'")
        for key in ("p_places", "tracked")
    ),
    schema(edit(WEIGHT, alpha="1.5"), "alpha: not a rational: '1.5'"),
    schema(edit(HYP1, config={**CONFIG, "alpha": "1e3"}), "config.alpha: not a rational: '1e3'"),
]


def check_error_report(tmp_path, capsys, job, kind, message, code):
    got, report, _ = run_job(tmp_path, capsys, job)
    expected = {
        "schema_version": "1",
        "input_sha256": sha256(json.dumps(job).encode()),
        "error": {"type": kind, "message": message},
    }
    if not message.startswith("job:"):
        expected["command"] = job["command"]
    assert (got, report) == (code, expected)


@pytest.mark.parametrize("job, kind, message, code", ERROR_ROWS)
def test_error_reports(tmp_path, capsys, job, kind, message, code):
    check_error_report(tmp_path, capsys, job, kind, message, code)


@pytest.mark.parametrize("job, kind, message, code", CHANGED_ROWS)
def test_schema_changes(tmp_path, capsys, job, kind, message, code):
    check_error_report(tmp_path, capsys, job, kind, message, code)


def test_unreadable_and_invalid_json_reports(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    with pytest.raises(OSError) as err:
        missing.read_bytes()
    assert main(["--job", str(missing)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "schema_version": "1",
        "error": {"type": "SchemaError", "message": f"cannot read job file: {err.value}"},
    }
    path = tmp_path / "raw.json"
    for raw, reason in [
        (b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ]:
        path.write_bytes(raw)
        assert main(["--job", str(path)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "schema_version": "1",
            "input_sha256": sha256(raw),
            "error": {"type": "SchemaError", "message": f"invalid JSON: {reason}"},
        }


@pytest.mark.parametrize(
    "error, message",
    [(RuntimeError("boom"), "RuntimeError: boom"), (MemoryError(), "MemoryError: ")],
    ids=["RuntimeError", "MemoryError"],
)
def test_unexpected_exception_is_an_internal_error(monkeypatch, tmp_path, capsys, error, message):
    """A crash inside the library is neither a failed verdict (exit 1) nor a refused
    input (exit 2): one ``InternalError`` report naming the exception, exit 3, and
    nothing on stderr."""

    def crash(*args, **kwargs):
        raise error

    monkeypatch.setattr(jsonio, "verify_transfer_compatibility", crash)
    job = hyp1_job([1, 1], [1, 2], "1/2")
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["--job", str(path)])
    out, err = capsys.readouterr()
    assert (code, err, out.count("\n")) == (3, "", 1)
    assert json.loads(out) == {
        "schema_version": "1",
        "input_sha256": sha256(json.dumps(job).encode()),
        "command": "check-hypothesis1",
        "error": {"type": "InternalError", "message": message},
    }


POOL = json.loads((Path(__file__).resolve().parents[1] / "bench" / "jobs.json").read_text())


def run_stdin(monkeypatch, capsys, raw):
    """Run ``main`` in process on ``raw`` stdin bytes; return the exit code and stdout."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
    code = main([])
    return code, capsys.readouterr().out


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="an interpreter without a limit on integer text encodes any count",
)
def test_report_that_cannot_be_encoded_is_refused_with_no_body(monkeypatch, capsys):
    """A well-formed job whose report cannot be encoded ends in one report, not a
    traceback: one block of 1,700 with the identity ``sigma`` and 1,700 one-parameter
    segments counts 1700! refinements on each side, past the interpreter's limit on
    integer text.  The encode ``ValueError`` is refused with exit 2, and the error
    report holds none of the command's body.  The message is the library's own, the
    same on every interpreter."""
    m = 1700
    segments = [{"gamma": f"1 * g{k}", "d": 1} for k in range(m)]
    job = {
        "schema_version": "1",
        "command": "check-accessible-transfer",
        "payload": {
            "config": {"blocks": [m], "sigma": list(range(1, m + 1)), "alpha": "1/2"},
            "descriptor": {"blocks": [segments]},
        },
    }
    body = jsonio.run_command(job["command"], job["payload"])
    assert body["count_source"] == body["count_target"] == math.factorial(m)
    raw = json.dumps(job).encode()
    code, out = run_stdin(monkeypatch, capsys, raw)
    assert (code, out.count("\n"), out.endswith("\n")) == (2, 1, True)
    report = json.loads(out)
    assert report.keys() == {"schema_version", "input_sha256", "command", "error"}
    assert report["command"] == "check-accessible-transfer"
    assert report["error"] == {
        "type": "SchemaError",
        "message": "the report cannot be encoded as JSON text",
    }


@pytest.mark.parametrize("entry", POOL, ids=[entry["name"] for entry in POOL])
def test_bench_pool_replay(monkeypatch, capsys, entry):
    """Every pool job keeps its exit code and its report bytes, the code follows the
    report, and the echoed input digest is ``hashlib``'s."""
    raw = entry["job"].encode()
    code, out = run_stdin(monkeypatch, capsys, raw)
    assert code == entry["exit_code"]
    assert sha256(out.encode()) == entry["report_sha256"]
    report = json.loads(out)
    assert report["input_sha256"] == hashlib.sha256(raw).hexdigest()
    error = report.get("error", {}).get("type")
    if report.get("verdict") == "fail" or error in ("NotRelevant", "NonIntegralShift"):
        assert code == 1
    else:
        assert code == (2 if error else 0)


def refusal(raw, message):
    """The exact stdout of a job refused before its command is known."""
    report = {
        "schema_version": "1",
        "input_sha256": sha256(raw),
        "error": {"type": "SchemaError", "message": message},
    }
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


WEIGHT_RAW = json.dumps(WEIGHT)
POINT_RAW = json.dumps(TRANSFER_POINT)


@pytest.mark.parametrize(
    "raw, entry, repeat, key",
    [
        (WEIGHT_RAW, '"command": "transfer-weight"', '"command": "check-hypothesis1"', "command"),
        (WEIGHT_RAW, '"alpha": "1/2"', '"alpha": "3/2"', "alpha"),
        (POINT_RAW, '"sigma": [1, 2]', '"sigma": [2, 1]', "sigma"),
        (POINT_RAW, '"p": ["1 * c1", "1 * c2"]', '"p": ["1 * c1", "1 * c2"]', "p"),
    ],
    ids=["envelope", "payload", "config", "point-up"],
)
def test_duplicate_keys_are_refused(monkeypatch, capsys, raw, entry, repeat, key):
    """A repeated key is refused at any level, where the last value used to win."""
    assert run_stdin(monkeypatch, capsys, raw.encode())[0] == 0
    assert raw.count(entry) == 1
    raw = raw.replace(entry, f"{entry}, {repeat}").encode()
    assert run_stdin(monkeypatch, capsys, raw) == (2, refusal(raw, f"job: duplicate key {key!r}"))


def test_reports_are_deterministic(tmp_path, capsys):
    job = hyp1_job([1, 2], [3, 1, 2], "1/2")
    _, _, first = run_job(tmp_path, capsys, job)
    _, _, second = run_job(tmp_path, capsys, job)
    assert first == second


def test_input_hash_echo(tmp_path, capsys):
    path = tmp_path / "job.json"
    raw = json.dumps(hyp1_job([1, 1], [1, 2], "1/2")).encode()
    path.write_bytes(raw)
    code = main(["--job", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["input_sha256"] == hashlib.sha256(raw).hexdigest()


def test_pretty_output(tmp_path, capsys):
    job = hyp1_job([1, 1], [1, 2], "1/2")
    _, compact_report, compact = run_job(tmp_path, capsys, job)
    _, pretty_report, pretty = run_job(tmp_path, capsys, job, pretty=True)
    assert compact_report == pretty_report
    assert "\n  " in pretty
    assert "\n  " not in compact


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(raw):
    """Run one job from ``raw`` stdin bytes in a child process.

    Runs ``python -m eigentransfer.cli`` under :func:`child_env`, so the child
    tests this checkout even when another ``eigentransfer`` is installed, and a
    fresh checkout needs no install.
    """
    argv = [sys.executable, "-m", "eigentransfer.cli"]
    return subprocess.run(argv, input=raw, capture_output=True, env=child_env())


def test_stdin_subprocess():
    raw = json.dumps(hyp1_job([1, 1], [1, 2], "1/2")).encode()
    proc = run_cli(raw)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "pass"
    assert report["input_sha256"] == hashlib.sha256(raw).hexdigest()


def test_subprocess_exit_codes():
    fail = json.dumps(hyp1_job([1, 1], [1, 2], "1/2", drop_normalization=True)).encode()
    assert run_cli(fail).returncode == 1
    garbage = b"]["
    assert run_cli(garbage).returncode == 2


def test_deeply_nested_job_is_refused(monkeypatch, capsys):
    raw = b"[" * 100_000
    expected = refusal(raw, "invalid JSON: nested too deeply")
    assert run_stdin(monkeypatch, capsys, raw) == (2, expected)
    proc = run_cli(raw)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (2, expected, b"")


def _address_space_cap():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.skipif(os.name != "posix", reason="caps the child's address space with resource")
@pytest.mark.parametrize(
    "job, message",
    [
        (hyp1_job([10**9], [1], "0"), "config.sigma: expected 1000000000 entries, got 1"),
        (edit(WEIGHT, shape=[10**9], weight=[[3]]), "weight[0]: expected 1000000000 entries, got 1"),
    ],
    ids=["config", "weight"],
)
def test_huge_block_sizes_are_refused_by_their_length_checks(job, message):
    """A block size is not bounded by the job's length, so a one-line job may name a
    shape of ``10**9`` positions; the array sized by that shape refuses it at once, with
    exit code 2, in a child whose address space is capped at 1 GiB, since the shape
    builds no table of one entry per position before that check."""
    raw = json.dumps(job).encode()
    argv = [sys.executable, "-m", "eigentransfer.cli"]
    proc = subprocess.run(
        argv, input=raw, capture_output=True, env=child_env(), preexec_fn=_address_space_cap,
        timeout=60,
    )
    report = {
        "command": job["command"],
        "error": {"message": message, "type": "SchemaError"},
        "input_sha256": sha256(raw),
        "schema_version": "1",
    }
    assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == (2, report, b"")


COLD_SKIPS = ["_hashlib", "argparse", "dataclasses", "gettext", "hashlib", "inspect"]
# loaded by this interpreter's site packages, if any, so checked with site off (-S)
LEAN_SKIPS = ["fnmatch", "ipaddress", "pathlib", "typing", "urllib.parse"]


def test_cli_import_skips_dataclasses_and_inspect():
    """A cold CLI job on standard input loads none of these modules: the value classes
    are plain classes, the input is hashed by the built-in SHA-256 rather than through
    ``hashlib`` (which loads OpenSSL), and a run with no arguments builds no parser.
    With ``site`` off, it loads no ``typing`` (annotations are deferred and the abstract
    types come from ``collections.abc``) and no ``pathlib``, which only ``--job`` needs."""
    entry = POOL[0]
    for flags, skips in (((), COLD_SKIPS), (("-S",), COLD_SKIPS + LEAN_SKIPS)):
        code = (
            "import sys\n"
            "from eigentransfer.cli import main\n"
            "code = main()\n"
            f"print(sorted(set({skips!r}) & set(sys.modules)), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], input=entry["job"].encode(),
            capture_output=True, env=child_env(),
        )
        assert (proc.returncode, sha256(proc.stdout), proc.stderr) == (
            entry["exit_code"], entry["report_sha256"], b"[]\n"
        ), flags


def test_cli_import_compiles_no_record_key():
    """Importing the CLI compiles none of the 17 value classes' keys.  The classes are
    found by walking the subclass graph, so a record class under an intermediate base
    is counted too."""
    code = (
        "from eigentransfer import cli\n"
        "from eigentransfer._frozen import FrozenValue\n"
        "classes, todo = [], [FrozenValue]\n"
        "while todo:\n"
        "    new = [c for c in todo.pop().__subclasses__() if c not in classes]\n"
        "    classes += new\n"
        "    todo += new\n"
        "print(len(classes), [c for c in classes if c._key is not FrozenValue._key])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "17 []\n", "")


def test_input_hash_falls_back_to_hashlib():
    """With neither built-in SHA-256 module, the CLI hashes through ``hashlib``."""
    raw = POOL[0]["job"].encode()
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from eigentransfer.cli import main, sha256\n"
        "import hashlib\n"
        "assert sha256 is hashlib.sha256\n"
        "sys.exit(main())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], input=raw, capture_output=True, env=child_env()
    )
    assert (proc.returncode, proc.stderr) == (POOL[0]["exit_code"], b"")
    assert json.loads(proc.stdout)["input_sha256"] == hashlib.sha256(raw).hexdigest()
    assert sha256(proc.stdout) == POOL[0]["report_sha256"]


def test_stdin_job_builds_no_parser(monkeypatch, capsys):
    """With no arguments, from ``main([])`` or from an empty ``sys.argv[1:]``, the job
    is read from standard input and no parser is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("built a parser for a run with no arguments")

    raw = POOL[0]["job"].encode()
    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    monkeypatch.setattr(sys, "argv", ["eigentransfer"])
    for argv in ([], None):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
        assert main(argv) == POOL[0]["exit_code"]
        assert sha256(capsys.readouterr().out.encode()) == POOL[0]["report_sha256"]


HELP = (
    "usage: eigentransfer [-h] [--job FILE] [--pretty]\n\n"
    "Run one JSON job against the transfer library and print a JSON report.\n\n"
    "options:\n"
    "  -h, --help  show this help message and exit\n"
    "  --job FILE  job file (default: standard input)\n"
    "  --pretty    indent the report\n"
)
USAGE = "usage: eigentransfer [-h] [--job FILE] [--pretty]\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["-h"], 0, HELP, ""),
        (["--bogus"], 2, "", USAGE + "eigentransfer: error: unrecognized arguments: --bogus\n"),
    ],
    ids=["help", "usage-error"],
)
def test_parser_bytes(monkeypatch, capsys, argv, code, out, err):
    """Arguments still go through ``argparse``: help and usage errors keep their bytes."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == code
    assert capsys.readouterr() == (out, err)


def test_non_generic_descriptor_is_refused_before_enumerating(monkeypatch, tmp_path, capsys):
    """A repeated parameter is refused by the accessible count, before any ordering is built."""

    def enumerate_refinements(desc):
        raise AssertionError("enumerated the orderings of a descriptor it then refuses")

    monkeypatch.setattr(jsonio, "enumerate_refinements", enumerate_refinements)
    segments = [{"gamma": f"1 * g{i}", "d": 1} for i in range(7)] + [{"gamma": "1 * g0", "d": 1}]
    message = (
        "descriptor has repeated or linked segment parameters; accessibility "
        "is only decided for generic descriptors"
    )
    job = edit(DESCRIPTOR, descriptor={"blocks": [segments]})
    check_error_report(tmp_path, capsys, job, "UnsupportedLinked", message, 2)
