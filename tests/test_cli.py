"""End-to-end tests for the JSON job runner."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_transfer_point(tmp_path, capsys):
    job = {
        "schema_version": "1",
        "command": "transfer-point",
        "payload": {
            "config": {
                "blocks": [1, 1],
                "sigma": [1, 2],
                "alpha": "1/2",
                "tracked": ["v"],
            },
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


def run_cli(raw):
    """Run one job from ``raw`` stdin bytes in a child process.

    Uses the installed console script if there is one, else
    ``python -m eigentransfer.cli`` with this checkout's ``src`` first on
    ``PYTHONPATH``, so a fresh checkout needs no install.
    """
    script = shutil.which("eigentransfer")
    if script:
        return subprocess.run([script], input=raw, capture_output=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "eigentransfer.cli"]
    return subprocess.run(argv, input=raw, capture_output=True, env=env)


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
