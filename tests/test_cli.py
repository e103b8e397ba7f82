"""End-to-end command-line behavior, including the exit-code contract."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import authfusion
from authfusion.catalog import DEFAULT_CATALOG, catalog_to_yaml
from authfusion.cli import EXIT_CONFIG, EXIT_DENY, EXIT_IO, EXIT_OK, main
from authfusion.reliability import SWEEP_CSV_HEADER

WEIGHTED_POLICY = """\
schema_version: 1
strategy: weighted
threshold: 1.0
weights:
  token: 1.0
  facial: 1.0
  pin_code: 0.5
"""

EVIDENCE = """\
schema_version: 1
records:
  - factor_id: token
    decision: 1
    trust: 0.9
  - factor_id: facial
    decision: 0
  - factor_id: pin_code
    decision: 1
    trust: 0.5
"""

SCENARIO = """\
schema_version: 1
name: cli-check
adversary_fraction: 0.2
factors: [token, facial, pin_code]
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_IO, EXIT_CONFIG, EXIT_DENY) == (0, 1, 2, 3)


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(DEFAULT_CATALOG)
    assert lines[0].split() == ["ID", "NAME", "CATEGORY", "ACTION", "DURATION", "FAR", "FRR"]
    vein = next(line for line in lines if line.startswith("vein_recognition"))
    assert vein.split() == ["vein_recognition", "Vein", "recognition", "BI", "A/P", "S", "0.0003", "0.02"]


def test_catalog_export_validate_roundtrip(tmp_path, capsys):
    out = tmp_path / "exported.yaml"
    assert main(["catalog", "export", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "exported.yaml.manifest.json").read_text())
    assert manifest["command"] == "catalog export"
    assert manifest["config_paths"] == {"catalog": "<built-in>"}
    digest = manifest["outputs"]["exported.yaml"]
    content = out.read_bytes()
    assert digest["sha256"] == hashlib.sha256(content).hexdigest()
    assert digest["bytes"] == len(content)

    assert main(["catalog", "validate", "--catalog", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == f"catalog OK ({len(DEFAULT_CATALOG)} factors)"


def test_catalog_export_to_stdout(capsys):
    assert main(["catalog", "export"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "vein_recognition" in text
    assert text == catalog_to_yaml(DEFAULT_CATALOG)


def test_catalog_invalid_file_is_a_config_error(tmp_path, capsys):
    bad = write(
        tmp_path,
        "bad.yaml",
        "schema_version: 1\nfactors:\n  - id: x\n    name: X\n"
        "    category: [biometric]\n    action: active\n    duration: medium\n"
        "    far: 1.5\n",
    )
    assert main(["catalog", "validate", "--catalog", bad]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "far" in err
    assert "line" in err


def test_catalog_missing_file_is_an_io_error(tmp_path, capsys):
    assert main(["catalog", "validate", "--catalog", str(tmp_path / "nope.yaml")]) == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"\xff\xfeschema_version: 1\n")
    assert main(["catalog", "validate", "--catalog", str(bad)]) == EXIT_CONFIG
    assert "not UTF-8" in capsys.readouterr().err
    evidence = write(tmp_path, "evidence.yaml", EVIDENCE)
    assert main(["decide", "--policy", str(bad), "--evidence", evidence]) == EXIT_CONFIG
    assert main(["simulate", "--scenario", str(bad), "--trials", "10"]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("not UTF-8") == 2


def test_sweep_defaults(capsys):
    assert main(["sweep"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + 7 * 3
    rows = [line.split(",") for line in lines[1:]]
    n7 = {r[1]: r for r in rows if r[0] == "7"}
    assert math.isclose(float(n7["all"][3]), 0.0003**7, rel_tol=1e-9)
    assert math.isclose(float(n7["all"][4]), 1.0 - 0.98**7, rel_tol=1e-9)
    assert n7["balanced"][2] == "4"
    # a single factor renders identically under every strategy
    n1 = {tuple(r[3:5]) for r in rows if r[0] == "1"}
    assert len(n1) == 1
    ((far_text, frr_text),) = n1
    assert float(far_text) == 0.0003
    assert float(frr_text) == 0.02


def test_sweep_writes_file_and_manifest(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["sweep", "--n-range", "2..3", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "rates.csv.manifest.json").read_text())
    assert manifest["parameters"]["n_range"] == "2..3"
    assert manifest["parameters"]["far"] == 0.0003
    digest = manifest["outputs"]["rates.csv"]
    assert digest["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert len(out.read_text().splitlines()) == 1 + 2 * 3


def test_sweep_rejects_malformed_range(capsys):
    assert main(["sweep", "--n-range", "7"]) == EXIT_CONFIG
    assert "1..7" in capsys.readouterr().err


def test_decide_grant(tmp_path, capsys):
    policy = write(tmp_path, "policy.yaml", WEIGHTED_POLICY)
    evidence = write(tmp_path, "evidence.yaml", EVIDENCE)
    assert main(["decide", "--policy", policy, "--evidence", evidence]) == EXIT_OK
    out = capsys.readouterr().out
    assert "decision: granted" in out
    assert "score: 1.15" in out
    assert "threshold: 1.0" in out
    assert "  token: 0.9" in out
    assert "  facial: 0.0" in out
    assert "  pin_code: 0.25" in out


def test_decide_tie_denies(tmp_path, capsys):
    policy = write(tmp_path, "policy.yaml", WEIGHTED_POLICY.replace("threshold: 1.0", "threshold: 1.15"))
    evidence = write(tmp_path, "evidence.yaml", EVIDENCE)
    assert main(["decide", "--policy", policy, "--evidence", evidence]) == EXIT_DENY
    assert "decision: denied" in capsys.readouterr().out


def test_decide_counting_output(tmp_path, capsys):
    policy = write(tmp_path, "policy.yaml", "schema_version: 1\nstrategy: kofn\nk: 2\n")
    evidence = write(tmp_path, "evidence.yaml", EVIDENCE)
    assert main(["decide", "--policy", policy, "--evidence", evidence]) == EXIT_OK
    assert "passed: 2 of 3 (need 2)" in capsys.readouterr().out


def test_decide_unknown_factor_is_a_config_error(tmp_path, capsys):
    policy = write(tmp_path, "policy.yaml", WEIGHTED_POLICY)
    evidence = write(
        tmp_path,
        "evidence.yaml",
        "schema_version: 1\nrecords:\n  - factor_id: sonar\n    decision: 1\n",
    )
    assert main(["decide", "--policy", policy, "--evidence", evidence]) == EXIT_CONFIG
    assert "sonar" in capsys.readouterr().err


def run_simulate(tmp_path, tag, *extra):
    scenario = write(tmp_path, "scenario.yaml", SCENARIO)
    policy = write(tmp_path, "policy.yaml", WEIGHTED_POLICY.replace("threshold: 1.0", "threshold: 2.0"))
    out_dir = tmp_path / tag
    code = main(
        [
            "simulate",
            "--scenario", scenario,
            "--policy", policy,
            "--trials", "3000",
            "--seed", "7",
            "--out", str(out_dir),
            *extra,
        ]
    )
    assert code == EXIT_OK
    return out_dir


def test_simulate_runs_are_byte_identical(tmp_path, capsys):
    a = run_simulate(tmp_path, "a")
    b = run_simulate(tmp_path, "b")
    capsys.readouterr()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_simulate_workers_do_not_change_results(tmp_path, capsys):
    a = run_simulate(tmp_path, "w1", "--trials", "150000")
    b = run_simulate(tmp_path, "w4", "--trials", "150000", "--workers", "4")
    capsys.readouterr()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_simulate_manifest_contents(tmp_path, capsys):
    out = run_simulate(tmp_path, "m")
    capsys.readouterr()
    text = (out / "manifest.json").read_text()
    manifest = json.loads(text)
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["parameters"] == {"trials": 3000}
    assert set(manifest["config_paths"]) == {"scenario", "catalog", "policy"}
    for name in ("report.csv", "summary.txt"):
        digest = manifest["outputs"][name]
        content = (out / name).read_bytes()
        assert digest["sha256"] == hashlib.sha256(content).hexdigest()
        assert digest["bytes"] == len(content)
    # execution details must never leak into the reproducibility record
    assert "workers" not in text
    assert "engine" not in text


def test_simulate_prints_seed_and_respects_format(tmp_path, capsys):
    scenario = write(tmp_path, "scenario.yaml", SCENARIO)
    policy = write(tmp_path, "policy.yaml", WEIGHTED_POLICY)
    code = main(
        ["simulate", "--scenario", scenario, "--policy", policy,
         "--trials", "500", "--format", "csv"]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed: ")
    int(lines[0].split(":")[1])  # a random seed was drawn and shown
    assert lines[1] == "metric,value"


def test_simulate_seed_recorded_matches_printed(tmp_path, capsys):
    scenario = write(tmp_path, "scenario.yaml", SCENARIO)
    policy = write(tmp_path, "policy.yaml", WEIGHTED_POLICY)
    out_dir = tmp_path / "r"
    code = main(
        ["simulate", "--scenario", scenario, "--policy", policy,
         "--trials", "500", "--out", str(out_dir)]
    )
    assert code == EXIT_OK
    printed = int(capsys.readouterr().out.splitlines()[0].split(":")[1])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == printed


def test_simulate_missing_scenario_is_an_io_error(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tmp_path / "ghost.yaml")])
    assert code == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_simulate_without_any_policy_is_a_config_error(tmp_path, capsys):
    scenario = write(tmp_path, "scenario.yaml", SCENARIO)
    assert main(["simulate", "--scenario", scenario, "--trials", "10"]) == EXIT_CONFIG
    assert "policy" in capsys.readouterr().err


def test_simulate_resolves_paths_relative_to_the_scenario(tmp_path, capsys):
    conf = tmp_path / "conf"
    conf.mkdir()
    (conf / "p.yaml").write_text(WEIGHTED_POLICY)
    (conf / "c.yaml").write_text(catalog_to_yaml(DEFAULT_CATALOG))
    (conf / "scenario.yaml").write_text(
        SCENARIO + "policy_path: p.yaml\ncatalog_path: c.yaml\n"
    )
    code = main(
        ["simulate", "--scenario", str(conf / "scenario.yaml"),
         "--trials", "200", "--seed", "1"]
    )
    assert code == EXIT_OK
    assert "sessions: 200" in capsys.readouterr().out


def monitored(tmp_path, interval, horizon, *extra):
    scenario = write(
        tmp_path,
        "monitored.yaml",
        SCENARIO
        + f"takeover: true\nmonitor:\n  check_interval: {interval}\n"
        + f"session:\n  monitoring_horizon: {horizon}\n",
    )
    policy = write(tmp_path, "policy.yaml", WEIGHTED_POLICY)
    return main(["simulate", "--scenario", scenario, "--policy", policy, "--seed", "3", *extra])


def test_simulate_check_count_overflow_is_a_config_error(tmp_path, capsys):
    # an infinite horizon/interval ratio, and a finite one past 2**53 checks
    for interval, horizon in (("1.0e-300", "1.0e+308"), ("1.0", "1.0e+17")):
        assert monitored(tmp_path, interval, horizon, "--trials", "10") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "session.monitoring_horizon" in err and "2**53" in err


def test_simulate_runs_a_million_check_schedule(tmp_path, capsys):
    assert monitored(tmp_path, "1.0", "1.0e+6", "--trials", "2000", "--format", "csv") == EXIT_OK
    rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines()[2:])
    assert int(rows["revocations"]) == int(rows["full_grants"]) > 0
    assert int(rows["firings[continuous_monitoring][token]"]) > 0



OVERFLOWING_POLICY = WEIGHTED_POLICY.replace("1.0\n  facial: 1.0", "1.0e+308\n  facial: 1.0e+308")


@pytest.mark.parametrize("command, bad, field, line", [
    # each weight passes alone, but their sum overflows once both factors pass
    ("decide", OVERFLOWING_POLICY, "weights", 4),
    ("simulate", SCENARIO + "trust:\n  pin_code: 5.0\n", "trust.pin_code", 6),
    ("simulate", SCENARIO + "session:\n  t_basic: .nan\n", "session.t_basic", 6),
    ("simulate", SCENARIO + "monitor:\n  window: .inf\n", "monitor.window", 6),
    # an infinite interval would schedule no check at all
    ("simulate", SCENARIO + "monitor:\n  check_interval: .inf\n", "monitor.check_interval", 6),
    # a 401-digit integer has no float
    ("decide", WEIGHTED_POLICY.replace("threshold: 1.0", "threshold: 1" + "0" * 400), "threshold", 3),
    ("simulate", SCENARIO.replace("0.2", "1" + "0" * 400), "adversary_fraction", 3),
    # a 5,000-digit integer is past Python's digit limit for reading one
    ("decide", WEIGHTED_POLICY.replace("threshold: 1.0", "threshold: " + "1" * 5000), "threshold", 3),
    ("simulate", SCENARIO.replace("0.2", "1" * 5000), "adversary_fraction", 3),
])
def test_values_outside_their_rule_exit_2_at_field_and_line(tmp_path, command, bad, field, line):
    bad = write(tmp_path, "bad.yaml", bad)
    if command == "decide":
        args = ["--policy", bad, "--evidence", write(tmp_path, "evidence.yaml", EVIDENCE.replace("decision: 0", "decision: 1"))]
    else:
        args = ["--scenario", bad, "--policy", write(tmp_path, "policy.yaml", WEIGHTED_POLICY), "--trials", "10"]
    src = os.path.dirname(os.path.dirname(authfusion.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "authfusion.cli", command, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert f"line {line}: {field}: " in proc.stderr
    assert "Traceback" not in proc.stderr


DRIVING_SCENARIO = SCENARIO + """\
takeover: true
trust:
  pin_code: 0.8
context:
  initial: {darkness: true}
  changes:
    - at: 5.0
      set: {darkness: false, gloves_worn: true}
monitor:
  check_interval: 30.0
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # plans and gates are memoized by value and FrozenMap hashes str keys,
    # whose hashes differ from one process to the next
    scenario = write(tmp_path, "scenario.yaml", DRIVING_SCENARIO)
    policy = write(tmp_path, "policy.yaml", WEIGHTED_POLICY)
    src = os.path.dirname(os.path.dirname(authfusion.__file__))
    runs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hashseed-{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        stdout = []
        for args in (["simulate", "--scenario", scenario, "--policy", policy, "--trials", "20000",
                      "--workers", "2", "--seed", "11", "--format", "csv", "--out", str(out / "simulate")],
                     ["sweep", "--n-range", "1..40", "--out", str(out / "sweep.csv")]):
            proc = subprocess.run([sys.executable, "-m", "authfusion.cli", *args], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == EXIT_OK, proc.stderr
            stdout.append(proc.stdout)
        files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        runs.append((stdout, files))
    assert sorted(runs[0][1]) == ["simulate/manifest.json", "simulate/report.csv", "simulate/summary.txt",
                                  "sweep.csv", "sweep.csv.manifest.json"]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["simulate", "sweep", "catalog export"])
def test_outputs_are_written_as_the_utf8_bytes_the_manifest_hashes(tmp_path, command):
    # with EncodingWarning raised as an error, any write in the locale's
    # encoding exits 1; the warning is how that shows on a UTF-8-only host
    if command == "simulate":
        args = ["simulate", "--scenario", write(tmp_path, "scenario.yaml", SCENARIO),
                "--policy", write(tmp_path, "policy.yaml", WEIGHTED_POLICY), "--trials", "100",
                "--seed", "3", "--out", str(tmp_path / "out")]
    else:
        args = [*command.split(), "--out", str(tmp_path / "out.txt")]
    src = os.path.dirname(os.path.dirname(authfusion.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                           "-m", "authfusion.cli", *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
