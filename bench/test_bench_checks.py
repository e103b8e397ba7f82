"""The benchmark's output checks must be able to fail.

Each test feeds a check a real program output, which must pass, and then
the same output perturbed the smallest way a wrong program could, which
must be rejected. Runs in a few seconds.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from authfusion import catalog, cli, fusion, reliability, session  # noqa: E402


def _replace_metric(csv_text: str, metric: str, delta: int) -> str:
    lines = []
    for line in csv_text.splitlines():
        key, _, value = line.partition(",")
        if key == metric:
            line = f"{key},{int(value) + delta}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_report_with_one_extra_false_grant_is_rejected():
    dep = inputs.build("context-drive", 101)
    dep.changes = []  # no change: the vector path, fast
    text = lambda d: yaml.safe_dump(d, sort_keys=False)  # noqa: E731
    cat = catalog.load_catalog(text(dep.catalog_dict()))
    pol = fusion.load_policy(text(dep.policy_dict()))
    sc = session.load_scenario(text(dep.scenario_dict()))
    model = oracle.session_model(dep)
    trials, seed = 20_000, 7
    csv_text = session.report_to_csv(session.run_simulation(sc, cat, pol, trials, seed))
    assert checks.check_report(csv_text, model, trials, seed) == []
    failures = checks.check_report(_replace_metric(csv_text, "false_grants", 1), model, trials, seed)
    assert any("full_grants" in f for f in failures)


def test_sweep_row_off_by_one_millionth_is_rejected():
    far, frr, n_hi = 0.0003, 0.02, 200
    csv_text = reliability.sweep_to_csv(reliability.sweep(far, frr, range(1, n_hi + 1)))
    want = oracle.sweep_table(far, frr, n_hi)
    assert checks.check_sweep(csv_text, want) == []
    lines = csv_text.splitlines()
    # far of n=2 "all"; log10_far of n=151 "all", whose far is below 1e-300
    for index, column in ((4, 3), (3 * 150 + 1, 5)):
        parts = lines[index].split(",")
        parts[column] = "%.17g" % (float(parts[column]) * (1.0 + 1e-6))
        bad = lines[:index] + [",".join(parts)] + lines[index + 1:]
        assert checks.check_sweep("\n".join(bad) + "\n", want) != []


def test_sweep_log10_of_an_underflowed_product_is_checked():
    exp = [r for r in oracle.sweep_expect(0.0003, 0.02, 150) if r.strategy == "all"][0]
    assert exp.far.value == 0.0
    good = f"150,all,150,0,{exp.frr.value!r},{exp.far.log10!r},{exp.frr.log10!r}"
    assert checks.check_sweep_row(good, exp) == []
    bad = f"150,all,150,0,{exp.frr.value!r},-inf,{exp.frr.log10!r}"
    assert checks.check_sweep_row(bad, exp) != []


def test_monte_carlo_estimate_with_zero_events_is_rejected():
    dep = inputs.build("analytics", 3)
    cat = catalog.load_catalog(yaml.safe_dump(dep.catalog_dict()))
    pol = fusion.load_policy(yaml.safe_dump(dep.policy_dict()))
    far, frr = oracle.rule_rates(dep)
    trials = 200_000
    est = reliability.monte_carlo_rates(cat, pol, trials, 11)
    got = {"far_events": est.far.events, "far_value": est.far.value, "far_trials": est.far.trials,
           "frr_events": est.frr.events, "frr_value": est.frr.value, "frr_trials": est.frr.trials}
    assert checks.check_mc(got, trials, far, frr) == []
    for name in ("far", "frr"):
        zero = dict(got, **{f"{name}_events": 0, f"{name}_value": 0.0})
        assert any("no events" in f for f in checks.check_mc(zero, trials, far, frr))


def test_bracket_that_admits_zero_events_is_refused():
    with pytest.raises(checks.VacuousCheck):
        checks.bracket("rare", 0, [(1000, 1e-4)])


def test_manifest_digest_that_does_not_match_is_rejected(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--n-range", "1..8", "--out", str(out)]) == 0
    data = out.read_bytes()
    manifest = out.with_name("sweep.csv.manifest.json").read_text()
    assert checks.check_manifest({"sweep.csv": data}, manifest) == []
    assert checks.check_manifest({"sweep.csv": data + b"\n"}, manifest) != []
    doc = json.loads(manifest)
    doc["outputs"]["sweep.csv"]["sha256"] = hashlib.sha256(b"other").hexdigest()
    assert checks.check_manifest({"sweep.csv": data}, json.dumps(doc)) != []
