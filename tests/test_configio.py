"""Reading config files: every bad value is reported at its key's line,
and a YAML node reached through aliases is converted once."""

import copy
import os
import random
import subprocess
import sys

import pytest
import yaml

import authfusion
from authfusion import configio
from authfusion.catalog import DEFAULT_CATALOG, catalog_to_yaml, load_catalog
from authfusion.errors import AuthFusionError, ConfigError
from authfusion.fusion import decide, load_evidence, load_policy
from authfusion.session import load_scenario, run_simulation, validate_scenario
from authfusion.trust import load_trust_model

CATALOG = """\
schema_version: 1
factors:
  - id: token
    name: Token
    category: [ownership]
    action: passive
    duration: short
    far: 0.0003
    frr: 0.02
    vendor_accuracy: 1.0
    phases: [pre_authentication, active_authentication]
    capabilities:
      non_text_input: yes
      short_contact_time: yes
      stringent_usability: no
      environmental_robustness: partial
      high_security_level: no
  - id: pin_code
    category: [knowledge]
    action: active
    duration: {band: medium, seconds: 4.0}
"""
POLICY = """\
schema_version: 1
strategy: weighted
threshold: 2.0
use_likelihood: false
weights:
  token: 1.0
  facial: 1.0
"""
KOFN = """\
schema_version: 1
strategy: kofn
k: 2
"""
EVIDENCE = """\
schema_version: 1
records:
  - factor_id: token
    decision: 1
    likelihood: 0.9
    trust: 0.8
    observed_at: 1.5
"""
SCENARIO = """\
schema_version: 1
name: night
adversary_fraction: 0.2
takeover: false
factors: [token, facial]
trust:
  token: 0.8
context:
  initial:
    darkness: true
  changes:
    - at: 5.0
      set: {darkness: false}
monitor:
  window: 150.0
  detection_accuracy: 0.95
  check_interval: 75.0
  false_alarm: 0.01
session:
  t_basic: 0.5
  staleness_horizon: 300.0
  monitoring_horizon: 300.0
  usability_budget: 2.0
monitor_factor: token
policy_path: policy.yaml
catalog_path: catalog.yaml
"""
TRUST = """\
schema_version: 1
levels:
  owned: 1.0
  stranger: 0.3
promotion_threshold: 5
"""
LOADERS = {
    "catalog": (load_catalog, CATALOG),
    "policy": (load_policy, POLICY),
    "kofn": (load_policy, KOFN),
    "evidence": (load_evidence, EVIDENCE),
    "scenario": (load_scenario, SCENARIO),
    "trust": (load_trust_model, TRUST),
}

# (base, text replaced once, its replacement, (field, line, message)): one
# bad value per loader key (a wrong type, an unknown enum member, an
# unknown key or a missing required key) and some values that break the
# rule their object checks. An empty YAML value reads as None.
ERRORS = [
    ('catalog', 'schema_version: 1', 'schema_version: one',
     ('schema_version', 1, 'expected int, got str')),
    ('catalog', 'schema_version: 1\n', '',
     ('<document>', 1, "missing required field 'schema_version'")),
    ('catalog', 'factors:', 'factorz:',
     ('factorz', 2, 'unknown field')),
    ('catalog', '- id: token', '- id: 5',
     ('factors[0].id', 3, 'expected str, got int')),
    ('catalog', '- id: token\n    name: Token', '- name: Token',
     ('factors[0]', 3, "missing required field 'id'")),
    ('catalog', 'name: Token', 'name: [T]',
     ('factors[0].name', 4, 'expected str, got list')),
    ('catalog', '[ownership]', 'ownership',
     ('factors[0].category', 5, 'expected list, got str')),
    ('catalog', '[ownership]', '[owner]',
     ('factors[0].category', 5, "'owner' is not one of: knowledge, ownership, biometric, behavior")),
    ('catalog', '[ownership]', '[5]',
     ('factors[0].category', 5, 'entry 0 must be a string')),
    ('catalog', '[ownership]', '[]',
     ('factors[0].category', 5, 'must list at least one entry')),
    ('catalog', 'action: passive', 'action: sleepy',
     ('factors[0].action', 6, "'sleepy' is not one of: active, passive, either")),
    ('catalog', 'action: passive', 'action:',
     ('factors[0].action', 6, 'expected str, got NoneType')),
    ('catalog', '    action: passive\n', '',
     ('factors[0]', 3, "missing required field 'action'")),
    ('catalog', 'duration: short', 'duration: brief',
     ('factors[0].duration', 7, "'brief' is not one of: short, medium, long")),
    ('catalog', 'duration: short', 'duration:',
     ('factors[0].duration', 7, 'expected a mapping for duration')),
    ('catalog', '    duration: short\n', '',
     ('factors[0]', 3, "missing required field 'duration'")),
    ('catalog', '{band: medium, seconds: 4.0}', '{band: huge}',
     ('factors[1].duration.band', 21, "'huge' is not one of: short, medium, long")),
    ('catalog', '{band: medium, seconds: 4.0}', '{band: }',
     ('factors[1].duration.band', 21, 'expected str, got NoneType')),
    ('catalog', '{band: medium, seconds: 4.0}', '{seconds: 4.0}',
     ('factors[1].duration', 21, "missing required field 'band'")),
    ('catalog', '{band: medium, seconds: 4.0}', '{band: medium, seconds: four}',
     ('factors[1].duration.seconds', 21, 'expected int or float, got str')),
    ('catalog', '{band: medium, seconds: 4.0}', '{band: medium, secs: 4}',
     ('factors[1].duration.secs', 21, 'unknown field')),
    ('catalog', 'far: 0.0003', 'far: low',
     ('factors[0].far', 8, 'expected int or float, got str')),
    ('catalog', 'far: 0.0003', 'far: true',
     ('factors[0].far', 8, 'expected int or float, got bool')),
    ('catalog', 'frr: 0.02', 'frr: [0.02]',
     ('factors[0].frr', 9, 'expected int or float, got list')),
    ('catalog', 'vendor_accuracy: 1.0', 'vendor_accuracy: high',
     ('factors[0].vendor_accuracy', 10, 'expected int or float, got str')),
    ('catalog', '[pre_authentication, active_authentication]', '[later]',
     ('factors[0].phases', 11, "'later' is not one of: pre_authentication, active_authentication, continuous_monitoring")),
    ('catalog', '[pre_authentication, active_authentication]', 'pre_authentication',
     ('factors[0].phases', 11, 'expected list, got str')),
    ('catalog', 'non_text_input: yes', 'non_text_input: maybe',
     ('factors[0].capabilities.non_text_input', 13, "'maybe' is not one of: yes, no, partial")),
    ('catalog', 'non_text_input: yes', 'non_text_input:',
     ('factors[0].capabilities.non_text_input', 13, "'None' is not one of: yes, no, partial")),
    ('catalog', 'non_text_input: yes', 'non_text_input: 5',
     ('factors[0].capabilities.non_text_input', 13, "'5' is not one of: yes, no, partial")),
    ('catalog', '      non_text_input: yes\n', '',
     ('factors[0].capabilities', 12, "missing capability flag 'non_text_input'")),
    ('catalog', '      high_security_level: no\n', '      high_security_level: no\n      colour: red\n',
     ('factors[0].capabilities.colour', 18, 'unknown field')),
    ('catalog', '    capabilities:\n      non_text_input: yes\n      short_contact_time: yes\n      stringent_usability: no\n      environmental_robustness: partial\n      high_security_level: no\n', '    capabilities: 5\n',
     ('factors[0].capabilities', 12, 'expected a mapping for capabilities')),
    ('catalog', '- id: pin_code', '- id: token',
     ('factors[1].id', 18, "duplicate factor id 'token'")),
    ('catalog', '    vendor_accuracy: 1.0\n', '    vendor_accuracy: 1.0\n    colour: red\n',
     ('factors[0].colour', 11, 'unknown field')),
    ('catalog', 'far: 0.0003', 'far: 1.5',
     ('token.far', 8, 'must lie in [0, 1], got 1.5')),
    ('catalog', '{band: medium, seconds: 4.0}', '{band: medium, seconds: 40.0}',
     ('duration.seconds', 21, "representative duration 40.0s lies outside the 'medium' class")),
    ('policy', 'schema_version: 1', 'schema_version: 2',
     ('schema_version', 1, 'unsupported schema_version 2; this build reads version 1')),
    ('policy', 'strategy: weighted', 'strategy: best',
     ('strategy', 2, "'best' is not one of: all, any, kofn, weighted")),
    ('policy', 'strategy: weighted', 'strategy:',
     ('strategy', 2, 'expected str, got NoneType')),
    ('policy', 'strategy: weighted', 'strategy: [weighted]',
     ('strategy', 2, 'expected str, got list')),
    ('policy', 'strategy: weighted\n', '',
     ('<document>', 1, "missing required field 'strategy'")),
    ('policy', 'threshold: 2.0', 'threshold: high',
     ('threshold', 3, 'expected int or float, got str')),
    ('policy', 'threshold: 2.0\n', '',
     ('<document>', 1, "missing required field 'threshold'")),
    ('policy', 'threshold: 2.0', 'threshold: -1',
     ('strategy.threshold', 3, 'must be finite and non-negative, got -1.0')),
    ('policy', 'use_likelihood: false', 'use_likelihood: maybe',
     ('use_likelihood', 4, 'expected bool, got str')),
    ('policy', 'token: 1.0', 'token: heavy',
     ('weights.token', 6, 'expected int or float, got str')),
    ('policy', 'token: 1.0', 'token: -2',
     ('weights.token', 6, 'must be finite and non-negative, got -2.0')),
    ('policy', 'weights:\n  token: 1.0\n  facial: 1.0\n', 'weights: 5\n',
     ('weights', 5, 'expected a mapping for weights')),
    ('policy', 'weights:\n  token: 1.0\n  facial: 1.0\n', 'weights: {}\n',
     ('weights', 5, 'weights map must not be empty')),
    ('policy', 'weights:\n  token: 1.0\n  facial: 1.0\n', '',
     ('<document>', 1, "missing required field 'weights'")),
    ('policy', 'use_likelihood: false', 'colour: red',
     ('colour', 4, 'unknown field')),
    ('kofn', 'k: 2', 'k: two',
     ('k', 3, 'expected int, got str')),
    ('kofn', 'k: 2', 'k: 2.5',
     ('k', 3, 'expected int, got float')),
    ('kofn', 'k: 2\n', '',
     ('<document>', 1, "missing required field 'k'")),
    ('kofn', 'k: 2', 'k: 0',
     ('strategy.k', 3, 'k must be a positive integer')),
    ('kofn', 'k: 2', 'k: 2\nthreshold: 1.0',
     ('strategy.threshold', 4, 'threshold is only meaningful for weighted, not kofn')),
    ('evidence', 'records:\n  - factor_id: token\n    decision: 1\n    likelihood: 0.9\n    trust: 0.8\n    observed_at: 1.5\n', 'records: 5\n',
     ('records', 2, 'expected list, got int')),
    ('evidence', 'records:\n  - factor_id: token\n    decision: 1\n    likelihood: 0.9\n    trust: 0.8\n    observed_at: 1.5\n', 'records: []\n',
     ('records', 2, 'evidence declares no records')),
    ('evidence', 'records:\n', 'recordz:\n',
     ('recordz', 2, 'unknown field')),
    ('evidence', '  - factor_id: token\n', '  - 5\n  - factor_id: token\n',
     ('records[0]', 3, 'expected a mapping for records[0]')),
    ('evidence', 'factor_id: token', 'factor_id: 5',
     ('records[0].factor_id', 3, 'expected str, got int')),
    ('evidence', '  - factor_id: token\n    decision: 1\n', '  - decision: 1\n',
     ('records[0]', 3, "missing required field 'factor_id'")),
    ('evidence', '    decision: 1\n', '',
     ('records[0]', 3, "missing required field 'decision'")),
    ('evidence', 'decision: 1', 'decision: 2',
     ('token.decision', 4, 'decision must be 0 or 1')),
    ('evidence', 'likelihood: 0.9', 'likelihood: high',
     ('records[0].likelihood', 5, 'expected int or float, got str')),
    ('evidence', 'likelihood: 0.9', 'likelihood: 1.5',
     ('token.likelihood', 5, 'must lie in [0, 1], got 1.5')),
    ('evidence', 'trust: 0.8', 'trust: full',
     ('records[0].trust', 6, 'expected int or float, got str')),
    ('evidence', 'trust: 0.8', 'trust: true',
     ('records[0].trust', 6, 'expected int or float, got bool')),
    ('evidence', 'observed_at: 1.5', 'observed_at: soon',
     ('records[0].observed_at', 7, 'expected int or float, got str')),
    ('evidence', 'observed_at: 1.5', 'observed_at: .inf',
     ('token.observed_at', 7, 'observed_at must be finite')),
    ('evidence', 'observed_at: 1.5', 'observed_at: 1.5\n    colour: red',
     ('records[0].colour', 8, 'unknown field')),
    ('scenario', 'name: night', 'name: 5',
     ('name', 2, 'expected str, got int')),
    ('scenario', 'adversary_fraction: 0.2', 'adversary_fraction: some',
     ('adversary_fraction', 3, 'expected int or float, got str')),
    ('scenario', 'adversary_fraction: 0.2', 'adversary_fraction: 1.5',
     ('adversary_fraction', 3, 'must lie in [0, 1], got 1.5')),
    ('scenario', 'takeover: false', 'takeover: 3',
     ('takeover', 4, 'expected bool, got int')),
    ('scenario', 'factors: [token, facial]', 'factors: token',
     ('factors', 5, 'expected list, got str')),
    ('scenario', 'factors: [token, facial]', 'factors: [5]',
     ('factors', 5, 'must be a list of factor ids')),
    ('scenario', 'token: 0.8', 'token: high',
     ('trust.token', 7, 'expected int or float, got str')),
    ('scenario', 'trust:\n  token: 0.8\n', 'trust: 5\n',
     ('trust', 6, 'expected a mapping for trust')),
    ('scenario', '  initial:\n', '  later:\n',
     ('context.later', 9, 'unknown field')),
    ('scenario', '  initial:\n    darkness: true\n', '  initial: 5\n',
     ('context.initial', 9, 'expected a mapping for initial')),
    ('scenario', '  changes:\n    - at: 5.0\n      set: {darkness: false}\n', '  changes: 5\n',
     ('context.changes', 11, 'expected list, got int')),
    ('scenario', '- at: 5.0', '- at: soon',
     ('context.changes[0].at', 12, 'expected int or float, got str')),
    ('scenario', '    - at: 5.0\n      set:', '    - set:',
     ('context.changes[0]', 12, "missing required field 'at'")),
    ('scenario', '      set: {darkness: false}\n', '',
     ('context.changes[0]', 12, "missing required field 'set'")),
    ('scenario', '      set: {darkness: false}\n', '      set: {darkness: false}\n      colour: red\n',
     ('context.changes[0].colour', 14, 'unknown field')),
    ('scenario', 'window: 150.0', 'window: wide',
     ('monitor.window', 15, 'expected int or float, got str')),
    ('scenario', 'window: 150.0', 'window: -5',
     ('monitor.window', 15, 'window must be finite and positive')),
    ('scenario', 'detection_accuracy: 0.95', 'detection_accuracy: good',
     ('monitor.detection_accuracy', 16, 'expected int or float, got str')),
    ('scenario', 'check_interval: 75.0', 'check_interval: often',
     ('monitor.check_interval', 17, 'expected int or float, got str')),
    ('scenario', 'check_interval: 75.0', 'check_interval:',
     ('monitor.check_interval', 17, 'expected int or float, got NoneType')),
    ('scenario', 'false_alarm: 0.01', 'false_alarm: rare',
     ('monitor.false_alarm', 18, 'expected int or float, got str')),
    ('scenario', 'false_alarm: 0.01', 'false_alarm: 1.0',
     ('monitor.false_alarm', 18, 'false_alarm must lie in [0, 1)')),
    ('scenario', 'false_alarm: 0.01', 'false_alarm: 0.01\n  colour: red',
     ('monitor.colour', 19, 'unknown field')),
    ('scenario', 'monitor:\n  window: 150.0\n  detection_accuracy: 0.95\n  check_interval: 75.0\n  false_alarm: 0.01\n', 'monitor: 5\n',
     ('monitor', 14, 'expected a mapping for monitor')),
    ('scenario', 't_basic: 0.5', 't_basic: half',
     ('session.t_basic', 20, 'expected int or float, got str')),
    ('scenario', 't_basic: 0.5', 't_basic:',
     ('session.t_basic', 20, 'expected int or float, got NoneType')),
    ('scenario', 't_basic: 0.5', 't_basic: -1',
     ('session.t_basic', 20, 'must be finite and non-negative, got -1.0')),
    ('scenario', 'staleness_horizon: 300.0', 'staleness_horizon: long',
     ('session.staleness_horizon', 21, 'expected int or float, got str')),
    ('scenario', 'monitoring_horizon: 300.0', 'monitoring_horizon: long',
     ('session.monitoring_horizon', 22, 'expected int or float, got str')),
    ('scenario', 'monitoring_horizon: 300.0', 'monitoring_horizon: 0',
     ('session.monitoring_horizon', 22, 'monitoring_horizon must be positive')),
    ('scenario', 'usability_budget: 2.0', 'usability_budget: tight',
     ('session.usability_budget', 23, 'expected int or float, got str')),
    ('scenario', 'usability_budget: 2.0', 'usability_budget: 2.0\n  colour: red',
     ('session.colour', 24, 'unknown field')),
    ('scenario', 'monitor_factor: token', 'monitor_factor: 5',
     ('monitor_factor', 24, 'expected str, got int')),
    ('scenario', 'policy_path: policy.yaml', 'policy_path: 5',
     ('policy_path', 25, 'expected str, got int')),
    ('scenario', 'catalog_path: catalog.yaml', 'catalog_path: [c]',
     ('catalog_path', 26, 'expected str, got list')),
    ('scenario', 'catalog_path: catalog.yaml', 'catalog_path: catalog.yaml\ncolour: red',
     ('colour', 27, 'unknown field')),
    ('scenario', '- at: 5.0', '- at: -1.0',
     ('context.changes[0].at', 12, 'context change at t=-1.0 precedes the session start')),
    ('trust', 'owned: 1.0', 'alien: 0.5',
     ('levels.alien', 3, "'alien' is not one of: owned, familiar, social_friend, stranger")),
    ('trust', 'owned: 1.0', 'owned: full',
     ('levels.owned', 3, 'expected int or float, got str')),
    ('trust', 'owned: 1.0', 'owned: 1.5',
     ('levels.owned', 3, 'must lie in [0, 1], got 1.5')),
    ('trust', 'promotion_threshold: 5', 'promotion_threshold: five',
     ('promotion_threshold', 5, 'expected int, got str')),
    ('trust', 'promotion_threshold: 5', 'promotion_threshold: 0',
     ('promotion_threshold', 5, 'promotion_threshold must be at least 1')),
    ('trust', 'promotion_threshold: 5', 'promotion_threshold: 5\ndecay: fast',
     ('decay', 6, 'unknown field')),
    ('trust', 'levels:\n  owned: 1.0\n  stranger: 0.3\n', 'levels: 5\n',
     ('levels', 2, 'expected a mapping for levels')),
]


def test_the_table_bases_load():
    for load, text in LOADERS.values():
        load(text)


@pytest.mark.parametrize("base, old, new, expected", ERRORS)
def test_each_bad_value_is_reported_at_its_key(base, old, new, expected):
    load, text = LOADERS[base]
    assert text.count(old) == 1
    with pytest.raises(ConfigError) as err:
        load(text.replace(old, new))
    assert (err.value.field, err.value.line, err.value.message) == expected


def _walk(node, path, lines):
    """The conversion with no alias sharing: every node walked afresh,
    every scalar built by a loader of its own."""
    lines.setdefault(path, node.start_mark.line + 1)
    if isinstance(node, yaml.MappingNode):
        out = {}
        for key_node, value_node in node.value:
            lines[path + (key_node.value,)] = key_node.start_mark.line + 1
            out[key_node.value] = _walk(value_node, path + (key_node.value,), lines)
        return out
    if isinstance(node, yaml.SequenceNode):
        return [_walk(child, path + (i,), lines) for i, child in enumerate(node.value)]
    return yaml.SafeLoader("").construct_object(node)


@pytest.mark.parametrize("text", [catalog_to_yaml(DEFAULT_CATALOG), *(text for _, text in LOADERS.values())])
def test_an_alias_free_document_converts_as_a_fresh_walk(text):
    lines = {}
    data = _walk(yaml.compose(text, Loader=yaml.SafeLoader), (), lines)
    assert configio.load_document(text) == (data, lines)


CAPABILITIES = """\
      non_text_input: yes
      short_contact_time: partial
      stringent_usability: no
      environmental_robustness: no
      high_security_level: yes
"""


def _scanner(fid, capabilities):
    return f"  - id: {fid}\n    category: [biometric]\n    action: either\n    duration: short\n    capabilities:{capabilities}"


def test_factors_sharing_an_anchored_block_load_equal_to_its_expanded_copy():
    anchored = "schema_version: 1\nfactors:\n" + _scanner("fingerprint", " &scanner\n" + CAPABILITIES) + (
        _scanner("vein_recognition", " *scanner\n"))
    expanded = "schema_version: 1\nfactors:\n" + "".join(
        _scanner(fid, "\n" + CAPABILITIES) for fid in ("fingerprint", "vein_recognition"))
    shared = load_catalog(anchored)
    assert shared == load_catalog(expanded)
    assert shared[1].capabilities.short_contact_time.value == "partial"


def _run(args, cwd):
    src = os.path.dirname(os.path.dirname(authfusion.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("document, where", [
    ("name: &a [*a]\n", "line 3: name[0]"),
    ("context:\n  initial: &a\n    zones: {inner: *a}\n", "line 5: context.initial.zones.inner"),
])
def test_a_recursive_alias_exits_2_at_its_line(tmp_path, document, where):
    (tmp_path / "policy.yaml").write_text("schema_version: 1\nstrategy: any\n")
    (tmp_path / "scenario.yaml").write_text("schema_version: 1\npolicy_path: policy.yaml\n" + document)
    proc = _run(["-m", "authfusion.cli", "simulate", "--scenario", "scenario.yaml", "--trials", "10"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"{where}: recursive alias" in proc.stderr
    assert "Traceback" not in proc.stderr


CHILD = """\
import resource, sys, time
from authfusion.errors import ConfigError
from authfusion.session import load_scenario
text = open(sys.argv[1]).read()
start = time.perf_counter()
try:
    load_scenario(text)
except ConfigError as exc:
    print(exc)
print(time.perf_counter() - start)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_a_nine_level_alias_chain_is_answered_in_bounded_time_and_memory(tmp_path):
    # each level lists the one below nine times: 9**9 leaves if expanded
    chain = ["schema_version: 1", "a0: &a0 [x, x, x, x, x, x, x, x, x]"]
    chain += [f"a{i}: &a{i} [" + ", ".join([f"*a{i - 1}"] * 9) + "]" for i in range(1, 10)]
    (tmp_path / "chain.yaml").write_text("\n".join(chain) + "\n")
    proc = _run(["-c", CHILD, "chain.yaml"], tmp_path)
    message, seconds, max_rss_kb = proc.stdout.splitlines()
    assert message == "line 2: a0: unknown field"
    assert float(seconds) < 1.0
    assert int(max_rss_kb) < 100 * 1024


def test_a_tag_without_a_constructor_is_a_config_error_at_its_line():
    # the document's own loader builds every scalar, inside the handler
    # that turns a YAML error into a ConfigError
    with pytest.raises(ConfigError) as err:
        load_scenario("schema_version: 1\nname: !foo x\n")
    assert err.value.line == 2
    assert "could not determine a constructor for the tag '!foo'" in err.value.message


def test_nesting_too_deep_to_parse_exits_2(tmp_path):
    (tmp_path / "scenario.yaml").write_text("schema_version: 1\nname: " + "[" * 3000 + "]" * 3000 + "\n")
    proc = _run(["-m", "authfusion.cli", "simulate", "--scenario", "scenario.yaml", "--trials", "10"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "malformed scenario: nested too deeply to parse" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deep_flow_nesting_is_refused_at_the_cap(monkeypatch):
    # the scanner stops at the first '[' past the cap instead of scanning
    # all 3,000 levels, in time quadratic in the depth, for the composer
    # to fail on
    levels = []
    fetch = configio._Loader.fetch_flow_collection_start

    def counted(self, token_class):
        levels.append(self.flow_level)
        return fetch(self, token_class)

    monkeypatch.setattr(configio._Loader, "fetch_flow_collection_start", counted)
    with pytest.raises(ConfigError, match="malformed scenario: nested too deeply to parse") as err:
        load_scenario("schema_version: 1\nname:\n  " + "[" * 3000 + "]" * 3000 + "\n")
    assert err.value.line == 3
    assert len(levels) <= configio.MAX_FLOW_DEPTH + 1
    # a document at the cap loads; one level deeper is refused
    cap = configio.MAX_FLOW_DEPTH
    assert _flow_depth(configio.load_document("[" * cap + "]" * cap)[0]) == cap
    with pytest.raises(ConfigError, match="malformed document: nested too deeply to parse"):
        configio.load_document("[" * (cap + 1) + "]" * (cap + 1))


def _flow_depth(data) -> int:
    depth = 1
    while data:
        data, depth = data[0], depth + 1
    return depth


def test_a_document_at_the_cap_loads_under_a_deep_caller_stack():
    # PyYAML's composer recurses about two frames per level, so it fails
    # 476-493 levels deep by the caller's depth; the cap sits far enough
    # below that for a caller 400 frames deep to load a document at the cap
    cap = configio.MAX_FLOW_DEPTH

    def load_under(frames: int):
        return load_under(frames - 1) if frames else configio.load_document("[" * cap + "]" * cap)[0]

    assert _flow_depth(load_under(400)) == cap


# Stand-ins that the fuzz swaps for text yaml.safe_dump cannot write: an
# integer past Python's 4,300-digit conversion limit and a flow sequence
# nested deeper than PyYAML's composer recurses. The loader refuses the deep
# one at its first '[' past its cap, in milliseconds; it is drawn rarely.
LONG_INT, DEEP = "zzlongintzz", "zzdeepzz"
ODD_VALUES = [None, True, 0, -1, 2, 1.5, -0.5, 1e308, float("inf"), float("nan"), "", "token", "all",
              "1" + "0" * 400, [], {}, [1, "x"], {"a": 1}, LONG_INT]


def _nodes(data, path=()):
    """(path, value) for every map value and list item under data."""
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _mutate(rng: random.Random, text: str) -> str:
    """text with one to three random edits: a key dropped, renamed or
    retyped, a value swapped for one of another type or wrapped in a list
    or map, or a line duplicated."""
    data = yaml.safe_load(text)
    for _ in range(rng.randint(1, 3)):
        nodes = list(_nodes(data))
        if not nodes:
            break
        path, value = rng.choice(nodes)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key, edit = path[-1], rng.randrange(4)
        if edit == 0:
            del parent[key]
        elif edit == 1 and isinstance(parent, dict):
            parent[rng.choice([5, "x", f"{key}_", LONG_INT])] = parent.pop(key)
        elif edit == 2:
            parent[key] = [value] if rng.random() < 0.5 else {"k": value}
        else:
            parent[key] = DEEP if rng.random() < 0.005 else copy.deepcopy(rng.choice(ODD_VALUES))
    out = yaml.safe_dump(data, sort_keys=False)
    if rng.random() < 0.2:
        lines = out.splitlines(keepends=True)
        at = rng.randrange(len(lines))
        out = "".join(lines[:at + 1] + lines[at:])
    return out.replace(LONG_INT, "1" * 5000).replace(DEEP, "[" * 3000 + "]" * 3000)


def _only_authfusion_errors(call, *args):
    try:
        return call(*args)
    except AuthFusionError:
        return None


def test_mutated_documents_load_or_raise_authfusion_error():
    rng = random.Random(18)
    base = {"catalog": DEFAULT_CATALOG, "policy": load_policy(POLICY),
            "scenario": load_scenario(SCENARIO), "evidence": load_evidence(EVIDENCE)}
    oversized = {"long": 0, "deep": 0}
    for _ in range(40):
        for name, (loader, text) in LOADERS.items():
            document = _mutate(rng, text)
            oversized["long"] += "1" * 5000 in document
            oversized["deep"] += "[" * 3000 in document
            loaded = _only_authfusion_errors(loader, document)
            if loaded is None or name == "trust":
                continue
            run = dict(base, **{"policy" if name == "kofn" else name: loaded})
            deployment = run["scenario"], run["catalog"], run["policy"]
            _only_authfusion_errors(validate_scenario, *deployment)
            _only_authfusion_errors(run_simulation, *deployment, 50, 0)
            _only_authfusion_errors(decide, run["evidence"], run["policy"], run["catalog"])
    # the seed reaches both inputs that once ended in a traceback
    assert oversized["long"] and oversized["deep"], oversized
