"""The README's examples, run as documented: its YAML blocks are written
to files, its commands run through `python -m authfusion.cli`, and the
values it prints are compared to the digits it prints them with."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import authfusion

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks() -> list[tuple[str, str]]:
    """(info string, body) of each fenced block, in order."""
    blocks, lang, body = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("```"):
            if lang is None:
                lang, body = line[3:].strip(), []
            else:
                blocks.append((lang, "".join(body)))
                lang = None
        elif lang is not None:
            body.append(line)
    return blocks


@pytest.fixture
def configs(tmp_path):
    """The README's YAML blocks, each saved under the name its first line gives."""
    for lang, body in _blocks():
        if lang == "yaml":
            (tmp_path / body.split("\n", 1)[0].removeprefix("# ")).write_text(body)
    return tmp_path


def _cli(command: str, cwd: Path) -> subprocess.CompletedProcess:
    program, *args = shlex.split(command, comments=True)
    assert program == "authfusion"
    src = os.path.dirname(os.path.dirname(authfusion.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "authfusion.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_simulate_transcript_is_reproduced_byte_for_byte(configs):
    (transcript,) = [body for lang, body in _blocks() if body.startswith("$ authfusion simulate")]
    command, expected = transcript.split("\n", 1)
    proc = _cli(command.removeprefix("$ "), configs)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_every_documented_command_runs(configs):
    (commands,) = [body for lang, body in _blocks() if lang == "sh" and body.startswith("authfusion ")]
    for command in commands.splitlines():
        proc = _cli(command, configs)
        assert proc.returncode == 0, (command, proc.stderr)
        if " decide " in command:
            assert proc.stdout.splitlines()[:2] == ["decision: granted", "score: 2.8"]
    assert (configs / "results" / "report.csv").exists()


def _as_printed(value: float, printed: str) -> bool:
    """value rounded to the significant digits printed equals printed."""
    digits = len(printed.lower().split("e")[0].replace(".", "").lstrip("0"))
    return float(f"{value:.{digits}g}") == float(printed)


def test_the_quick_tour_values_match_the_digits_printed(capsys):
    namespace: dict = {}
    for lang, body in _blocks():
        if lang == "python":
            exec(body, namespace)
    assert "sessions: 20000" in capsys.readouterr().out
    text = README.read_text(encoding="utf-8")
    number = r"([0-9.e+-]+)"
    for expression, pattern in (
        ("compose_all(pairs).frr", rf"compose_all\(pairs\)\.frr +# {number}:"),
        ("compose_kofn(pairs, 4).far", rf"compose_kofn\(pairs, 4\) +# CompositeRates\(far={number},"),
        ("compose_kofn(pairs, 4).frr", rf"compose_kofn\(pairs, 4\) +# CompositeRates\(far=[^,]+, frr={number},"),
        ("decide(records, policy, DEFAULT_CATALOG).score", rf"DEFAULT_CATALOG\) +# granted=True, score={number}\n"),
    ):
        (printed,) = re.findall(pattern, text)
        assert _as_printed(eval(expression, namespace), printed), (expression, printed)
    assert eval("decide(records, policy, DEFAULT_CATALOG).granted", namespace) is True
