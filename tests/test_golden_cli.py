"""Golden output of the commands that build a loop's whole DDG.

``golden_cli.json`` pins, byte for byte, the stdout of ``vectra
vlength`` and ``vectra baselines`` on every registry program at its
default parameters, and of ``vectra dot --loop L`` on every analyzed
loop whose DDG ``dot`` can render, with the ``ddg.dot`` file it writes
(by SHA-256 and size).  Regenerate with ``python
tests/regenerate_golden.py`` only after an intentional change.
"""

import hashlib
import json
import pathlib

import pytest

from repro.tools.cli import main
from repro.workloads import list_workloads

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_cli.json").read_text())


def test_corpus_covers_every_workload():
    names = {w.name for w in list_workloads()}
    assert set(GOLDEN["vlength"]) == names
    assert set(GOLDEN["baselines"]) == names


@pytest.mark.parametrize("command", ["vlength", "baselines"])
@pytest.mark.parametrize("name", sorted(GOLDEN["vlength"]))
def test_command_stdout_matches_golden(command, name, capsys):
    assert main([command, name]) == 0
    assert capsys.readouterr().out == GOLDEN[command][name]


@pytest.mark.parametrize("key", sorted(GOLDEN["dot"]))
def test_dot_matches_golden(key, capsys, tmp_path, monkeypatch):
    workload, loop = key.split("/")
    want = GOLDEN["dot"][key]
    monkeypatch.chdir(tmp_path)
    assert main(["dot", workload, "--loop", loop]) == 0
    assert capsys.readouterr().out == want["stdout"]
    data = (tmp_path / "ddg.dot").read_bytes()
    assert len(data) == want["bytes"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
