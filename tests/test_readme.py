"""The command-line examples in README.md run as written."""

import pathlib
import shlex
import shutil

from subgraph_sentinel.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) == 6
    (tmp_path / "demos").mkdir()
    shutil.copy(ROOT / "demos" / "sweep_small.json", tmp_path / "demos")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SUBGRAPH_SENTINEL_WORKERS", raising=False)
    for argv in commands:  # in order: the second reads the first's graph
        assert argv[0] == "subgraph-sentinel"
        assert main(argv[1:]) == 0, capsys.readouterr().out
