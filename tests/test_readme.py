"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from multicolor.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block_after(heading: str, lang: str = "") -> str:
    """The first fenced block of the given language after the heading."""
    section = README[README.index(f"\n## {heading}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(block_after("Library quickstart", "python"), {})


def test_cli_lines_run_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [line for line in block_after("CLI").splitlines() if line.startswith("multicolor ")]
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
