"""The README's examples, run as written."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from acalc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


COMMANDS = [line for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("acalc ")]


@pytest.fixture
def readme_files(tmp_path, monkeypatch):
    """circle.json and split.json, from the README's own curve and map examples."""
    start = README.index('{"algebra": "H", "kind": "parametric"')
    curve, _ = json.JSONDecoder().raw_decode(README, start)
    split = re.search(r"Linear map - `(\{.*?\})`", README).group(1)
    (tmp_path / "circle.json").write_text(json.dumps(curve))
    (tmp_path / "split.json").write_text(split)
    monkeypatch.chdir(tmp_path)


def test_readme_lists_every_command():
    assert len(COMMANDS) == 15


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(readme_files, capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


def test_readme_quick_start_prints_its_comments():
    (block,) = _blocks("python")
    # the printed values, as the block's comments give them
    assert "# True, 15 + 12*j" in block
    assert "# ['Phi_xx - 0.25*Phi_tt = 0']" in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == ["True 15 + 12*j", "['Phi_xx - 0.25*Phi_tt = 0']"]
