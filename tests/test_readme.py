"""README.md as a contract reference: its examples run and print what it
says, its network config is the one the CLI tests pin, each command's section
names every option that command reads, and it stays short."""

import io
import json
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cvsim.cli import _parser, main
from test_cli import README_NETWORK

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MAX_LINES = 250


def blocks(language: str) -> list[str]:
    """The fenced code blocks of the README in `language`, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def section(command: str) -> str:
    """The text under the README's ``### cvsim <command>`` heading."""
    match = re.search(rf"^### cvsim {command}\n(.*?)(?=^#)", README, flags=re.M | re.S)
    assert match, f"no section for cvsim {command}"
    return match.group(1)


def test_readme_is_at_most_250_lines():
    assert len(README.splitlines()) <= MAX_LINES


def test_library_example_prints_what_its_comments_say():
    (code,) = blocks("python")
    want = [line.split("#")[-1].strip() for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want


def test_network_config_is_the_pinned_readme_network():
    (config,) = blocks("json")
    assert json.loads(config) == README_NETWORK


def test_command_lines_run_in_order_and_exit_0(tmp_path, monkeypatch):
    lines = [line for block in blocks("sh") for line in block.splitlines()
             if line.startswith("cvsim ") and "|" not in line]
    assert {line.split()[1] for line in lines} == set(_parser().commands)
    (config,) = blocks("json")
    (tmp_path / "network.json").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with redirect_stdout(io.StringIO()):
            main(shlex.split(line)[1:], standalone_mode=False)  # a failure raises


@pytest.mark.parametrize("command", list(_parser().commands))
def test_command_section_names_every_option(command):
    text = section(command)
    missing = [flag for flag in _parser().commands[command].flags if f"`{flag}`" not in text]
    assert not missing
