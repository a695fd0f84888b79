"""The README's python examples run as written, and its fewshift
command lines parse."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fewshift import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
COMMANDS = [
    line
    for block in re.findall(r"```[a-z]*\n(.*?)```", README, re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("fewshift ")
]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", source], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_has_fewshift_commands():
    assert len(COMMANDS) >= 6


@pytest.mark.parametrize("line", COMMANDS, ids=[f"command{i}" for i in range(len(COMMANDS))])
def test_readme_command_parses(line):
    # an unknown subcommand, flag or stage raises SystemExit, which fails the test
    cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
