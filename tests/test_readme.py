"""The README's python quickstart and command-line examples run against the code as it is."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from bellri.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quickstart", "exec"), {})


def test_command_line_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Command line\n.*?```sh\n(.*?)```", text, re.S)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert len(commands) == 6 and all(argv[0] == "bellri" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out


def test_cited_tests_are_collected():
    # a renamed or deleted test must not leave the README citing nothing
    cited = sorted(set(re.findall(r"tests/\w+\.py::[\w:]+", README.read_text(encoding="utf-8"))))
    assert cited
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *cited],
        cwd=README.parent, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    collected = result.stdout.splitlines()
    for node in cited:
        assert any(line == node or line.startswith((node + "::", node + "[")) for line in collected), node
