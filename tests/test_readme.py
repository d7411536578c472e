"""README's examples hold: each ```python block runs, and each CLI command that is
followed by a ``# -> output`` line prints that output."""

import re
import shlex
from pathlib import Path

import pytest

from bilorentz import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
#: (command line after ``bilorentz``, the output its ``# ->`` line promises)
CLI_EXAMPLES = re.findall(r"^bilorentz (.*)\n# -> (.*)$", README, re.M)


def test_readme_holds_the_examples_checked_here():
    # The quick tour and the family-transform example; the transform worked example.
    assert len(PYTHON_BLOCKS) == 2
    assert CLI_EXAMPLES == [("transform --branch l --tau -1 --k 1 --vel 2 --vec 2,1",
                             "0.0,1.7320508075688776")]


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_each_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("command, output", CLI_EXAMPLES)
def test_each_cli_example_prints_its_arrow_line(command, output, capsys):
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out == output + "\n"
