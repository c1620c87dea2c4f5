"""The README's library quickstart runs as a doctest, and its command-line
examples run in-process, so the documented interface cannot drift from the
code."""

import doctest
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from partition_paths.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_examples_pass():
    test = doctest.DocTestParser().get_doctest(
        _quickstart(), {}, "README quickstart", str(README), 0
    )
    report = []
    runner = doctest.DocTestRunner()
    results = runner.run(test, out=report.append)
    assert results.attempted == len(test.examples) > 0
    assert results.failed == 0, "".join(report)


def _cli_examples() -> list:
    """(command line, printed output) for each ``$ partition-paths ...``
    example under "## Command-line tool"."""
    section = README.read_text().split("## Command-line tool", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for example in re.split(r"^\$ ", block, flags=re.M)[1:]:
        line, _, output = example.partition("\n")
        examples.append(pytest.param(line, output.rstrip("\n") + "\n", id=line))
    return examples


@pytest.mark.parametrize("line, printed", _cli_examples())
def test_cli_example(capsys, monkeypatch, line, printed):
    # each stage of a pipeline reads the previous stage's stdout
    out = ""
    for stage in line.split(" | "):
        program, *argv = shlex.split(stage)
        assert program == "partition-paths"
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), stage
    if "\n...\n" in printed:  # an elided middle: the first and last lines
        lines, want = out.splitlines(), printed.splitlines()
        assert (lines[0], lines[-1]) == (want[0], want[-1])
    else:
        assert out == printed
