"""The CLI examples of README.md, run as written.

Each ``bispec ...`` line of the README's CLI block goes through
``bispec.cli.main`` in-process and must exit 0.  A trailing comment is a
claim ``# -> a; b``: each of ``a`` and ``b`` is a line of the command's
output, verbatim.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from bispec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples() -> list[str]:
    """The command lines of the first code block under "## CLI"."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("bispec ")]
    assert lines, "README's CLI block has no bispec command"
    return lines


@pytest.mark.parametrize("line", cli_examples())
def test_readme_cli_example(line):
    command, _, comment = line.partition("#")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(shlex.split(command)[1:])
    assert rc == 0
    comment = comment.strip()
    if comment:
        assert comment.startswith("-> "), f"not an output claim: {comment!r}"
        printed = out.getvalue().splitlines()
        for claim in comment[len("-> "):].split("; "):
            assert claim in printed
