"""The CLI examples of README.md, run as written.

Each ``bispec ...`` line of the README's CLI block goes through
``bispec.cli.main`` in-process and must exit 0.  A trailing comment is a
claim ``# -> a; b``: each of ``a`` and ``b`` is a line of the command's
output, verbatim.  A transcript (a ``$ bispec ...`` line in a shell
block, followed by the lines it prints) must print exactly those lines.
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


def transcripts() -> list[tuple[str, list[str]]]:
    """(command, printed lines) for each ``$ bispec`` line of a shell block."""
    blocks = README.read_text().split("```sh\n")[1:]
    found = []
    for block in blocks:
        lines = block.split("```", 1)[0].splitlines()
        if lines and lines[0].startswith("$ bispec "):
            found.append((lines[0][len("$ "):], lines[1:]))
    assert found, "README has no bispec transcript"
    return found


def run(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(shlex.split(command)[1:])
    return rc, out.getvalue()


def command_of(line: str) -> str:
    """The command of a README line, its output claims left out: the test
    id, so that a change to an answer's text renames no test."""
    return line.partition("#")[0].strip()


@pytest.mark.parametrize("line", cli_examples(), ids=command_of)
def test_readme_cli_example(line):
    command, _, comment = line.partition("#")
    rc, out = run(command)
    assert rc == 0
    comment = comment.strip()
    if comment:
        assert comment.startswith("-> "), f"not an output claim: {comment!r}"
        printed = out.splitlines()
        for claim in comment[len("-> "):].split("; "):
            assert claim in printed


@pytest.mark.parametrize("command, printed", transcripts())
def test_readme_transcript(command, printed):
    assert run(command) == (0, "\n".join(printed) + "\n")
