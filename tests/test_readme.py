"""README's examples run as written, so an API or output change cannot
leave them stale: the Python blocks are executed, and each shell
example that shows its JSON output is replayed in-process."""

import re
import shlex
from pathlib import Path

import pytest

from test_golden import invoke

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _shell_examples() -> list[tuple[str, str]]:
    """(command, output) for each `$ ` line of an sh block whose next
    line is its output, continuation lines joined; an output elided with
    `...` is not compared."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S):
        lines = block.replace("\\\n", " ").splitlines()
        for command, output in zip(lines, lines[1:]):
            if command.startswith("$ ") and output and not output.startswith("$ "):
                if "..." not in output:
                    examples.append((command[2:], output))
    return examples


EXAMPLES = _shell_examples()


def test_shell_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_shell_example(command, output):
    """Each stage of the pipe is `echo '...'` (stdin for the next) or
    `python -m schlicht ...`, run through schlicht.cli.main."""
    stdout = ""
    for stage in command.split("|"):
        words = shlex.split(stage, comments=True)
        if words[0] == "echo":
            stdout = " ".join(words[1:]) + "\n"
            continue
        assert words[:3] == ["python", "-m", "schlicht"], stage
        code, stdout = invoke(words[3:], stdout)
        assert code == 0, stage
    assert stdout == output + "\n"
