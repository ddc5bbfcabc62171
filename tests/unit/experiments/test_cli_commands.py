"""Every documented ``python -m repro.experiments`` command parses.

The commands come from the CI workflow, README.md, docs/*.md, the
checked-in verification notes (SKILL.md) and the golden-regeneration
docstrings under tests/.  Each is parsed by the CLI's own parser and
combination checks, and nothing runs, so a flag renamed or taken from
a target fails here rather than in CI or in a reader's shell.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.experiments.__main__ import parse_args

ROOT = Path(__file__).resolve().parents[3]

SOURCES = [
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    *sorted(ROOT.glob(".*/skills/*/SKILL.md")),
    *sorted((ROOT / "tests").rglob("*.py")),
]

#: A command line starts with the invocation, after an optional shell
#: prompt, environment assignments and ``timeout N``/``env`` wrappers;
#: a mention inside a sentence or inline code does not.
COMMAND = re.compile(
    r"^\s*(?:\$\s+)?(?:(?:[A-Z_]+=\S*|timeout\s+\d+|env)\s+)*"
    r"python3? -m repro\.experiments\s+(?P<args>.*)$"
)

#: Shell variables and ``<placeholders>`` stand for values no parser
#: can check.
UNRESOLVED = re.compile(r"\$|<[\w .-]+>")

#: Redirections, pipes and command separators end the argv.
SHELL = re.compile(r"^\d*[<>|&;]")


def _logical_lines(path: Path):
    """(first line number, text) with backslash continuations joined."""
    pending, start = "", 0
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not pending:
            start = number
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield start, pending + line
        pending = ""


def _commands():
    for path in SOURCES:
        for number, line in _logical_lines(path):
            match = COMMAND.match(line)
            if match is None or UNRESOLVED.search(match["args"]):
                continue
            argv = []
            for token in shlex.split(match["args"], comments=True):
                if SHELL.match(token):
                    break
                argv.append(token)
            source = f"{path.relative_to(ROOT)}:{number}"
            yield pytest.param(argv, id=source)


COMMANDS = list(_commands())


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv, capsys):
    try:
        parse_args(argv)
    except SystemExit:
        pytest.fail(f"{' '.join(argv)!r} does not parse: "
                    f"{capsys.readouterr().err}")


def test_every_source_kind_documents_commands():
    sources = {param.id.split(":")[0] for param in COMMANDS}
    assert ".github/workflows/ci.yml" in sources
    assert "README.md" in sources
    assert any(source.endswith("SKILL.md") for source in sources)
    assert any(source.startswith("docs/") for source in sources)
    assert any(source.startswith("tests/") for source in sources)
