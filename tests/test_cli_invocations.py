"""Every CLI command line the docs, the Makefile and CI spell out must
parse under the subcommand parser and reach its target's handler.

Parse only, nothing runs.  This guards the argparse table the way
``protocols --check-doc`` guards the registry table: renaming a flag or
moving it off a target fails here, not in a reader's terminal.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.harness.cli import TARGETS, build_parser

ROOT = Path(__file__).resolve().parent.parent
PREFIX = re.compile(r"(?:denovosync-bench|-m repro\.harness\.cli)\s+(.*)")
SHELL_PUNCTUATION = set("();<>|&")


def command_in(text: str) -> list[list[str]]:
    """The CLI arguments of the command in ``text`` (one shell line), cut
    at its comment, redirection or pipe; [] when it holds no command."""
    match = PREFIX.search(text)
    if match is None:
        return []
    lexer = shlex.shlex(match.group(1), posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    tokens = []
    for token in lexer:
        if set(token) <= SHELL_PUNCTUATION:
            break
        tokens.append(token)
    return [tokens]


def join_continuations(text: str) -> str:
    return re.sub(r"\\\n", " ", text)


def markdown_commands(text: str) -> list[list[str]]:
    """Commands in fenced or indented code blocks, and in inline code
    spans (which may wrap across lines)."""
    commands, prose = [], []
    fenced = False
    for line in join_continuations(text).splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced or (line.startswith("    ") and "`" not in line):
            # `# ...` spans are the shell idiom for trailing comments.
            commands += command_in(re.sub(r"`#[^`]*`", "", line))
        else:
            prose.append(line)
    for span in re.findall(r"`([^`]+)`", " ".join(prose)):
        commands += command_in(span)
    return commands


def makefile_commands(text: str) -> list[list[str]]:
    """Recipe (and comment) commands with each ``$(VAR)`` replaced by its
    ``VAR ?= default``."""
    defaults = dict(re.findall(r"^(\w+)\s*\?=\s*(.*?)\s*$", text, re.MULTILINE))
    text = re.sub(r"\$\((\w+)\)", lambda m: defaults.get(m.group(1), m.group(0)), text)
    return [cmd for line in join_continuations(text).splitlines() for cmd in command_in(line)]


def workflow_commands(text: str) -> list[list[str]]:
    """Commands in a GitHub workflow's ``run:`` values; ``>`` blocks are
    folded into one line, as YAML does."""
    commands = []
    lines = text.splitlines()
    for index, line in enumerate(lines):
        match = re.match(r"(\s*(?:- )?)run:\s*(.*)$", line)
        if match is None:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if value.rstrip("-") in (">", "|"):
            block = []
            for body in lines[index + 1:]:
                if body.strip() and len(body) - len(body.lstrip()) <= indent:
                    break
                block.append(body.strip())
            value = ("\n" if value.startswith("|") else " ").join(block)
        for body_line in join_continuations(value).splitlines():
            commands += command_in(body_line)
    return commands


def documented_invocations() -> list[tuple[str, list[str]]]:
    sources = [
        (path, markdown_commands)
        for path in [ROOT / "README.md", ROOT / "EXPERIMENTS.md", *sorted(ROOT.glob("docs/*.md"))]
    ]
    sources += [
        (ROOT / "Makefile", makefile_commands),
        (ROOT / ".github" / "workflows" / "ci.yml", workflow_commands),
    ]
    return [
        (str(path.relative_to(ROOT)), argv)
        for path, extract in sources
        for argv in extract(path.read_text())
    ]


INVOCATIONS = documented_invocations()


def test_every_source_is_scanned():
    files = {source for source, _ in INVOCATIONS}
    assert {
        "README.md", "EXPERIMENTS.md", "docs/architecture.md", "docs/formal.md",
        "Makefile", ".github/workflows/ci.yml",
    } <= files
    assert len(INVOCATIONS) >= 50


@pytest.mark.parametrize(
    "source, argv", INVOCATIONS, ids=[f"{s}: {' '.join(a)}" for s, a in INVOCATIONS]
)
def test_invocation_parses_to_its_handler(source, argv):
    assert argv and argv[0] in TARGETS, f"{source}: unknown target in {argv}"
    parser = build_parser()
    if "--help" in argv or "-h" in argv:
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 0
        return
    args = parser.parse_args(argv)
    assert args.handler is TARGETS[argv[0]].handler


def test_extraction_handles_every_spelling():
    readme = (
        "run `denovosync-bench\nchaos-service` here\n\n"
        "```bash\ndenovosync-bench fig3 --jobs 4   # comment\n"
        "denovosync-bench serve --port 1 \\\n    --workers 2    `# why` \\\n    --max-retries 3\n"
        "```\n\n    python -m repro.harness.cli mc --bound 2   # indented block\n"
    )
    assert markdown_commands(readme) == [
        ["fig3", "--jobs", "4"],
        ["serve", "--port", "1", "--workers", "2", "--max-retries", "3"],
        ["mc", "--bound", "2"],
        ["chaos-service"],
    ]
    makefile = (
        'N ?= 7\nx:\n\t$(PYTHON) -m repro.harness.cli run --workload "a/b" \\\n'
        "\t\t--cores $(N)\n"
    )
    assert makefile_commands(makefile) == [["run", "--workload", "a/b", "--cores", "7"]]
    workflow = (
        "      - name: a\n        run: >\n          python -m repro.harness.cli fig3\n"
        "          --jobs 2 > out.csv\n      - name: b\n        run: |\n"
        "          python -m repro.harness.cli serve \\\n            --port 1 > log 2>&1 &\n"
        "          echo done\n"
    )
    assert workflow_commands(workflow) == [["fig3", "--jobs", "2"], ["serve", "--port", "1"]]
