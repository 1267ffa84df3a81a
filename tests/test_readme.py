"""The README's examples run as written and show what they print.

The Quick start block is executed statement by statement; an expression
statement with a trailing comment must show the commented value (``str``
of the result), where a trailing ``...`` means the value starts with
what precedes it.  Each Command line example followed directly by
commented output lines is run through ``cli.run``, and its output lines
are compared the same way.
"""

from __future__ import annotations

import ast
import io
import shlex
import tokenize
from pathlib import Path

from surveyrisk.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the line ``heading``."""
    text = README.read_text(encoding="utf-8")
    text = text[text.index(f"\n{heading}\n"):]
    start = text.index(f"```{lang}\n") + len(f"```{lang}\n")
    return text[start:text.index("```", start)]


def _shows(value: str, comment: str) -> bool:
    if comment.endswith("..."):
        return value.startswith(comment[:-3])
    return value == comment


def _trailing_comments(source: str) -> dict[int, str]:
    """Line number -> comment text, for comments that follow code."""
    return {tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT and tok.line[:tok.start[1]].strip()}


def _cli_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, output lines) of each command directly followed by output."""
    examples: list[tuple[list[str], list[str]]] = []
    command, after_command = "", False
    for line in _block("## Command line", "sh").splitlines():
        if command or line.startswith("surveyrisk "):
            command += line.removesuffix("\\")
            if not line.endswith("\\"):
                examples.append((shlex.split(command)[1:], []))
                command, after_command = "", True
        elif after_command and line.startswith("# "):
            examples[-1][1].append(line[2:])
        else:
            after_command = False
    return [example for example in examples if example[1]]


def test_quick_start_shows_its_values():
    source = _block("## Quick start", "python")
    comments = _trailing_comments(source)
    namespace: dict = {}
    shown = {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            shown[code] = (str(eval(code, namespace)), comments[stmt.end_lineno])
        else:
            exec(code, namespace)
    assert shown
    assert {code: pair for code, pair in shown.items()
            if not _shows(*pair)} == {}


def test_command_line_examples_show_their_output(capsys):
    examples = _cli_examples()
    assert examples
    for argv, want in examples:
        assert run(argv) == 0, argv
        got = capsys.readouterr().out.splitlines()
        assert len(got) == len(want), argv
        assert all(_shows(g, w) for g, w in zip(got, want)), (argv, got, want)
