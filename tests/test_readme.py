"""The README's examples run as written: every ``pivotgauge`` command line
parses, the configuration document loads and the Python API example runs.
So an input form, option or name that the package drops cannot live on in
its documentation."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
from itertools import takewhile
from pathlib import Path

from pivotgauge.cli import build_parser
from pivotgauge.config import build_config

README = Path(__file__).parent.parent / "README.md"
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _blocks(language: str) -> list[str]:
    return [body for lang, body in _FENCE.findall(README.read_text()) if lang == language]


def _command_lines() -> list[list[str]]:
    """The arguments of each ``pivotgauge`` call in the shell blocks, up to a
    pipe or redirection."""
    calls = []
    for line in "".join(_blocks("sh")).splitlines():
        words = shlex.split(line, comments=True)
        if "pivotgauge" in words:
            args = words[words.index("pivotgauge") + 1:]
            calls.append(list(takewhile(lambda word: word not in ("|", ">", "<"), args)))
    return calls


def test_readme_command_lines_parse():
    calls = _command_lines()
    parser = build_parser()
    for args in calls:
        parser.parse_args(args)  # a usage error exits with status 2
    assert {args[0] for args in calls} == {"simulate", "estimate", "sweep", "dynamic", "compare"}


def test_readme_config_document_loads():
    (document,) = _blocks("json")
    build_config(json.loads(document))


def test_readme_python_example_runs():
    (example,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert len(out.getvalue().splitlines()) == 361  # one line per frame over 12 s at 30 Hz
