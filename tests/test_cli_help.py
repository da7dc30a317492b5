"""CLI help and usage drift: `--help` and usage errors against a recorded text.

`tests/golden/cli_help.txt` holds, for each argument list of `CASES`, a
`$ stabspec ...` line, then what the CLI printed (stdout, then stderr)
and its exit code: the top-level help, each subcommand's help, and the
usage errors for an unknown subcommand and an unknown check.  The text
must match exactly, at an 80-column terminal.
"""

from __future__ import annotations

import contextlib
import io
import pathlib

from stabspec.cli import main as cli_main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_help.txt"

CASES = [
    ["--help"],
    *([name, "--help"] for name in
      ("slice-spectrum", "check", "sweep", "converge", "balance-bound")),
    ["frobnicate"],
    ["check", "t99"],
]


def help_text() -> str:
    """Every case's command line, output and exit code, in `CASES` order."""
    parts = []
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
        parts.append(f"$ stabspec {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}"
                     f"exit {code}\n")
    return "\n".join(parts)


def test_help_and_usage_match_the_golden_text(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_text() == GOLDEN.read_text()

