"""Golden ``--help`` output of the root parser and every subcommand.

Each case runs ``repro [<command>] --help`` in-process at a fixed
terminal width and compares stdout with a committed text file under
``tests/golden_cli/``.  It pins every flag's name, order, metavar,
choices and help text, so a refactor of how the parser is built shows
any flag it renames, drops or reorders.

Python 3.9 titles the optional-argument section ``optional arguments:``
and later versions ``options:``; the comparison normalises the former.

Regenerate the files (only when a change is *meant* to alter the CLI
surface) with::

    PYTHONPATH=src python tests/test_cli_help_golden.py
"""

import contextlib
import io
import os
import sys

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_cli")

COMMANDS = (
    None, "demo", "replicate", "migrate", "table1", "coverage", "plan",
    "chaos", "serve", "fleet", "sweep", "profile", "experiments",
)

WIDTH = "100"


def render(command):
    """stdout of ``repro [command] --help``, section title normalised."""
    argv = ["--help"] if command is None else [command, "--help"]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
    assert excinfo.value.code == 0
    return buffer.getvalue().replace("optional arguments:", "options:")


def golden_path(command):
    return os.path.join(GOLDEN_DIR, f"help-{command or 'repro'}.txt")


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c or "repro")
def test_help_matches_golden(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", WIDTH)
    with open(golden_path(command), encoding="utf-8") as handle:
        expected = handle.read()
    assert render(command) == expected


if __name__ == "__main__":  # pragma: no cover
    os.environ["COLUMNS"] = WIDTH
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in COMMANDS:
        with open(golden_path(name), "w", encoding="utf-8") as handle:
            handle.write(render(name))
        print(f"wrote {golden_path(name)}", file=sys.stderr)
