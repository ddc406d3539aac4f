"""The CLI's output bytes, pinned: every line of ``tools/cli_digests.txt`` recomputed in process.

The digest of an invocation is ``tools/cli_digests.py``'s fingerprint of
its stdout, stderr and exit code.  The pinned digests hold for the
library versions in the file's header, so the test skips under others;
after a declared byte change, regenerate the file with the tool.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from nbpriors.cli import main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "tools" / "cli_digests.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def fingerprint(argv: list[str]) -> str:
    """The tool's digest of ``nbpriors ARGV``, run through ``cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return tool.fingerprint(out.getvalue().encode(), err.getvalue().encode(), code)


def test_every_invocation_gives_its_pinned_digest(monkeypatch):
    lines = (ROOT / "tools" / "cli_digests.txt").read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    if header != tool.versions():
        pytest.skip(f"digests pinned under {header}, running under {tool.versions()}")
    monkeypatch.setenv("COLUMNS", "80")  # as the tool runs it
    monkeypatch.chdir(ROOT)
    pinned = {command: digest for digest, command in (line.split(" ", 1) for line in lines if line[0] != "#")}
    assert list(pinned) == tool.INVOCATIONS
    differ = [command for command, digest in pinned.items() if fingerprint(command.split()) != digest]
    assert not differ, f"{len(differ)} of {len(pinned)} invocations changed their output: {differ}"
