"""Golden help, usage and error text of the CLI.

Each case runs in-process through ``main(argv)`` with ``COLUMNS=80`` (argparse
wraps its text at the terminal width); its exit code, stdout and stderr must
match ``tests/golden/usage/<case>.out`` byte for byte.  The cases are the
bare command and ``--help``, ``--help`` of every subcommand, an unknown
subcommand, and an unknown flag and a bad value for every subcommand.
Regenerate the fixtures (only when a text change is intended) with
``python tests/test_cli_usage.py``.
"""

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "usage"

SUBCOMMANDS = ["density", "moments", "cumulants", "classify", "atoms", "convolve-power",
               "levy", "transform", "verify"]
BAD_VALUES = {
    "density": ["--points", "two"],
    "moments": ["--n", "x"],
    "cumulants": ["--method", "bogus"],
    "classify": ["--a", "inf"],
    "atoms": ["--b", "1/0"],
    "convolve-power": ["--format", "xml"],
    "levy": ["--sigma", "-nan"],
    "transform": ["--z", "1+infj"],
    "verify": ["--suite", "bogus"],
}
CASES = (
    [[], ["--help"], ["bogus"], ["moment", "--n", "4"]]
    + [[cmd, "--help"] for cmd in SUBCOMMANDS]
    + [[cmd, "--bogus", "1"] for cmd in SUBCOMMANDS]
    + [[cmd, *BAD_VALUES[cmd]] for cmd in SUBCOMMANDS]
)


def fixture_path(argv):
    name = re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_") or "no_arguments"
    return GOLDEN / f"{name}.out"


def transcript(argv):
    """Exit code, stdout and stderr of ``main(argv)`` as one text."""
    from freemeixner.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def test_cases_have_distinct_fixtures():
    assert len({fixture_path(argv) for argv in CASES}) == len(CASES) == 31


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_usage_text_matches_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert transcript(argv) == fixture_path(argv).read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for argv in CASES:
        fixture_path(argv).write_text(transcript(argv), encoding="utf-8")
        print(f"wrote {fixture_path(argv).relative_to(ROOT)}")
