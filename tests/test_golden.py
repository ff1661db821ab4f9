"""Golden output for every CLI example in the README, and for its Quick start.

Each ``freemeixner ...`` line of the README's "Command line" block runs
in-process through ``main(argv)``; its stdout must match the fixture under
``tests/golden/`` byte for byte.  ``HIGH_ORDER_EXAMPLES`` pins runs at
the top of the CLI's order range the same way, and the README's "Quick
start" Python block runs whole against ``readme_quickstart.out``.
Regenerate the fixtures (only when an output change is intended) with
``python tests/test_golden.py``.
"""

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# Exact runs at the largest order the CLI accepts, on a law with b != 0 and
# an unequal variance split, so every exact kernel scales by a common
# denominator other than 1.
HIGH_ORDER_EXAMPLES = [
    ["verify", "--suite", "all", "--a", "5/2", "--b", "1/2", "--alpha", "1/3", "--n", "24"],
]


def readme_examples():
    """argv lists of the README's CLI examples, comments stripped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("freemeixner "):
            examples.append(shlex.split(line)[1:])
    return examples


def readme_quickstart_output():
    """Stdout of the README's "Quick start" Python block, run whole."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, "README.md Quick start", "exec"), {"__name__": "readme_quickstart"})
    return buf.getvalue()


QUICKSTART = GOLDEN / "readme_quickstart.out"


def fixture_path(argv):
    return GOLDEN / (re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_") + ".out")


def test_readme_has_examples():
    paths = [fixture_path(argv) for argv in readme_examples()]
    assert len(paths) == 10
    assert len(set(paths)) == len(paths)


def assert_matches_golden(argv, capsys):
    from freemeixner.cli import main

    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == fixture_path(argv).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_matches_golden(argv, capsys):
    assert_matches_golden(argv, capsys)


@pytest.mark.parametrize("argv", HIGH_ORDER_EXAMPLES, ids=" ".join)
def test_high_order_example_matches_golden(argv, capsys):
    assert_matches_golden(argv, capsys)


def test_readme_quickstart_matches_golden():
    assert readme_quickstart_output() == QUICKSTART.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    from freemeixner.cli import main

    GOLDEN.mkdir(exist_ok=True)
    for argv in readme_examples() + HIGH_ORDER_EXAMPLES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        fixture_path(argv).write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {fixture_path(argv).relative_to(ROOT)}")
    QUICKSTART.write_text(readme_quickstart_output(), encoding="utf-8")
    print(f"wrote {QUICKSTART.relative_to(ROOT)}")
