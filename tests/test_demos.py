"""Golden output for every script under ``demos/``.

Each demo runs in-process through ``runpy`` as ``__main__``; its stdout must
match ``tests/golden/demos/<name>.out`` byte for byte.  Regenerate the
fixtures (only when an output change is intended) with
``python tests/test_demos.py``.
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue()


def test_every_demo_has_a_fixture():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_matches_golden(path):
    assert run_demo(path) == (GOLDEN / f"{path.stem}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for path in DEMOS:
        out = GOLDEN / f"{path.stem}.out"
        out.write_text(run_demo(path), encoding="utf-8")
        print(f"wrote {out.relative_to(ROOT)}")
