"""The demos print what they printed when their outputs were pinned.

Each demo runs in a fresh interpreter, as a user would run it, and its
standard output must match ``tests/pinned/demos/<demo>.txt`` byte for
byte.  A change that alters a demo's output on purpose re-records the
file (``python demos/<demo>.py > tests/pinned/demos/<demo>.txt``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "pinned" / "demos"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}


@pytest.mark.parametrize("demo", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_output_pinned(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (PINNED / f"{demo}.txt").read_text()
