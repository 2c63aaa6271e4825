"""Smoke test of the narrative demos: each runs to completion in a fresh
interpreter and prints something.  The demos read the census structures
directly, so this catches a demo left behind by a change to them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.strip()
