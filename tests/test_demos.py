"""Every demo script runs to completion as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Lines a demo's output must contain: replay_roundtrip shows both replay verdicts.
EXPECTED = {
    "replay_roundtrip.py": ("replay matches recorded outcome exactly", "replay diverges at outcome.gft: recorded"),
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    for text in EXPECTED.get(demo.name, ()):
        assert text in done.stdout
