"""The benchmark harness reads chunks, fused frames, trajectories and match
sets through the library's own types; its self-test runs it end to end on
a tiny scene, so a change that breaks the harness fails here."""

import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    # writes only under the git-ignored .bench_work/, which it removes
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave bench/ as it is
    run = subprocess.run([sys.executable, str(SELFTEST)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
