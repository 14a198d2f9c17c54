"""Every walkthrough in demos/ runs to completion against this source tree."""

import glob
import os
import subprocess
import sys

import pytest

import tvarseq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tvarseq.__file__)))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    proc = subprocess.run([sys.executable, path], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
