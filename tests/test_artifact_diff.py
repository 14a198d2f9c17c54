"""tools/artifact_diff.py: a tree against itself, and against a copy that moves the estimate."""

import os
import shutil
import subprocess
import sys

import tvarseq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tvarseq.__file__)))
TOOL = os.path.join(os.path.dirname(SRC), "tools", "artifact_diff.py")


def diff(parent, change):
    return subprocess.run([sys.executable, TOOL, parent, change], capture_output=True,
                          text=True, timeout=300)


def test_same_tree_exits_0():
    proc = diff(SRC, SRC)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(" commands, 0 differ\n")


def test_changed_estimate_is_named(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "tvarseq" / "sequential.py"
    text = path.read_text()
    assert "\nMU0 = 0.5\n" in text
    path.write_text(text.replace("\nMU0 = 0.5\n", "\nMU0 = 0.6\n"))
    proc = diff(SRC, str(copy))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert any(line.startswith("differs: estimate ") for line in proc.stdout.splitlines())
