"""tools/artifact_diff.py: a tree against itself, and against a copy that moves the
estimate; its --rtol mode on the same tree and on hand-written files."""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

import tvarseq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tvarseq.__file__)))
TOOL = os.path.join(os.path.dirname(SRC), "tools", "artifact_diff.py")


def diff(*argv):
    return subprocess.run([sys.executable, TOOL, *argv], capture_output=True,
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


def test_rtol_same_tree_exits_0():
    proc = diff("--rtol", "1e-12", SRC, SRC)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "largest relative difference per file name:"
    per_name = [line.split() for line in lines[1:-1]]
    assert {row[0] for row in per_name} >= {"coefficients.csv", "s_star.csv", "selection.json",
                                            "seq_points.csv", "risk_table.csv", "beta.csv"}
    assert all(row[1] == "0" for row in per_name)
    assert lines[-1].endswith(" commands, 0 differ beyond rtol 1e-12")


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rtol_compares_floats_by_scale_and_the_rest_exactly(tmp_path):
    tool = load_tool()
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    before.write_text("# config_hash=x\nl,z_l,tau_l\n1,0.5,3\n2,-2.0,4\n3,1e-17,5\n")
    after.write_text("# config_hash=x\nl,z_l,tau_l\n1,0.5000000000000004,3\n2,-2.0,7\n"
                     "3,-3e-17,5\n")
    # z_l: the largest move, at l = 1, over the column's largest |value|, 2
    worst, exact = tool.compare_file(str(before), str(after))
    assert worst == (0.5000000000000004 - 0.5) / 2.0 and exact == ["tau_l: 1 of 3 values"]
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    J = -0.25 * (1 + 2e-15)
    before.write_text(json.dumps({"selected_k": 1, "gamma": True, "J": -0.25,
                                  "x": [1.0, math.nan]}))
    after.write_text(json.dumps({"selected_k": 2, "gamma": False, "J": J, "x": [1.0, math.nan]}))
    worst, exact = tool.compare_file(str(before), str(after))
    assert worst == abs(J + 0.25) / abs(J)  # nan against nan is no difference
    assert exact == ["selected_k: 1 of 1 values", "gamma: 1 of 1 values"]
    assert tool.compare_file(str(before), str(before)) == (0.0, [])
