"""tools/artifact_diff.py: a tree against itself, and against a copy that moves the
estimate; its comparison on hand-written files and side directories; its usage."""

import importlib.util
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import tvarseq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tvarseq.__file__)))
TOOL = os.path.join(os.path.dirname(SRC), "tools", "artifact_diff.py")


def diff(*argv):
    return subprocess.run([sys.executable, TOOL, *argv], capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def same_tree():
    """One battery run of the tree against itself, read by the two tests below."""
    return diff(SRC, SRC)


def test_same_tree_exits_0(same_tree):
    assert same_tree.returncode == 0, same_tree.stdout + same_tree.stderr
    lines = same_tree.stdout.splitlines()
    assert lines[-1] == "65 commands, 65 byte-identical, 0 differ beyond rtol 1e-12"
    # the line before the summary counts each tree's lines, as wc -l does
    count = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in pathlib.Path(SRC, "tvarseq").glob("*.py"))
    assert lines[-2] == f"src/tvarseq lines: {count} -> {count}"


def test_rtol_same_tree_exits_0(same_tree):
    assert same_tree.returncode == 0, same_tree.stdout + same_tree.stderr
    lines = same_tree.stdout.splitlines()
    assert lines[0] == "largest relative difference per file name:"
    per_name = [line.split() for line in lines[1:-2]]
    assert {row[0] for row in per_name} >= {"coefficients.csv", "s_star.csv", "selection.json",
                                            "seq_points.csv", "risk_table.csv", "beta.csv"}
    assert all(row[1] == "0" for row in per_name)
    assert lines[-1].endswith(" byte-identical, 0 differ beyond rtol 1e-12")


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


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_battery_covers_every_command():
    # a new subcommand cannot go unchecked: the battery runs each one
    from tvarseq.cli import COMMANDS
    assert {cmd[0] for cmd in load_tool().battery("root")} == set(COMMANDS)


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


def sides(tmp_path, before, after):
    """(records, records, dirs) of two sides of one command that wrote {name: text} each."""
    records, dirs = [], []
    for i, files in enumerate((before, after)):
        out = tmp_path / f"side{i}"
        (out / "0").mkdir(parents=True)
        for name, text in files.items():
            (out / "0" / name).write_text(text)
        records.append({"cmd": {"exit": 0, "stdout": "", "stderr": "", "files": sorted(files)}})
        dirs.append(str(out))
    return *records, dirs


def test_byte_equal_file_is_not_parsed(tmp_path, capsys):
    tool = load_tool()
    files = {"broken.json": "{not json", "t.csv": "# config_hash=x\nl\n1\n"}
    both = sides(tmp_path, files, files)
    assert tool.compare(*both) == ({"broken.json": (1, 0.0), "t.csv": (1, 0.0)}, 1, [])
    assert tool.report(*both, (SRC, SRC)) == 0
    assert capsys.readouterr().out.endswith(
        "\n1 commands, 1 byte-identical, 0 differ beyond rtol 1e-12\n")


BEFORE = "# config_hash=x\nl,z_l,tau_l\n1,0.5,3\n2,-2.0,4\n"


@pytest.mark.parametrize("after, figure, differs", [
    (BEFORE.replace("-2.0,", "-2.000000000000002,"), 1e-15, None),
    (BEFORE.replace("-2.0,", "-2.000000002,"), 1e-9, "t.csv 1e-09 > rtol"),
    (BEFORE.replace(",4\n", ",5\n"), 0.0, "t.csv tau_l: 1 of 2 values"),
], ids=["float-1e-15", "float-1e-9", "integer"])
def test_moved_file_is_parsed(tmp_path, capsys, after, figure, differs):
    tool = load_tool()
    both = sides(tmp_path, {"t.csv": BEFORE}, {"t.csv": after})
    per_name, identical, diffs = tool.compare(*both)
    assert identical == 0 and per_name["t.csv"][1] == pytest.approx(figure, rel=0.2)
    assert diffs == ([] if differs is None else [("cmd", [differs])])
    assert tool.report(*both, (SRC, SRC)) == (differs is not None)
    assert capsys.readouterr().out.endswith(
        f"\n1 commands, 0 byte-identical, {len(diffs)} differ beyond rtol 1e-12\n")


@pytest.mark.parametrize("argv", [("--rtol", "1e-12", SRC, SRC), (SRC,)], ids=["rtol", "one"])
def test_two_positional_arguments(argv):
    proc = diff(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "usage: python3 tools/artifact_diff.py PARENT_SRC CHANGE_SRC\n"


def test_side_without_the_package_exits_2(tmp_path):
    proc = diff(str(tmp_path), SRC)
    assert proc.returncode == 2 and proc.stderr.startswith("error: "), proc.stderr
