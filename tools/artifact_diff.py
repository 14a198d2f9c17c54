"""Compare what two source trees write for one fixed battery of CLI commands.

    python3 tools/artifact_diff.py PARENT_SRC CHANGE_SRC

Each side runs in a fresh python3 process with PYTHONPATH=<its src> and
OPENBLAS_NUM_THREADS=1, which calls tvarseq.cli.main once per command of
battery().  Both sides write under the same temporary directory, one output
directory per command, because the commands print their output paths and
pinsker's JSON echoes the spec file's path; each side's files are then moved
aside, so that both are kept.

A command is byte-identical if its exit code, stdout, stderr, file names and
file bytes are equal.  Only a written file whose bytes differ is parsed.  A
CSV column or a JSON value is a float field if every value in it is a float
on both sides; its difference is max|a - b| over the field divided by the
field's largest |value|.  Every other field (an integer or 0/1 column such as
tau_l and gamma_l, a JSON int, bool or string such as selected_k) must be
equal.  A command differs beyond RTOL if its exit code, stdout, stderr, file
names or exact fields differ, or if a float difference exceeds RTOL.

Prints the largest float difference per file name (a byte-equal file counts
0), each command that differs beyond RTOL, each tree's line count
"src/tvarseq lines: P -> C", and last
"N commands, B byte-identical, K differ beyond rtol 1e-12".  Exits 1 if K > 0,
else 0, and 2 if a side could not run.
"""

import contextlib
import filecmp
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

SPECS = {
    # S = 0.3 psi_2 + 0.1 psi_5 on [1, 3], off the default interval
    "series": {"kind": "series", "a": 1.0, "b": 3.0, "coefficients": [0.0, 0.3, 0.0, 0.0, 0.1],
               "stability_eps": 0.3, "lipschitz_L": 10.0},
    "tabulated": {"kind": "tabulated", "values": [0.1, 0.4, -0.2, 0.3, 0.0],
                  "stability_eps": 0.3, "lipschitz_L": 10.0},
    # sup|S| = 1.697 on [0, 1]: outside the stability set
    "unstable": {"kind": "series", "coefficients": [0.0, 1.2], "stability_eps": 0.1},
}


RTOL = 1e-12  # the bound on a float that a change may move by reordering operations
USAGE = "usage: python3 tools/artifact_diff.py PARENT_SRC CHANGE_SRC"
OUT = ["--out", "{out}"]  # stands for the command's own output directory


def battery(root):
    """The command lines; spec files live under root."""
    signals = ["s1", "s2"] + [f"series:{os.path.join(root, name)}.json"
                              for name in ("series", "tabulated")]
    cmds = [["estimate", "--signal", sig, "--noise", noise, "--n", n, "--seed", "7", *OUT]
            for sig in signals for noise in ("gaussian", "uniform", "none")
            for n in ("200", "2000", "10007")]
    for sig in signals:
        cmds += [["beta", "--signal", sig, *OUT],
                 ["beta", "--signal", sig, "--i-max", "7", "--noise", "none", *OUT],
                 ["simulate", "--signal", sig, "--seed", "3", *OUT],
                 ["pinsker", "--k", "2", "--r", "1", "--signal", sig, *OUT],
                 ["risk-table", "--signal", sig, "--noise", "all", "--n", "200,500,10000",
                  "--M", "6", *OUT]]
    cmds += [["pinsker", "--k", "3", "--r", "2"], ["pinsker", "--k", "3", "--r", "2", *OUT]]
    # d = 23: beta_i up to i = 60 reads frequencies m past d/2 (mirrored) and past d (wrapped)
    cmds += [["beta", "--signal", signals[2], "--n", "500", "--i-max", "60", *OUT]]
    # 7 paths of n = 70000 run in groups of 3, 3 and 1 whole paths
    cmds += [["risk-table", "--signal", "s2", "--noise", "gaussian", "--n", "70000", "--M", "7",
              *OUT]]
    # one path of n = 300000 is two steps: the worker thread draws the second
    cmds += [["estimate", "--signal", "s2", "--noise", "uniform", "--n", "300000", *OUT]]
    unstable = f"series:{os.path.join(root, 'unstable')}.json"
    cmds += [["estimate", "--n", "50", *OUT], ["risk-table", "--M", "0", *OUT],
             ["simulate", "--signal", "s9", *OUT], ["estimate", "--signal", unstable, *OUT]]
    return cmds


def run_side(root):
    """Run the battery in this process; one record per command, keyed by its command line."""
    from tvarseq.cli import main

    records = {}
    for i, cmd in enumerate(battery(root)):
        out = os.path.join(root, "out", str(i))
        argv = [out if arg == "{out}" else arg for arg in cmd]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        files = [os.path.relpath(os.path.join(folder, name), out)
                 for folder, _, names in os.walk(out) for name in names]
        records[" ".join(cmd).replace(root, "<tmp>")] = {
            "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": sorted(files)}
    return records


def collect(src, root):
    """The records of the tree at src, from a fresh process that writes under root."""
    src = os.path.abspath(src)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--side", src, root],
                          capture_output=True, text=True, env=env, cwd=root)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: the battery did not run:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _column(cells):
    """A CSV column as a float array, or as its text if it holds integers or words."""
    if all(cell.lstrip("-").isdigit() for cell in cells):
        return cells
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return cells


def _leaves(doc, path=""):
    """{dotted path: value} of every leaf of a JSON document, each as a one-value field."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return {k: v for key, sub in items for k, v in _leaves(sub, f"{path}.{key}").items()}
    return {path.lstrip("."): np.array([doc]) if type(doc) is float else [doc]}


def fields(path):
    """A written file as {field: values}, a float field as an array: a CSV's
    columns (its '#' lines as one field), or the leaves of a JSON document."""
    with open(path, encoding="utf-8") as fh:
        if not path.endswith(".csv"):
            return _leaves(json.load(fh))
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    table = {"#": [line for line in lines if line.startswith("#")]}
    for name, cells in zip(rows[0], zip(*rows[1:]) if len(rows) > 1 else [()] * len(rows[0])):
        table[name] = _column(list(cells))
    return table


def _relative(a, b):
    """max|a - b| / max|a| over one float field; equal values (nan included) count 0."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0.0
    scale = max(np.max(np.abs(a[np.isfinite(a)]), initial=0.0),
                np.max(np.abs(b[np.isfinite(b)]), initial=0.0))
    diff = np.nan_to_num(np.abs(a - b)[~same], nan=math.inf)  # nan against a number
    return float(np.max(diff) / scale) if scale > 0 else math.inf


def compare_file(before, after):
    """(largest float-field difference, [exact field differences]) of two written files."""
    fa, fb = fields(before), fields(after)
    if fa.keys() != fb.keys():
        return 0.0, [f"fields {sorted(fa.keys() ^ fb.keys())}"]
    worst, exact = 0.0, []
    for name, a in fa.items():
        b = fb[name]
        if len(a) != len(b):
            exact.append(f"{name}: {len(a)} against {len(b)} values")
        elif isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            worst = max(worst, _relative(a, b))
        elif list(a) != list(b):
            exact.append(f"{name}: {sum(x != y for x, y in zip(a, b))} of {len(a)} values")
    return worst, exact


def compare(before, after, dirs):
    """({file name: (files, largest difference)}, byte-identical commands,
    [(command, what differs beyond RTOL)]) of two sides' records, whose files
    lie under dirs[0] and dirs[1], one directory per command in battery order."""
    per_name, identical, diffs = {}, 0, []
    for i, (cmd, a) in enumerate(before.items()):
        b = after[cmd]
        parts = [k for k in ("exit", "stdout", "stderr", "files") if a[k] != b[k]]
        same = not parts
        for name in sorted(set(a["files"]) & set(b["files"])):
            paths = [os.path.join(d, str(i), name) for d in dirs]
            worst, exact = 0.0, []
            if not filecmp.cmp(*paths, shallow=False):
                same = False
                worst, exact = compare_file(*paths)
            count, largest = per_name.get(name, (0, 0.0))
            per_name[name] = (count + 1, max(largest, worst))
            parts += [f"{name} {what}" for what in exact]
            if worst > RTOL:
                parts.append(f"{name} {worst:.3g} > rtol")
        identical += same
        if parts:
            diffs.append((cmd, parts))
    return per_name, identical, diffs


def line_count(src):
    """Lines in the .py files of the package tvarseq under src, as wc -l counts them."""
    return sum(path.read_text(encoding="utf-8").count("\n")
               for path in pathlib.Path(src, "tvarseq").glob("*.py"))


def report(before, after, dirs, sources):
    """Print the comparison of two sides (compare) and the line counts of their
    source trees, and return the exit code."""
    per_name, identical, diffs = compare(before, after, dirs)
    print("largest relative difference per file name:")
    width = max(map(len, per_name), default=0)
    for name, (count, largest) in sorted(per_name.items()):
        print(f"  {name:{width}s} {largest:9.3g}  ({count} files)")
    for cmd, parts in sorted(diffs):
        print(f"differs: {cmd}  [{', '.join(parts)}]")
    print(f"src/tvarseq lines: {line_count(sources[0])} -> {line_count(sources[1])}")
    print(f"{len(before)} commands, {identical} byte-identical, "
          f"{len(diffs)} differ beyond rtol {RTOL:g}")
    return 1 if diffs else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "--side":
        import tvarseq
        if not os.path.realpath(tvarseq.__file__).startswith(os.path.realpath(argv[1]) + os.sep):
            sys.exit(f"tvarseq was imported from {tvarseq.__file__}, not from {argv[1]}")
        print(json.dumps(run_side(argv[2])))
        return 0
    if len(argv) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as root:
        for name, spec in SPECS.items():
            with open(os.path.join(root, f"{name}.json"), "w") as fh:
                json.dump(spec, fh)
        sides, dirs = [], []
        for src in argv:
            try:
                sides.append(collect(src, root))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            # both sides write the same paths: each side's files move aside to be kept
            dirs.append(os.path.join(root, f"side{len(dirs)}"))
            os.rename(os.path.join(root, "out"), dirs[-1])
        return report(*sides, dirs, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
