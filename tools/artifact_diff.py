"""Compare what two source trees write for one fixed battery of CLI commands.

    python3 tools/artifact_diff.py PARENT_SRC CHANGE_SRC

Each side runs in a fresh python3 process with PYTHONPATH=<its src> and
OPENBLAS_NUM_THREADS=1, which calls tvarseq.cli.main once per command of
battery().  Both sides write under the same temporary directory, one output
directory per command, because the commands print their output paths and
pinsker's JSON echoes the spec file's path.  Per command, the exit code and
the sha256 of stdout, of stderr and of each written file's name and bytes are
compared.  Prints each command that differs; exits 1 if any does, else 0
(2 if a side could not run).
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

SPECS = {
    # S = 0.3 psi_2 + 0.1 psi_5 on [1, 3], off the default interval
    "series": {"kind": "series", "a": 1.0, "b": 3.0, "coefficients": [0.0, 0.3, 0.0, 0.0, 0.1],
               "stability_eps": 0.3, "lipschitz_L": 10.0},
    "tabulated": {"kind": "tabulated", "values": [0.1, 0.4, -0.2, 0.3, 0.0],
                  "stability_eps": 0.3, "lipschitz_L": 10.0},
    # sup|S| = 1.697 on [0, 1]: outside the stability set
    "unstable": {"kind": "series", "coefficients": [0.0, 1.2], "stability_eps": 0.1},
}


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
    unstable = f"series:{os.path.join(root, 'unstable')}.json"
    cmds += [["estimate", "--n", "50", *OUT], ["risk-table", "--M", "0", *OUT],
             ["simulate", "--signal", "s9", *OUT], ["estimate", "--signal", unstable, *OUT]]
    return cmds


def _digest(data):
    return hashlib.sha256(data).hexdigest()


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
        files = {}
        for folder, _, names in os.walk(out):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = _digest(fh.read())
        records[" ".join(cmd).replace(root, "<tmp>")] = {
            "exit": code, "stdout": _digest(stdout.getvalue().encode()),
            "stderr": _digest(stderr.getvalue().encode()), "files": dict(sorted(files.items()))}
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


def differences(before, after):
    """(command, what differs) for each command whose records differ."""
    diffs = []
    for cmd in before.keys() | after.keys():
        a, b = before.get(cmd), after.get(cmd)
        if a != b:
            parts = ["missing"] if a is None or b is None else [k for k in a if a[k] != b[k]]
            diffs.append((cmd, parts))
    return sorted(diffs)


def main(argv):
    if len(argv) == 3 and argv[0] == "--side":
        import tvarseq
        if not os.path.realpath(tvarseq.__file__).startswith(os.path.realpath(argv[1]) + os.sep):
            sys.exit(f"tvarseq was imported from {tvarseq.__file__}, not from {argv[1]}")
        print(json.dumps(run_side(argv[2])))
        return 0
    if len(argv) != 2:
        print("usage: python3 tools/artifact_diff.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as root:
        for name, spec in SPECS.items():
            with open(os.path.join(root, f"{name}.json"), "w") as fh:
                json.dump(spec, fh)
        sides = []
        for src in argv:
            try:
                sides.append(collect(src, root))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            shutil.rmtree(os.path.join(root, "out"), ignore_errors=True)
    diffs = differences(*sides)
    for cmd, parts in diffs:
        print(f"differs: {cmd}  [{', '.join(parts)}]")
    print(f"{len(sides[0])} commands, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
