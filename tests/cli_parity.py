"""Byte-for-byte comparison of the command line against another checkout.

Usage::

    python tests/cli_parity.py PARENT_DIR

``PARENT_DIR`` is another tree of this repository, such as a ``git archive``
of the commit a change starts from.  The script runs each command line in
``CASES`` as ``python -m depmark`` twice, with ``PYTHONPATH`` set to this
checkout's ``src`` and then to ``PARENT_DIR/src``, and compares the exit
codes, stdout and stderr.  Both runs start in one temporary directory that
holds this checkout's bundled models and table and a few broken inputs, so
the arguments and the paths a manifest records are the same and only the
code differs.  It prints each command line whose runs differ, with what
differs, and exits 1 if any do, else 0.

It starts two child processes per case, about 10 s in all on a 2-core
x86-64 host, and it needs a second tree, so it is not part of the test
suite.  Standard library only.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Inputs written next to the bundled files, by name.
BROKEN = {
    "halfinit.mdl": 'state 1 "up" class = operational;\ninit 1 = 0.5;\n',  # a fatal validation finding
    "syntax.mdl": 'state 1 "up" class = operational\n',  # a parse error
    "empty.csv": "",
}

_SWEEP = ["--param", "C", "--values", "0.9,0.95,0.99,1", "--at", "4380"]
_OVERFLOW = ["--method", "paper-literal", "--dt", "3", "--grid", "0:4380:3", "--set", "LAMBDA1=1", "--set", "C=1"]

CASES: tuple[list[str], ...] = (
    # every command, in CSV and in JSON
    ["validate", "dfwcs.mdl"],
    ["solve", "dfwcs.mdl", "--at", "4380"],
    ["solve", "dfwcs.mdl", "--at", "4380", "--output", "json"],
    ["solve", "dfwcs.mdl", "--grid", "0:4380:1"],
    ["solve", "dfwcs.mdl", "--grid", "0:4380:10", "--output", "json"],
    ["solve", "dfwcs.mdl", "--method", "expm", "--grid", "0:4380:100"],
    ["solve", "dfwcs.mdl", "--set", "C=0.99", "--method", "euler", "--dt", "0.5", "--grid", "0:100:10"],
    ["solve", "dfwcs.mdl", "--method", "paper-literal", "--dt", "1", "--grid", "0:4380:1"],
    ["solve", "dfwcs_pid.mdl", "--method", "paper-literal", "--grid", "0:4380:24", "--output", "json"],
    ["sweep", "dfwcs.mdl", *_SWEEP],
    ["sweep", "dfwcs.mdl", *_SWEEP, "--set", "MU=0.5", "--method", "expm", "--output", "json"],
    ["simulate", "dfwcs.mdl", "--at", "4380", "--trials", "100000", "--seed", "3"],
    ["simulate", "toy_twostate.mdl", "--at", "2", "--trials", "1000", "--set", "L=0.25", "--output", "json"],
    ["audit", "--table", "table3.csv"],
    ["audit", "--table", "table3.csv", "--output", "json"],
    # the literal march that overflows, manifest settings that need repr
    ["solve", "dfwcs.mdl", *_OVERFLOW],
    ["solve", "dfwcs.mdl", *_OVERFLOW, "--output", "json"],
    ["solve", "dfwcs.mdl", "--at", "4380.0000001", "--set", "C=0.1234567890123", "--eps", "1.0000000001e-12"],
    ["solve", "dfwcs.mdl", "--at", "1", "--method", "euler", "--dt", "0.1000000001"],
    # first cells that print alike at 9 digits, and ones that do not
    ["sweep", "dfwcs.mdl", "--param", "C", "--values", "0.9,0.9000000001", "--at", "4380"],
    ["sweep", "dfwcs.mdl", "--param", "C", "--values", "0.9,0.9000000001", "--at", "4380", "--output", "json"],
    ["solve", "toy_twostate.mdl", "--grid", "100000:100000.0003:0.0001"],
    ["solve", "toy_twostate.mdl", "--method", "euler", "--dt", "0.5", "--grid", "0:4:0.7"],
    # exit 1: validation, domain and audit findings
    ["validate", "halfinit.mdl"],
    ["solve", "halfinit.mdl", "--at", "1"],
    ["sweep", "halfinit.mdl", "--param", "C", "--values", "0.9", "--at", "1"],
    ["simulate", "halfinit.mdl", "--at", "1", "--trials", "10"],
    ["solve", "dfwcs.mdl", "--at", "10", "--set", "C=1.5"],
    ["solve", "toy_twostate.mdl", "--at", "2", "--method", "paper-literal"],
    # exit 2: usage, parse and I/O errors
    ["validate", "syntax.mdl"],
    ["solve", "missing.mdl", "--at", "1"],
    ["solve", "dfwcs.mdl", "--grid", "0:10"],
    ["solve", "dfwcs.mdl", "--at", "1", "--set", "C"],
    ["solve", "dfwcs.mdl", "--at", "4380", "--eps", "5e-324"],
    ["audit", "--table", "empty.csv"],
    ["solve", "--help"],
    ["--version"],
    # exit 3: numeric failures
    ["solve", "dfwcs.mdl", "--at", "100", "--method", "euler", "--dt", "100"],
    ["solve", "dfwcs.mdl", "--at", "1e300", "--method", "expm"],
)


def outcome(tree: pathlib.Path, argv: list[str], cwd: pathlib.Path) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "depmark", *argv], cwd=cwd, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def main(args: list[str]) -> int:
    if len(args) != 1 or not (pathlib.Path(args[0]) / "src" / "depmark").is_dir():
        print("usage: python tests/cli_parity.py PARENT_DIR  (a tree with src/depmark)", file=sys.stderr)
        return 2
    parent = pathlib.Path(args[0]).resolve()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = pathlib.Path(tmp)
        for path in [*(REPO_ROOT / "src" / "depmark" / "models").glob("*.mdl"),
                     REPO_ROOT / "src" / "depmark" / "tables" / "table3.csv"]:
            shutil.copy(path, cwd / path.name)
        for name, text in BROKEN.items():
            (cwd / name).write_text(text, encoding="utf-8")
        for argv in CASES:
            ours, theirs = outcome(REPO_ROOT, argv, cwd), outcome(parent, argv, cwd)
            parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), ours, theirs) if a != b]
            if parts:
                differing += 1
                print(f"differs ({', '.join(parts)}): depmark {' '.join(argv)}", flush=True)
    print(f"{differing} of {len(CASES)} command lines differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
