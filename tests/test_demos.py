"""Each demo script runs to the end through the public API and prints
something, and so does the README's command-line tour."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_cli_tour_runs(tmp_path):
    # the tour calls the `depmark` console script; a shim first on PATH runs
    # this checkout's package in its place
    shim = tmp_path / "depmark"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m depmark "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]), PYTHONPATH="src")
    proc = subprocess.run(
        ["sh", "demos/cli_tour.sh"], cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert sum(line.startswith("### ") for line in proc.stdout.splitlines()) == 7
    assert "audit exit code: 1" in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr
