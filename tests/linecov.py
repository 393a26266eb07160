"""Lines of ``src/depmark`` that the test suite never runs.

Usage::

    python tests/linecov.py               # the whole suite
    python tests/linecov.py tests/test_lang.py -k golden   # any pytest arguments

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``,
tracing only frames whose code lives under ``src/depmark``, then prints each
executable line that never ran as ``path:line: source``.  A line is executable
when a code object compiled from the file names it in ``co_lines``.  The last
line gives the count.

Code that runs only in child processes is not seen: ``__main__.py``, and the
lines of ``cli.py`` that only a ``depmark`` or ``python -m depmark`` process
reaches, are listed though the suite runs them.  So are the bodies of
``if TYPE_CHECKING:`` blocks, which no run executes.

The trace makes the suite about twice as slow (about 80 s on a 2-core x86-64
host), so this is not part of the suite.  Standard library and pytest only.
"""

from __future__ import annotations

import os
import pathlib
import sys
import threading
from types import CodeType, FrameType

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "depmark"


def code_lines(code: CodeType) -> set[int]:
    """The line numbers ``code`` itself names (a module's line 0 left out)."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: pathlib.Path) -> set[int]:
    """Every line number that a code object compiled from ``path`` names."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines |= code_lines(code)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def main(pytest_args: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[CodeType, set[int]] = {}
    done: set[CodeType] = set()  # every line seen: its later calls go untraced

    def local(frame: FrameType, event: str, arg: object):
        code = frame.f_code
        if event == "line":
            ran[code].add(frame.f_lineno)
        elif event == "return" and ran[code] >= code_lines(code):
            done.add(code)
        return local

    def tracer(frame: FrameType, event: str, arg: object):
        code = frame.f_code
        if code in done or not code.co_filename.startswith(prefix):
            return None
        # a call counts its first line: 3.11 gives no line event for it
        ran.setdefault(code, set()).add(frame.f_lineno)
        return local

    # the suite's child processes import this tree, as under PYTHONPATH=src
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    os.chdir(REPO_ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    by_file: dict[str, set[int]] = {}
    for code, lines in ran.items():
        by_file.setdefault(code.co_filename, set()).update(lines)
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        text = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        for line in sorted(lines - by_file.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(REPO_ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
