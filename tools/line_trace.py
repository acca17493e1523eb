"""Which lines of a package a pytest run never executes, with the standard
library only.

It runs pytest in this process with a trace function (``sys.settrace``, and
``threading.settrace`` for the threads the run starts) that records each line
executed in a source file under the package directory. It then prints every
executable line of those files that did not run, one per line as
``path:line: source``, and a summary line:

    PYTHONPATH=src python tools/line_trace.py
    PYTHONPATH=src python tools/line_trace.py --package src/gigmix -- -q tests/test_cli.py

Arguments after ``--`` go to pytest (default: ``-q``). The exit status is
pytest's.

The executable lines of a file are those in the line tables (``co_lines``)
of its compiled code objects, nested ones included. A function's or class's
first line belongs to the code that defines it, so it counts there and not
again in the body's own code object. Code that only runs in a subprocess
(``python -m gigmix`` in the CLI tests) is not seen, and neither is code that
ran before the trace was set: run the tool in a fresh interpreter, without
importing the package first. Traced, tier-1 took 225 s against 96 s
untraced on a 2-CPU machine.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import threading


def executable_lines(path: pathlib.Path) -> set:
    """The lines of the Python file ``path`` that its code objects execute."""
    lines = set()
    stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), False)]
    while stack:
        code, nested = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if nested:
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend((const, True) for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def traced_run(package: pathlib.Path, pytest_args: list) -> tuple:
    """Run pytest with ``pytest_args`` in this process while recording the
    lines run in files under ``package``; returns (pytest's exit code, the
    lines run as a set of (resolved path, line))."""
    import pytest

    prefix = os.path.realpath(package) + os.sep
    ran = set()
    wanted = {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_trace(frame, event, arg):
        code = frame.f_code
        keep = wanted.get(code)
        if keep is None:
            # co_filename can be None while the interpreter shuts down.
            filename = code.co_filename
            keep = wanted[code] = isinstance(filename, str) and os.path.realpath(filename).startswith(prefix)
        return local if keep else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(global_trace)
    threading.settrace(global_trace)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return int(code), {(os.path.realpath(f), line) for f, line in ran}


def missed_lines(package: pathlib.Path, ran: set) -> tuple:
    """The executable lines of ``package``'s files not in ``ran``, as sorted
    (path, line, source) triples, and the count of executable lines."""
    missed, total = [], 0
    for path in sorted(pathlib.Path(os.path.realpath(package)).rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        missed += [(path, line, source[line - 1].strip()) for line in sorted(lines) if (str(path), line) not in ran]
    return missed, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--package", default="src/gigmix", help="package directory to trace (default: src/gigmix)")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    package = pathlib.Path(args.package)
    code, ran = traced_run(package, args.pytest_args or ["-q"])
    missed, total = missed_lines(package, ran)
    for path, line, text in missed:
        print(f"{os.path.relpath(path)}:{line}: {text}")
    print(f"{total - len(missed)} of {total} executable lines ran; {len(missed)} did not")
    return code


if __name__ == "__main__":
    sys.exit(main())
