#!/usr/bin/env python3
"""List the lines of mlfuse's sources that a pytest run never executes.

    python3 scripts/unreached.py [pytest args]

Runs pytest in this process, with the given arguments (tier-1's by
default), under a sys.settrace line tracer, then prints for each Python
file under src/mlfuse every line that compiles to code and never ran, as
`path:line: source`, and one count a file, `path: unreached/code lines`.
Only this process is traced: a command, program or toolchain step a test
spawns runs untraced, so what only a spawned process executes is listed
as unreached. The tracer starts before pytest imports mlfuse, so module
level lines count as run at import.

Exit status: pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlfuse"


def code_lines(path) -> set[int]:
    """The lines of a Python file that compile to code, in any function,
    class or module body."""
    source = Path(path).read_text(encoding="utf-8")
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTrace:
    """Records, while active, each line run in the files named: in this
    thread and in threads started meanwhile. It marks a line in a
    preallocated byte array, so that a traced line allocates nothing a
    test of traced memory would see."""

    def __init__(self, paths):
        self._marks = {str(p): bytearray(Path(p).read_bytes().count(b"\n") + 2)
                       for p in paths}
        self._local = {p: self._marker(m) for p, m in self._marks.items()}

    @staticmethod
    def _marker(marks):
        def local(frame, event, arg):
            marks[frame.f_lineno] = 1
            return local
        return local

    def _trace(self, frame, event, arg):
        local = self._local.get(frame.f_code.co_filename)
        return local and local(frame, event, arg)

    def __enter__(self):
        self._outer = sys.gettrace(), threading.gettrace()
        threading.settrace(self._trace)
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])

    @property
    def ran(self) -> dict:
        """The lines run, by path."""
        return {p: {n for n, hit in enumerate(m) if hit}
                for p, m in self._marks.items()}


def report(ran: dict, root=ROOT) -> list[str]:
    """Each file's unexecuted code lines, as `path:line: source`, then its
    count, `path: unreached/code lines`; paths relative to root."""
    out = []
    for path in sorted(ran):
        code, rel = code_lines(path), Path(path).relative_to(root)
        text = Path(path).read_text(encoding="utf-8").splitlines()
        missed = sorted(code - ran[path])
        out += [f"{rel}:{n}: {text[n - 1].strip()}" for n in missed]
        out.append(f"{rel}: {len(missed)}/{len(code)}")
    return out


def main(argv: list[str]) -> int:
    import pytest
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    with LineTrace(sorted(PACKAGE.rglob("*.py"))) as trace:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors",
                                    str(ROOT / "tests")])
    print("\n".join(report(trace.ran)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
