"""Lines of ``src/memwave`` that the test suite never executes.

Runs the suite in this process under the standard library's ``trace`` line
counter and prints, for every module of ``src/memwave``, each executable
line (a line that starts bytecode, found with ``dis``) that no test ran,
with its source.  From the root of the repository::

    python tests/uncovered.py            # the whole suite
    python tests/uncovered.py -k cli     # extra arguments go to pytest

It writes nothing inside the repository: the suite runs from a temporary
directory, with no bytecode files and no pytest cache.  Code that tests
reach only in a child process (``subprocess``) counts as not executed.
The exit code is pytest's.
"""

from __future__ import annotations

import dis
import os
import sys
import tempfile
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "memwave"


def executable_lines(path: Path) -> set[int]:
    """Line numbers at which some code object compiled from ``path`` starts
    an instruction, nested functions and classes included."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # line 0 is the module's own RESUME, which no source line holds
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class _OutsidePackage(dict):
    """``trace``'s ignore test, by path and cached per path: ``trace.Trace``'s
    own list caches its answer per file base name, so once numpy's
    ``__init__`` is ignored, so is memwave's."""

    def names(self, filename: str, modulename: str) -> bool:
        if filename not in self:
            self[filename] = Path(filename).resolve().parent != PACKAGE
        return self[filename]


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _OutsidePackage()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            args = [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *argv]
            code = tracer.runfunc(pytest.main, args)
        finally:
            os.chdir(here)

    ran: dict[Path, set[int]] = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    missing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missing += 1
    print(f"{missing} executable lines of {PACKAGE.relative_to(ROOT)} not executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
