"""A pytest plugin that fails the session if a function in src/guardsim
is never called. Standard library only; needs Python 3.11 or later
(`co_qualname`). Run it over tier-1 from the repository root:

    PYTHONPATH=src:tools python -m pytest -q -p reachability

It installs a profile hook (`sys.setprofile`) before collection and records
the code of every Python call. At the end of the session it lists, as
`file:line qualname`, each function or method defined in src/guardsim that
no test called, and fails the session if there is one. Module code, class
bodies, lambdas and comprehensions do not count. Calls made in another
thread or in a subprocess are not seen.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "guardsim"

_called: set = set()
_uncalled: list[str] = []


def _profile(frame, event, arg) -> None:
    _called.add(frame.f_code)


def _functions(code):
    """Every function and method nested in `code`, by its code object."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if (const.co_flags & inspect.CO_OPTIMIZED
                    and not const.co_name.startswith("<")):
                yield const
            yield from _functions(const)


def _key(code) -> tuple:
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_qualname)


def pytest_configure(config) -> None:
    sys.setprofile(_profile)


def pytest_sessionfinish(session, exitstatus) -> None:
    sys.setprofile(None)
    called = {_key(code) for code in _called}
    for path in sorted(SRC.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for code in _functions(module):
            if _key(code) not in called:
                _uncalled.append(f"{path.relative_to(SRC.parent.parent)}:"
                                 f"{code.co_firstlineno} {code.co_qualname}")
    if _uncalled and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter) -> None:
    if _uncalled:
        terminalreporter.section("functions in src/guardsim no test called")
        for line in _uncalled:
            terminalreporter.write_line(line)
