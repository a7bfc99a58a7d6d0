"""A call census of the test suite: every ``src/repro`` function is called.

A pytest plugin, loaded only by name::

    python -m pytest -q -p census tests/

It profiles the whole session (``sys.setprofile``) and records every code
object of ``src/repro`` that runs.  At session end it walks each module's
code objects -- functions, methods, nested functions and class bodies; not
module bodies, lambdas or comprehensions -- and fails the session unless
the set never called, keyed ``module:qualname``, equals ``uncalled.txt``
beside this file.  So a new uncalled function fails the run, and so does an
allowlisted one that is now called: the list can only shrink.

The profile is installed from ``pytest_load_initial_conftests``, before
``conftest.py`` imports ``repro``, so what runs at import time counts.
Profiling makes the suite about three times slower; CI runs it as a job of
its own.  Needs Python 3.11+ (``co_qualname``) and the whole suite: a
subset leaves most of ``src/repro`` uncalled.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWLIST = Path(__file__).with_name("uncalled.txt")

# Not functions: a module body runs once at import; a lambda or a
# comprehension is part of the function it is written in.
_SKIPPED = {"<module>", "<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>",
            "<genexpr>"}

# id(code) -> code.  Keyed by id because hashing a code object hashes its
# constants on every call; the value keeps the id from being reused.
_called: dict[int, object] = {}
#: The census section of the terminal summary.
_report: list[str] = []


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _called[id(code)] = code


def _functions(code):
    """Every function and class body compiled inside ``code``."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_name not in _SKIPPED:
                yield const
            yield from _functions(const)


def uncalled() -> set[str]:
    """``module:qualname`` of every ``src/repro`` function that never ran."""
    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_qualname) for code in _called.values()}
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("")
                          .parts).removesuffix(".__init__")
        filename = os.path.realpath(path)
        code = compile(path.read_text(), filename, "exec")
        for fn in _functions(code):
            if (filename, fn.co_firstlineno, fn.co_qualname) not in ran:
                names.add(f"{module}:{fn.co_qualname}")
    return names


def allowlist() -> dict[str, str]:
    """``module:qualname`` -> reason, one ``name  # reason`` a line."""
    entries = {}
    for line in ALLOWLIST.read_text().splitlines():
        name, _, reason = line.partition("#")
        if name.strip():
            entries[name.strip()] = reason.strip()
    return entries


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    sys.setprofile(_profile)


def pytest_sessionfinish(session, exitstatus):
    sys.setprofile(None)
    allowed = allowlist()
    never = uncalled()
    problems = (
        [f"never called, not allowlisted: {name}"
         for name in sorted(never - set(allowed))]
        + [f"allowlisted but called: {name}"
           for name in sorted(set(allowed) - never)]
        + [f"allowlisted without a reason: {name}"
           for name, reason in sorted(allowed.items()) if not reason])
    _report[:] = problems + [f"{len(allowed)} allowlisted in "
                             f"{ALLOWLIST.name}; {len(problems)} problem(s)"]
    if problems and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("call census")
    for line in _report:
        terminalreporter.write_line(line)
