"""Pytest plugin: list the lines of each ``src/mqttprobe`` module that no test ran.

Stdlib only (``coverage`` is not a dependency): ``sys.settrace`` and
``threading.settrace`` record every line run in this process and its
threads; child processes are not traced.  Load it with
``PYTHONPATH=src:tests python -m pytest -p linecov``.
"""

import dis
import sys
import threading
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src" / "mqttprobe")
_ran: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None
    lines = _ran.setdefault(frame.f_code.co_filename, set())
    lines.add(frame.f_lineno)

    def line(frame, event, arg):
        lines.add(frame.f_lineno)
        return line
    return line


def _executable(code):
    yield from (line for _, line in dis.findlinestarts(code) if line)
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _executable(const)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(Path(SRC).glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = sorted(set(_executable(code)) - _ran.get(str(path), set()))
        terminalreporter.write_line(f"{path.name}: {len(missed)} lines not run: {missed}")
