"""The core is single-threaded: no module under ``src/repro`` imports a
thread API.

Every plane runs on one simulated clock in one process; there is no
blocking I/O for threads to overlap, and the staged audit spine, the
tag interner and the wire translators carry no locks.  A module that
starts importing ``threading`` or ``concurrent.futures`` breaks that
contract, and this guard names it.
"""

import ast
from pathlib import Path

import pytest

import repro

FORBIDDEN = ("threading", "concurrent.futures")


def thread_imports(source: str):
    """``(line, module)`` for every import of a forbidden module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            # `from concurrent import futures` imports concurrent.futures.
            names = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        for name in names:
            if any(name == f or name.startswith(f + ".") for f in FORBIDDEN):
                found.append((node.lineno, name))
                break
    return found


@pytest.mark.parametrize(
    "source",
    [
        "import threading",
        "from threading import RLock",
        "import concurrent.futures as cf",
        "from concurrent.futures import ThreadPoolExecutor",
        "from concurrent import futures",
        "import os, threading",
        "def f():\n    import threading\n",
    ],
)
def test_checker_sees_thread_imports(source):
    assert thread_imports(source)


@pytest.mark.parametrize(
    "source",
    [
        "import threadpoolctl",
        "from repro.sim import threading_free",
        "import concurrent",
        "from . import threading",
        "x = 'import threading'",
    ],
)
def test_checker_ignores_lookalikes(source):
    assert thread_imports(source) == []


def test_no_module_under_src_imports_threads():
    root = Path(repro.__file__).resolve().parent
    offenders = {
        str(path.relative_to(root)): hits
        for path in sorted(root.rglob("*.py"))
        if (hits := thread_imports(path.read_text()))
    }
    assert offenders == {}
