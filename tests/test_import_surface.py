"""The package imports only the standard library and what ``setup.py`` declares.

``setup.py`` declares ``install_requires`` (NumPy, and SciPy >= 1.16 for
PRIMA's COBYLA core); a clean install has nothing else.  An import of any
other third-party module in ``src/repro`` would make ``import repro`` fail
there, so these tests scan every import statement of the package and import
it with a blocked module.

They also pin the cold-start surface: ``import repro`` and a COBYLA solve
load neither ``scipy.optimize`` nor ``scipy.linalg`` (about 40 MB and half a
second of every process's start).
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"


def _install_requires() -> dict[str, str]:
    """Each requirement of ``setup.py``, keyed by its distribution name."""
    tree = ast.parse((REPO / "setup.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            requirements = [ast.literal_eval(element) for element in node.value.elts]
            return {re.match(r"[A-Za-z0-9_.-]+", req).group(): req for req in requirements}
    raise AssertionError("setup.py declares no install_requires")


def _imported_roots(path: pathlib.Path) -> set[str]:
    roots: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_install_requires_is_numpy_and_scipy():
    assert set(_install_requires()) == {"numpy", "scipy"}


def test_scipy_floor_covers_prima():
    # PRIMA's COBYLA core (scipy/_lib/pyprima) first ships in SciPy 1.16.
    assert _install_requires()["scipy"] == "scipy>=1.16"


def test_package_imports_only_stdlib_and_declared_requirements():
    allowed = set(sys.stdlib_module_names) | {"repro"} | set(_install_requires())
    undeclared = {
        str(path.relative_to(REPO)): sorted(_imported_roots(path) - allowed)
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {path: roots for path, roots in undeclared.items() if roots} == {}


def test_import_repro_without_networkx():
    # ``sys.modules[name] = None`` makes any ``import name`` raise, as on an
    # install that lacks the package.
    environment = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; sys.modules['networkx'] = None; import repro; "
            "repro.make_benchmark('G4', 0)",
        ],
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_solves_leave_out_scipy_optimize_and_linalg():
    # COBYLA runs PRIMA's core without scipy.optimize, and expm is imported
    # only by the reference routines; Nelder-Mead imports scipy.optimize
    # when it runs.
    script = """
import json, sys
import repro
from repro.solvers.optimizer import NelderMeadOptimizer

def heavy():
    return sorted(n for n in ("scipy.optimize", "scipy.linalg") if n in sys.modules)

stages = {"import": heavy()}
repro.solve("K1", "choco-q", backend="subspace")
stages["choco-q subspace K1"] = heavy()
repro.solve("F1", "penalty-qaoa")
stages["penalty F1"] = heavy()
result = NelderMeadOptimizer(max_iterations=50).minimize(lambda x: float((x ** 2).sum()), [1.0, 1.0])
stages["nelder-mead"] = result.cost < 1.0
print(json.dumps(stages))
"""
    environment = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == {
        "import": [],
        "choco-q subspace K1": [],
        "penalty F1": [],
        "nelder-mead": True,
    }
