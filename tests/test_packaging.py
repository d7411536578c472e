"""The ``test`` extra of ``pyproject.toml`` installs every module the suite imports.

The modules are read from the ``import`` statements of ``tests/*.py`` with
``ast``, leaving out the standard library and the package itself.  Each one
must come from a distribution that ``pip install ".[test]"`` adds, directly or
through one of the package's own extras (numpy comes through ``verify``).
"""

import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")    # standard from CPython 3.11 on

ROOT = Path(__file__).resolve().parent.parent


def _name(requirement: str) -> str:
    """The normalised distribution name of a requirement such as ``numpy>=1.24``."""
    return re.sub(r"[-_.]+", "-", re.match(r"[\w.-]+", requirement.strip())[0]).lower()


def _provided(project: dict, extra: str) -> set:
    """The distributions that installing the package with ``extra`` adds."""
    names = set()
    for requirement in project["optional-dependencies"][extra]:
        if _name(requirement) == _name(project["name"]):
            for inner in re.search(r"\[(.*)\]", requirement)[1].split(","):
                names |= _provided(project, inner.strip())
        else:
            names.add(_name(requirement))
    return names


def _imported(path: Path):
    """The top-level module of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_test_extra_installs_every_module_the_tests_import():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    modules = {module for path in (ROOT / "tests").glob("*.py") for module in _imported(path)}
    modules -= {*sys.stdlib_module_names, project["name"]}
    assert {"pytest", "hypothesis", "numpy"} <= modules
    provided = _provided(project, "test")
    dists = importlib.metadata.packages_distributions()
    missing = sorted(module for module in modules
                     if not provided & {_name(dist) for dist in dists.get(module, [module])})
    assert not missing, f"the test extra of pyproject.toml lacks {missing}"
