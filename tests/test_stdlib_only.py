"""The runtime stays on the standard library: `src/scenetg/*.py` imports nothing else,
and its syntax stays within the oldest Python that `pyproject.toml` declares."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "scenetg").glob("*.py"))


def _absolute_imports(path: Path):
    """The top-level module of every absolute import in `path`; relative imports are the package's own."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_import_only_the_standard_library():
    assert SOURCES
    foreign = [f"{path.name}: {name}" for path in SOURCES for name in _absolute_imports(path) if name not in sys.stdlib_module_names]
    assert foreign == []


def test_sources_parse_under_the_declared_python_floor():
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert floor, "pyproject.toml declares no requires-python floor of the form >=3.N"
    version = (3, int(floor.group(1)))
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
