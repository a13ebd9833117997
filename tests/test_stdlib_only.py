"""The runtime stays on the standard library: `src/scenetg/*.py` imports nothing else."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "scenetg").glob("*.py"))


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
