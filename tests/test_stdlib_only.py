"""The runtime stays on the standard library: `src/scenetg/*.py` imports nothing else,
and its syntax stays within the oldest Python that `pyproject.toml` declares. Every file
it reads goes through `graphs.read_text`, so all its inputs follow one set of rules."""

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


def _reads_a_file(call: ast.Call) -> bool:
    """Whether `call` opens or reads a file: open/.open without a write mode, .read_text, .read_bytes, json.load."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes"):
        return True
    if isinstance(func, ast.Attribute) and func.attr == "load":
        return isinstance(func.value, ast.Name) and func.value.id == "json"
    if not (isinstance(func, ast.Name) and func.id == "open" or isinstance(func, ast.Attribute) and func.attr == "open"):
        return False
    # The mode is open(file, mode) or io.open(file, mode), but Path.open(mode).
    modes = call.args[:2] + [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    return not any(isinstance(m, ast.Constant) and str(m.value).strip("rbt+") in ("w", "a", "x") for m in modes)


class _ReadSites(ast.NodeVisitor):
    """The innermost enclosing function of every reading call in one module."""

    def __init__(self):
        self.scope, self.sites = "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if _reads_a_file(node):
            self.sites.append(self.scope)
        self.generic_visit(node)


def test_only_graphs_read_text_reads_a_file():
    sites = []
    for path in SOURCES:
        visitor = _ReadSites()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        sites += [f"{path.name}:{scope}" for scope in visitor.sites]
    assert sites == ["graphs.py:read_text"]


def test_one_walk_reads_the_writer_form_pattern():
    """`layout._WRITTEN_LINE` is loaded inside exactly one function, the walk that holds the writer form's rules."""
    path = ROOT / "src" / "scenetg" / "layout.py"
    readers = [
        func.name
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, ast.Name) and n.id == "_WRITTEN_LINE" and isinstance(n.ctx, ast.Load) for n in ast.walk(func))
    ]
    assert readers == ["_written_lines"]
