"""numpy stays the only runtime dependency: the package imports nothing else
outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "fsro").glob("*.py"))


def absolute_imports(path):
    """(line, top-level module) of every absolute import in the file, nested ones too."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    assert SOURCES
    foreign = [f"{path.name}:{line} imports {name}"
               for path in SOURCES for line, name in absolute_imports(path)
               if name != "numpy" and name not in sys.stdlib_module_names]
    assert not foreign, foreign
