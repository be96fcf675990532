"""The package's module graph."""

import ast
from pathlib import Path

import sltrans


def test_no_function_level_package_import():
    """Every import of one sltrans module by another sits at module level,
    so the import graph is the one the module headers show."""
    nested = []
    for path in sorted(Path(sltrans.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (
                        node.level > 0 or (node.module or "").startswith("sltrans")):
                    nested.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert nested == []
