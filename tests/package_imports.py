"""Static import graph of the ottocircle package, read from its sources."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ottocircle"


def imported_modules(module: str) -> set[str]:
    """Dotted names of every module a package module imports, also inside
    functions; relative imports resolve against the ottocircle package."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("ottocircle" + (f".{node.module}" if node.module else "")
                    if node.level else node.module)
            names.update([f"{base}.{a.name}" for a in node.names] if base == "ottocircle" else [base])
    return names


def package_imports(module: str) -> set[str]:
    """The ottocircle modules that `module` imports, by their short names."""
    return {name.split(".")[1] for name in imported_modules(module)
            if name.startswith("ottocircle.")}
