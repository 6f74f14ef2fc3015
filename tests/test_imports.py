"""Every ``packcol`` import in the code resolves.

A lazy import inside a function fails only when that function runs, so
a deleted module or name can hide behind a code path no test takes.
This walks the syntax tree of every file in ``packcol/``, ``scripts/``,
``tests/`` and ``__ray_entry__.py``, takes every absolute ``packcol``
import and every relative import inside the package, wherever it sits
in the file, and checks that each module imports and each imported
name exists (an attribute or a submodule)."""

import ast
import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _py_files():
    yield os.path.join(ROOT, "__ray_entry__.py")
    for top in ("packcol", "scripts", "tests"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            yield from (os.path.join(dirpath, n) for n in sorted(names)
                        if n.endswith(".py"))


def _package(path: str) -> str | None:
    """The package a file's relative imports resolve against."""
    rel = os.path.relpath(os.path.dirname(path), ROOT)
    return rel.replace(os.sep, ".") if rel.split(os.sep)[0] == "packcol" \
        else None


def _imports(path: str):
    """(line, module, names) for every packcol import in ``path``;
    ``names`` is empty for a plain ``import packcol.x``."""
    tree = ast.parse(open(path, encoding="utf-8").read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "packcol":
                    yield node.lineno, a.name, []
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                pkg = _package(path)
                assert pkg, f"{path}:{node.lineno}: relative import " \
                    "outside the package"
                base = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), pkg)
            elif (node.module or "").split(".")[0] == "packcol":
                base = node.module
            else:
                continue
            yield node.lineno, base, [a.name for a in node.names]


def _has(module, name: str) -> bool:
    return hasattr(module, name) or (
        hasattr(module, "__path__") and importlib.util.find_spec(
            f"{module.__name__}.{name}") is not None)


def test_every_packcol_import_resolves():
    missing, n = [], 0
    for path in _py_files():
        where = os.path.relpath(path, ROOT)
        for line, mod, names in _imports(path):
            n += 1
            try:
                m = importlib.import_module(mod)
            except ImportError as ex:
                missing.append(f"{where}:{line}: {mod} ({ex})")
                continue
            missing += [f"{where}:{line}: {mod}.{name}" for name in names
                        if name != "*" and not _has(m, name)]
    assert n > 500, n  # the walk found the code
    assert not missing, missing
