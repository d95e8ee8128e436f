"""The library's public surface: the README's "Library API" list, the two
``__all__`` lists, no public definition that nothing but a test reads, and no
private name imported from one module of the package into another."""

import ast
import re
from pathlib import Path

import locscore
import locscore.harness

ROOT = Path(__file__).resolve().parent.parent
PACKAGES = {"locscore": locscore, "locscore.harness": locscore.harness}
# the code a public name may be read by
READERS = [path for folder in ("src", "scripts", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))]


def _readme_api():
    """Package -> names, from the README's "Library API" section."""
    section = (ROOT / "README.md").read_text().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    api = {}
    for line in section.splitlines():
        package = re.match(r"- `([\w.]+)`$", line)
        if package:
            names = api.setdefault(package.group(1), [])
        elif line.startswith("  "):
            names += re.findall(r"`(\w+)`", line)
    return api


def test_readme_lists_exactly_the_exports():
    api = _readme_api()
    assert api.keys() == PACKAGES.keys()
    for name, package in PACKAGES.items():
        assert sorted(api[name]) == sorted(package.__all__)
        assert [n for n in package.__all__ if not hasattr(package, n)] == []


def test_every_public_definition_is_read_or_exported():
    """A public top-level function or class is read by code in its own module,
    named as a whole word by another module of ``src/``, ``scripts/`` or
    ``perfbench/`` (the benchmark's tracer looks names up as strings), or
    exported."""
    exported = {name for package in PACKAGES.values() for name in package.__all__}
    texts = {path: path.read_text() for path in READERS}
    unread = []
    for path in sorted((ROOT / "src" / "locscore").rglob("*.py")):
        tree = ast.parse(texts[path])
        read_here = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read_here |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in exported or name in read_here:
                continue
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(text) for other, text in texts.items() if other != path):
                unread.append(f"{path.relative_to(ROOT)}: {name}")
    assert unread == []


def test_no_module_imports_another_modules_private_name():
    """A ``_``-prefixed name is private to its module: no module of the
    package imports one from another module of the package."""
    imported = []
    for path in sorted((ROOT / "src" / "locscore").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "locscore":
                continue
            names = [alias.name for alias in node.names if alias.name.startswith("_")]
            imported += [f"{path.relative_to(ROOT)}: {name}" for name in names]
    assert imported == []
