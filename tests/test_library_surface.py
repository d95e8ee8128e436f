"""The library's public surface: the README's "Library API" list, the two
``__all__`` lists, no public definition that nothing but a test reads, and no
private name imported from one module of the package into another."""

import ast
import importlib
import re
from enum import Enum
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


def _enum_values():
    """Each string value of an ``Enum`` member defined in the package -> (module path, class name)."""
    owners = {}
    for path in sorted((ROOT / "src" / "locscore").rglob("*.py")):
        name = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts).removesuffix(".__init__")
        for value in vars(importlib.import_module(name)).values():
            if isinstance(value, type) and issubclass(value, Enum) and value.__module__ == name:
                owners.update((member.value, (path, value.__name__)) for member in value)
    return owners


def test_no_module_spells_an_enum_value():
    """An ``Enum`` member's value is written once, in its class: elsewhere the
    package names the member, so a renamed value cannot leave a stale copy."""
    owners = _enum_values()
    assert {"structured", "box-label", "k3", "structured-coordinates", "pixels"} <= owners.keys()
    spelled = []
    for path in sorted((ROOT / "src" / "locscore").rglob("*.py")):
        tree = ast.parse(path.read_text())
        where = {}  # each string constant -> the class it is written in, if any
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                where.update((id(node), cls.name) for node in ast.walk(cls))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in owners:
                if owners[node.value] != (path, where.get(id(node))):
                    spelled.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.value!r}")
    assert spelled == []


def _object_dtype_lines(source):
    """Line of each call in ``source`` that asks for an object-dtype array: a ``dtype`` keyword,
    or the argument of ``astype`` or ``dtype``, naming ``object``, ``"O"`` or ``np.object_``,
    also inside an expression such as ``float if exact else object``."""

    def names_object(expr):
        return any(
            (isinstance(node, ast.Name) and node.id == "object")
            or (isinstance(node, ast.Constant) and node.value in ("O", "object"))
            or (isinstance(node, ast.Attribute) and node.attr == "object_")
            for node in ast.walk(expr)
        )

    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        dtypes = [keyword.value for keyword in node.keywords if keyword.arg == "dtype"]
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("astype", "dtype"):
            dtypes += node.args[:1]
        if any(map(names_object, dtypes)):
            lines.append(node.lineno)
    return lines


def test_no_object_dtype_array():
    """Every box is a float64 row: no module of the package makes an array of
    Python objects, so a second, object-dtype box arithmetic cannot come back."""
    probe = "np.array(a, dtype=float if f else object)\nnp.zeros(3, dtype='O')\na.astype(np.object_)\nnp.ones(2)\n"
    assert _object_dtype_lines(probe) == [1, 2, 3]
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src" / "locscore").rglob("*.py"))
        for line in _object_dtype_lines(path.read_text())
    ]
    assert found == []


def _alias_lines(source):
    """Line and name of each public module-level name in ``source`` bound to a bare
    name or an attribute, such as ``X = FormatKind.STRUCTURED``: a second name for
    one thing. A call, a union or a subscript makes something new and is not one."""
    aliases = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if not isinstance(node.value, (ast.Name, ast.Attribute)):
            continue
        names = [target.id for target in targets if isinstance(target, ast.Name)]
        aliases += [(node.lineno, name) for name in names if not name.startswith("_")]
    return aliases


def test_no_module_level_alias():
    """Each thing the package defines has one public name: no module binds
    another public name to it at module level."""
    probe = (
        "A = FormatKind.STRUCTURED\nB: type = Box\n_C = Box\nD = Box | None\n"
        "E = tuple[int, ...]\nF = make()\nG = H = np.inf\n"
    )
    assert _alias_lines(probe) == [(1, "A"), (2, "B"), (7, "G"), (7, "H")]
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "locscore").rglob("*.py"))
        for line, name in _alias_lines(path.read_text())
    ]
    assert found == []
