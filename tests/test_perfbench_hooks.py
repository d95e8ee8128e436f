"""The benchmark tracer (perfbench/tracing.py) wraps engine functions by name;
a rename in the engine must fail here rather than break ``--trace 1``."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src"
MARK = "# looked up by perfbench/tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    hooks = [(module, attr) for module, attr, _ in tracing.SPANS]
    hooks += [(owner, attr) for owner, attr, _ in tracing.COUNTS]
    hooks += [(module, "json") for module in tracing.JSON_USERS]
    owners = [
        importlib.import_module(owner) if isinstance(owner, str) else owner for owner, _ in hooks
    ]
    originals = [getattr(owner, attr) for owner, (_, attr) in zip(owners, hooks)]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, (name, attr), original in zip(owners, hooks, originals):
            assert getattr(owner, attr) is not original, (name, attr)
    finally:
        tracer.uninstall()
    for owner, (name, attr), original in zip(owners, hooks, originals):
        assert getattr(owner, attr) is original, (name, attr)


def test_marked_imports_are_hooked():
    """Each ``src/`` import marked as looked up by the tracer binds a name that
    the tracer hooks in the importing module, so that no such import outlives
    its hook."""
    tracing = _load_tracing()
    hooked = {(owner, attr) for owner, attr, _ in tracing.SPANS + tracing.COUNTS if isinstance(owner, str)}
    marked, statements, marked_lines = [], 0, 0
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        marked_lines += sum(MARK in line for line in lines)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and MARK in lines[node.end_lineno - 1]:
                statements += 1
                marked += [(module, (alias.asname or alias.name).split(".")[0]) for alias in node.names]
    assert marked, "no marked import left: drop this test with the mark"
    assert statements == marked_lines, "the mark is on a line that ends no import"
    assert [pair for pair in marked if pair not in hooked] == []
