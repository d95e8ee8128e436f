"""The benchmark tracer (perfbench/tracing.py) wraps engine functions by name;
a rename in the engine must fail here rather than break ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
