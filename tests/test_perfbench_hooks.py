"""The benchmark tracer (perfbench/tracing.py) wraps engine functions by name;
a rename in the engine must fail here rather than break ``--trace 1``."""

import importlib.util
from pathlib import Path

import locscore.harness.batch as batch
import locscore.rewards as rewards
from locscore.config import EngineConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (rewards.parse_completion, batch.to_space, EngineConfig.validate)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert rewards.parse_completion is not originals[0]
    finally:
        tracer.uninstall()
    assert (rewards.parse_completion, batch.to_space, EngineConfig.validate) == originals
