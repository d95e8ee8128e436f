"""Engine configuration: defaults, JSON loading and decoding.

Precedence is request-level override > config file > ``DEFAULT_CONFIG``,
the dataclasses' own defaults (box-only matcher, beginner/advanced
triples, beta 0.2, k3 KL estimator). The keys a config object may hold
are exactly those ``config_to_dict`` writes.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .errors import InvalidConfigError
from .fields import read_field, read_numbers
from .grpo import DEFAULT_BETA, DEFAULT_EPSILON, KlMode
from .matching import MatcherPolicy
from .parsing import FormatKind
from .rewards import PhaseConfig, RewardRules


@dataclass(frozen=True)
class EngineConfig:
    phase: PhaseConfig = field(default_factory=PhaseConfig)
    matcher: MatcherPolicy = MatcherPolicy.BOX_ONLY
    completion_format: FormatKind = FormatKind.STRUCTURED
    beta: float = DEFAULT_BETA
    kl_mode: KlMode = KlMode.K3
    epsilon: float = DEFAULT_EPSILON
    clip_range: float | None = None
    rules: RewardRules = field(default_factory=RewardRules)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "EngineConfig":
        if not self.beta >= 0:  # also rejects NaN
            raise InvalidConfigError(f"beta must be >= 0, got {self.beta}")
        if not self.epsilon > 0:
            raise InvalidConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.clip_range is not None and not self.clip_range > 0:
            raise InvalidConfigError(f"clip_range must be positive, got {self.clip_range}")
        return self


# the default of every setting, stated once by the dataclasses' own defaults
DEFAULT_CONFIG = EngineConfig()


def _check_keys(data: Mapping[str, Any], known: Iterable[str], what: str) -> None:
    unknown = set(data).difference(known)
    if unknown:
        raise InvalidConfigError(f"unknown {what} keys: {sorted(unknown)}")


def phase_from_dict(data: Mapping[str, Any]) -> PhaseConfig:
    """A ``phase`` object; its callers map a ``ValueError`` to their own error type."""
    if not isinstance(data, Mapping):
        raise InvalidConfigError("phase must be an object")
    _check_keys(data, (f.name for f in fields(PhaseConfig)), "phase")
    defaults = DEFAULT_CONFIG.phase
    return PhaseConfig(
        beginner=read_numbers(data, "beginner", 3, defaults.beginner),
        advanced=read_numbers(data, "advanced", 3, defaults.advanced),
        step_fraction=read_field(data, "step_fraction", float, defaults.step_fraction),
    )


def phase_to_dict(phase: PhaseConfig) -> dict[str, Any]:
    return {
        "beginner": list(phase.beginner),
        "advanced": list(phase.advanced),
        "step_fraction": phase.step_fraction,
    }


def config_from_dict(data: Mapping[str, Any]) -> EngineConfig:
    """Decode a config object; any fault in it is an ``InvalidConfigError``."""
    try:
        _check_keys(data, config_to_dict(DEFAULT_CONFIG), "config")
        rules = read_field(data, "rules", Mapping, {})
        rule_keys = [f.name for f in fields(RewardRules)]
        _check_keys(rules, rule_keys, "rule")
        return EngineConfig(
            phase=phase_from_dict(data.get("phase", {})),
            matcher=read_field(data, "matcher", MatcherPolicy, DEFAULT_CONFIG.matcher),
            completion_format=read_field(data, "format", FormatKind, DEFAULT_CONFIG.completion_format),
            beta=read_field(data, "beta", float, DEFAULT_CONFIG.beta),
            kl_mode=read_field(data, "kl_mode", KlMode, DEFAULT_CONFIG.kl_mode),
            epsilon=read_field(data, "epsilon", float, DEFAULT_CONFIG.epsilon),
            clip_range=read_field(data, "clip_range", float, DEFAULT_CONFIG.clip_range),
            rules=RewardRules(
                **{key: read_field(rules, key, bool, getattr(DEFAULT_CONFIG.rules, key)) for key in rule_keys}
            ),
        )
    except ValueError as exc:
        raise InvalidConfigError(str(exc)) from None


def read_config_file(path: str | Path) -> dict[str, Any]:
    """The JSON object a config file holds, not yet decoded."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise InvalidConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfigError("config file must hold a JSON object")
    return data


def load_config(path: str | Path) -> EngineConfig:
    return config_from_dict(read_config_file(path))


def config_to_dict(config: EngineConfig) -> dict[str, Any]:
    return {
        "phase": phase_to_dict(config.phase),
        "matcher": config.matcher.value,
        "format": config.completion_format.value,
        "beta": config.beta,
        "kl_mode": config.kl_mode.value,
        "epsilon": config.epsilon,
        "clip_range": config.clip_range,
        "rules": {f.name: getattr(config.rules, f.name) for f in fields(RewardRules)},
    }

