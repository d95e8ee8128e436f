"""Engine configuration: defaults, JSON loading, and precedence helpers.

Precedence is request-level override > config file > built-in defaults
(box-only matcher, beginner/advanced triples, beta 0.2, k3 KL estimator).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from .errors import InvalidConfigError
from .grpo import DEFAULT_BETA, DEFAULT_EPSILON, KlMode
from .matching import MatcherPolicy
from .parsing import FormatKind
from .rewards import PhaseConfig, RewardRules, ThresholdTriple

_KNOWN_KEYS = {
    "phase",
    "matcher",
    "format",
    "beta",
    "kl_mode",
    "epsilon",
    "clip_range",
    "rules",
}
_KNOWN_PHASE_KEYS = {"beginner", "advanced", "step_fraction"}
_KNOWN_RULE_KEYS = {"require_label_match", "use_dual_format", "use_recall", "use_precision"}


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


def phase_from_dict(data: Mapping[str, Any]) -> PhaseConfig:
    if not isinstance(data, Mapping):
        raise InvalidConfigError("phase must be an object")
    unknown = set(data) - _KNOWN_PHASE_KEYS
    if unknown:
        raise InvalidConfigError(f"unknown phase keys: {sorted(unknown)}")
    defaults = PhaseConfig()
    try:
        beginner = ThresholdTriple(*map(float, data.get("beginner", defaults.beginner)))
        advanced = ThresholdTriple(*map(float, data.get("advanced", defaults.advanced)))
        step_fraction = float(data.get("step_fraction", defaults.step_fraction))
    except (TypeError, OverflowError) as exc:
        raise InvalidConfigError(f"phase triples and step_fraction must be numbers: {exc}") from exc
    return PhaseConfig(beginner=beginner, advanced=advanced, step_fraction=step_fraction)


def phase_to_dict(phase: PhaseConfig) -> dict[str, Any]:
    return {
        "beginner": list(phase.beginner),
        "advanced": list(phase.advanced),
        "step_fraction": phase.step_fraction,
    }


def config_from_dict(data: Mapping[str, Any]) -> EngineConfig:
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
    rules_data = data.get("rules", {})
    if not isinstance(rules_data, Mapping):
        raise InvalidConfigError("rules must be an object")
    unknown_rules = set(rules_data) - _KNOWN_RULE_KEYS
    if unknown_rules:
        raise InvalidConfigError(f"unknown rule keys: {sorted(unknown_rules)}")
    clip = data.get("clip_range")
    try:
        matcher = MatcherPolicy(data.get("matcher", MatcherPolicy.BOX_ONLY.value))
        completion_format = FormatKind(data.get("format", FormatKind.STRUCTURED.value))
        kl_mode = KlMode(data.get("kl_mode", KlMode.K3.value))
        beta = float(data.get("beta", DEFAULT_BETA))
        epsilon = float(data.get("epsilon", DEFAULT_EPSILON))
        clip_range = None if clip is None else float(clip)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfigError(str(exc)) from exc
    return EngineConfig(
        phase=phase_from_dict(data.get("phase", {})),
        matcher=matcher,
        completion_format=completion_format,
        beta=beta,
        kl_mode=kl_mode,
        epsilon=epsilon,
        clip_range=clip_range,
        rules=RewardRules(**rules_data),
    )


def load_config(path: str | Path) -> EngineConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfigError("config file must hold a JSON object")
    return config_from_dict(data)


def config_to_dict(config: EngineConfig) -> dict[str, Any]:
    return {
        "phase": phase_to_dict(config.phase),
        "matcher": config.matcher.value,
        "format": config.completion_format.value,
        "beta": config.beta,
        "kl_mode": config.kl_mode.value,
        "epsilon": config.epsilon,
        "clip_range": config.clip_range,
        "rules": {
            "require_label_match": config.rules.require_label_match,
            "use_dual_format": config.rules.use_dual_format,
            "use_recall": config.rules.use_recall,
            "use_precision": config.rules.use_precision,
        },
    }


def apply_cli_overrides(config: EngineConfig, **overrides: Any) -> EngineConfig:
    """Return a copy with any non-None override applied."""
    updates: dict[str, Any] = {}
    if overrides.get("matcher") is not None:
        updates["matcher"] = MatcherPolicy(overrides["matcher"])
    if overrides.get("completion_format") is not None:
        updates["completion_format"] = FormatKind(overrides["completion_format"])
    if overrides.get("beta") is not None:
        updates["beta"] = float(overrides["beta"])
    if overrides.get("kl_mode") is not None:
        updates["kl_mode"] = KlMode(overrides["kl_mode"])
    if overrides.get("step_fraction") is not None:
        updates["phase"] = replace(config.phase, step_fraction=float(overrides["step_fraction"]))
    if not updates:
        return config
    return replace(config, **updates)
