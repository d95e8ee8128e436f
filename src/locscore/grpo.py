"""Group-relative advantages and the group policy objective.

Rewards are standardized within each completion group (population statistics
plus a small stabilizer), and the objective combines sequence-level
importance ratios with a KL penalty against the reference model. Gradients
and parameter updates belong to the external trainer; this module only
evaluates values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import GroupTooSmallError, LengthMismatchError, NonFiniteInputError
from .sums import left_sum

DEFAULT_BETA = 0.2
DEFAULT_EPSILON = 1e-4
LOG_RATIO_CLAMP = 50.0


class KlMode(str, Enum):
    K3 = "k3"  # per-token exp(d) - d - 1 estimator, always >= 0
    SEQUENCE = "seq"  # literal sequence log ratio, sum(policy) - sum(ref)


@dataclass(frozen=True)
class LogProbRecord:
    """Per-token log-probabilities of one completion under three models."""

    policy: tuple[float, ...]
    old: tuple[float, ...]
    ref: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.policy)
        if n < 1 or len(self.old) != n or len(self.ref) != n:
            raise LengthMismatchError("policy/old/ref must have equal length >= 1")
        for series in (self.policy, self.old, self.ref):
            if math.isfinite(sum(series)) and max(series) <= 0:  # a finite sum has finite terms
                continue
            for value in series:  # name the first bad value
                if not math.isfinite(value):
                    raise NonFiniteInputError("log-probabilities must be finite")
                if value > 0:
                    raise ValueError(f"log-probabilities must be <= 0, got {value}")

    @classmethod
    def from_lists(
        cls, policy: Sequence[float], old: Sequence[float], ref: Sequence[float]
    ) -> "LogProbRecord":
        return cls(tuple(map(float, policy)), tuple(map(float, old)), tuple(map(float, ref)))


def group_advantages(rewards: Sequence[float], epsilon: float = DEFAULT_EPSILON) -> list[float]:
    """Standardize rewards within one group: ``(r - mean) / (std + epsilon)``.

    Uses the population standard deviation (divide by N). A group of
    identical rewards yields the exact all-zero vector.
    """
    values = np.asarray(rewards, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise GroupTooSmallError("advantage computation needs at least two completions")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteInputError("rewards must be finite")
    if bool(np.all(values == values[0])):
        return [0.0] * values.size
    mean = float(values.mean())
    std = float(values.std())
    return [float((v - mean) / (std + epsilon)) for v in values]


def kl_estimate(record: LogProbRecord, mode: KlMode = KlMode.K3) -> float:
    """Per-completion KL estimate between the policy and reference model."""
    policy = np.asarray(record.policy, dtype=float)
    ref = np.asarray(record.ref, dtype=float)
    if mode is KlMode.SEQUENCE:
        return float(policy.sum() - ref.sum())
    diff = ref - policy
    # expm1 keeps exp(d) - d - 1 non-negative even for tiny |d|
    return float(np.mean(np.expm1(diff) - diff))


def sequence_log_ratio(record: LogProbRecord) -> tuple[float, bool]:
    """Summed policy/old log-prob difference, clamped against overflow."""
    raw = float(np.sum(record.policy) - np.sum(record.old))
    if abs(raw) > LOG_RATIO_CLAMP:
        return math.copysign(LOG_RATIO_CLAMP, raw), True
    return raw, False


@dataclass(frozen=True)
class ObjectiveResult:
    objective: float
    kl_values: tuple[float, ...]
    clamped_ratios: int


@np.errstate(over="ignore", invalid="ignore")  # a non-finite objective raises instead
def grpo_objective_detailed(
    records: Sequence[LogProbRecord],
    advantages: Sequence[float],
    beta: float = DEFAULT_BETA,
    kl_mode: KlMode = KlMode.K3,
    clip_range: float | None = None,
) -> ObjectiveResult:
    """Evaluate the group objective with per-completion diagnostics.

    ``J = (1/N) * sum_i [ratio_i * A_i - beta * KL_i]`` where the ratio is
    the exponentiated sequence log-prob difference between the policy and the
    old policy. ``clip_range`` enables an optional pessimistic ratio clip; it
    is off by default because the plain objective carries no clip.
    """
    if len(records) != len(advantages):
        raise LengthMismatchError(
            f"{len(records)} log-prob records but {len(advantages)} advantages"
        )
    if len(records) < 2:
        raise GroupTooSmallError("objective evaluation needs a group of at least two")
    for advantage in advantages:
        if not math.isfinite(advantage):
            raise NonFiniteInputError("advantages must be finite")
    kl_values: list[float] = []
    terms: list[float] = []
    clamped = 0
    for record, advantage in zip(records, advantages):
        log_ratio, was_clamped = sequence_log_ratio(record)
        clamped += was_clamped
        ratio = math.exp(log_ratio)
        kl = kl_estimate(record, kl_mode)
        if clip_range is None:
            surrogate = ratio * advantage
        else:
            clipped = min(max(ratio, 1.0 - clip_range), 1.0 + clip_range)
            surrogate = min(ratio * advantage, clipped * advantage)
        kl_values.append(kl)
        terms.append(surrogate - beta * kl)
    objective = left_sum(terms) / len(terms)
    if not math.isfinite(objective):  # as it is whenever a KL estimate is not
        raise NonFiniteInputError("KL estimate or objective overflows float64")
    return ObjectiveResult(
        objective=objective,
        kl_values=tuple(kl_values),
        clamped_ratios=clamped,
    )


def grpo_objective(
    records: Sequence[LogProbRecord],
    advantages: Sequence[float],
    beta: float = DEFAULT_BETA,
    kl_mode: KlMode = KlMode.K3,
    clip_range: float | None = None,
) -> float:
    return grpo_objective_detailed(records, advantages, beta, kl_mode, clip_range).objective
