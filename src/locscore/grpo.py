"""Group-relative advantages and the group policy objective.

Rewards are standardized within each completion group (population statistics
plus a small stabilizer), and the objective combines sequence-level
importance ratios with a KL penalty against the reference model. Gradients
and parameter updates belong to the external trainer; this module only
evaluates values.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
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


class LogProbRecord:
    """Per-token log-probabilities of one completion under three models.

    ``policy``, ``old`` and ``ref`` are read-only float64 arrays of one
    length n >= 1, the rows of one (3, n) array, and every value is finite
    and <= 0. The record is checked as a whole, once, when it is made; a
    fault names the first bad value, series by series. Equality, hash and
    repr are those of the three series as tuples of floats, and the record
    is immutable.
    """

    def __init__(self, policy: Sequence[float], old: Sequence[float], ref: Sequence[float]) -> None:
        n = len(policy)
        if n < 1 or len(old) != n or len(ref) != n:
            raise LengthMismatchError("policy/old/ref must have equal length >= 1")
        self._hold(np.array((policy, old, ref), dtype=float))

    @classmethod
    def from_lists(
        cls, policy: Sequence[float], old: Sequence[float], ref: Sequence[float]
    ) -> "LogProbRecord":
        return cls(policy, old, ref)

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "LogProbRecord":
        """The record whose policy, old and ref are the rows of the (3, n) array ``rows``.

        A C-contiguous float64 array is held as it is, not copied, and made
        read-only; any other is copied into one, so that each series is summed
        as a contiguous row.
        """
        rows = np.ascontiguousarray(rows, dtype=float)
        if rows.ndim != 2 or len(rows) != 3 or rows.shape[1] < 1:
            raise LengthMismatchError("policy/old/ref must have equal length >= 1")
        record = cls.__new__(cls)
        record._hold(rows)
        return record

    def _hold(self, rows: np.ndarray) -> None:
        """Check ``rows`` as a whole and keep it; only a failing check looks for the first bad value."""
        if not (np.isfinite(rows).all() and rows.max() <= 0):
            value = float(rows.flat[np.argmax(~(np.isfinite(rows) & (rows <= 0)))])
            if not math.isfinite(value):
                raise NonFiniteInputError("log-probabilities must be finite")
            raise ValueError(f"log-probabilities must be <= 0, got {value}")
        rows.flags.writeable = False
        vars(self).update(_rows=rows, policy=rows[0], old=rows[1], ref=rows[2])

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self._rows, other._rows)

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, self._rows.tolist())))

    def __repr__(self) -> str:
        policy, old, ref = map(tuple, self._rows.tolist())
        return f"LogProbRecord(policy={policy!r}, old={old!r}, ref={ref!r})"


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
    if mode is KlMode.SEQUENCE:
        return float(record.policy.sum() - record.ref.sum())
    diff = record.ref - record.policy
    # expm1 keeps exp(d) - d - 1 non-negative even for tiny |d|
    return float((np.expm1(diff) - diff).mean())


def sequence_log_ratio(record: LogProbRecord) -> tuple[float, bool]:
    """Summed policy/old log-prob difference, clamped against overflow."""
    raw = float(record.policy.sum() - record.old.sum())
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
