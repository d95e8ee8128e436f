"""Reward scoring engine for group-relative RL on object-localization output."""

from .config import EngineConfig, config_from_dict, config_to_dict, load_config
from .curation import (
    MixtureResult,
    MixtureSpec,
    PromptStyle,
    Sample,
    TaskKind,
    classify_difficulty,
    render_prompt,
    sample_mixture,
)
from .errors import (
    EngineError,
    GroupTooSmallError,
    InvalidBoxError,
    InvalidConfigError,
    LengthMismatchError,
    MalformedRequestError,
    NonFiniteInputError,
    SpaceMismatchError,
    UnknownStyleError,
)
from .geometry import (
    Box,
    CoordinateSpace,
    SpaceKind,
    iou,
    pixel_space,
    thousandths_space,
    to_space,
    validate_box,
)
from .grpo import (
    KlMode,
    LogProbRecord,
    group_advantages,
    grpo_objective,
    kl_estimate,
)
from .matching import (
    GroundTruthInstance,
    GroundTruthSet,
    MatchedPrediction,
    MatcherPolicy,
    assignment_cost,
    match,
)
from .metrics import EvalDataset, EvalImage, EvalResult, evaluate
from .parsing import (
    FormatKind,
    ParseOutcome,
    RawPrediction,
    emit_plain,
    emit_structured,
    extract_objects,
    parse_completion,
)
from .rewards import (
    PhaseConfig,
    RewardBreakdown,
    RewardRules,
    ThresholdTriple,
    differentiate,
    phase_thresholds,
    precision_reward,
    recall_reward,
    score_completion,
)

__version__ = "0.1.0"

__all__ = [
    "EngineConfig", "config_from_dict", "config_to_dict", "load_config", "MixtureResult",
    "MixtureSpec", "PromptStyle", "Sample", "TaskKind", "classify_difficulty", "render_prompt",
    "sample_mixture", "EngineError", "GroupTooSmallError", "InvalidBoxError",
    "InvalidConfigError", "LengthMismatchError", "MalformedRequestError", "NonFiniteInputError",
    "SpaceMismatchError", "UnknownStyleError", "Box", "CoordinateSpace", "SpaceKind", "iou",
    "pixel_space", "thousandths_space", "to_space", "validate_box", "KlMode", "LogProbRecord",
    "group_advantages", "grpo_objective", "kl_estimate", "GroundTruthInstance",
    "GroundTruthSet", "MatchedPrediction", "MatcherPolicy", "assignment_cost", "match",
    "EvalDataset", "EvalImage", "EvalResult", "evaluate", "FormatKind",
    "ParseOutcome", "RawPrediction", "emit_plain", "emit_structured", "extract_objects",
    "parse_completion", "PhaseConfig", "RewardBreakdown", "RewardRules", "ThresholdTriple",
    "differentiate", "phase_thresholds", "precision_reward", "recall_reward",
    "score_completion",
]
