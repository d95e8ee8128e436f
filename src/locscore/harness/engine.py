"""Group scoring: the one request pipeline, ``score_requests``, behind the service and batch paths.

``_scored_block`` is the one place where decoded requests become outcomes;
``score_group``, the in-process call, is its block of one request. Inside
the engine a fault stays its exception; ``error_outcome`` names its error
kind as the outcome leaves ``score_requests``.

Requests are decoded one at a time into blocks of up to ``BLOCK_GROUPS``.
When a block closes, the ground-truth boxes of all its requests are checked
against their own images in one call (``matching.ground_truth_faults``);
then each request that passed is checked on its own (``request_group``), and
their groups go to the group kernel in one call. The fixed costs of the
check and the kernel are thus paid once per block, and the outcomes, with
their fault order and texts, are those of scoring one request at a time.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import replace
from typing import Any

from ..config import DEFAULT_CONFIG, EngineConfig
from ..errors import EngineError, FieldError, MalformedRequestError
from ..fields import json_fault, read_id
from ..grpo import group_advantages, grpo_objective_detailed
from ..matching import ground_truth_faults
from ..rewards import Group, RewardBreakdown, phase_thresholds, score_groups
from ..rewards import score_completion  # looked up by perfbench/tracing.py
from .wire import ScoringRequest, ScoringResponse, decode_request, error_to_dict, response_to_dict
from .wire import parse_request  # looked up by perfbench/tracing.py

log = logging.getLogger(__name__)

# most requests in one block, so most groups the kernel scores in one call;
# the kernel itself bounds the size of the matrices it builds at once
# (rewards.BLOCK_CELLS), so a larger block keeps only more results alive.
# run_batch on four 500-image batch-eval manifests (seed 23), per manifest,
# the mean of each one's fastest of 15 passes: 76.9 ms at 64, 76.3 at 128,
# 73.8 at 256 and 78.1 at 512; a second round of 9 passes gave 82.8, 77.5,
# 77.5 and 78.8. The service sends blocks of one request
BLOCK_GROUPS = 256

Outcome = ScoringResponse | tuple[str, str]  # a response, or an error's kind and detail


class DecodeError(ValueError):
    """A request line that is not JSON; given to ``score_requests``, it stands for that line."""


def decode_line(line: str) -> Any:
    """Decode one request line; a fault raises ``DecodeError`` holding its detail."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise DecodeError(json_fault(exc)) from None


def decoded(line: str) -> Any:
    """One line's input to ``score_requests``: its object, or the ``DecodeError`` it raised."""
    try:
        return decode_line(line)
    except DecodeError as exc:
        return exc


def error_outcome(exc: Exception) -> tuple[str, str]:
    """The one exception table: a fault's error kind and detail."""
    if isinstance(exc, DecodeError):
        return "parse-error", str(exc)
    if isinstance(exc, MalformedRequestError):
        return "malformed-request", str(exc)
    if isinstance(exc, EngineError):
        return "scoring-error", str(exc)
    log.error("a request failed", exc_info=exc)  # a fault in the engine itself; the caller goes on
    return "internal-error", f"{type(exc).__name__}: {exc}"


def request_group(req: ScoringRequest, config: EngineConfig) -> Group:
    """The per-request checks, then the request as the group kernel's input.

    Raises ``MalformedRequestError`` for requests that violate the contract.
    """
    if req.want_advantages and len(req.completions) < 2:
        raise MalformedRequestError(
            "advantage computation needs at least two completions per group"
        )
    if req.logprobs is not None and len(req.logprobs) != len(req.completions):
        raise MalformedRequestError("one log-prob record per completion is required")

    fmt = req.format or config.completion_format
    space = req.sample.gt.space
    return Group(
        req.completions,
        fmt,
        space if space.kind is fmt.space_kind else replace(space, kind=fmt.space_kind),
        req.sample.gt,
        req.matcher or config.matcher,
        phase_thresholds(req.phase or config.phase, req.progress),
    )


def group_response(
    req: ScoringRequest,
    config: EngineConfig,
    group: Group,
    breakdowns: tuple[RewardBreakdown, ...],
) -> ScoringResponse:
    """The response to a request whose group the kernel scored: its advantages and objective.

    The phase is named by which of its two distinct triples ``request_group`` picked.
    """
    totals = [b.total for b in breakdowns]
    diagnostics: list[str] = []
    advantages = None
    objective = None
    kl_values = None
    if req.want_advantages:
        advantages = tuple(group_advantages(totals, config.epsilon))
        if req.logprobs is not None:
            detail = grpo_objective_detailed(
                req.logprobs, advantages, config.beta, config.kl_mode, config.clip_range
            )
            objective = detail.objective
            kl_values = detail.kl_values
            if detail.clamped_ratios:
                diagnostics.append(
                    f"{detail.clamped_ratios} sequence log-ratio(s) clamped to +/-50"
                )

    return ScoringResponse(
        request_id=req.request_id,
        rewards=breakdowns,
        advantages=advantages,
        objective=objective,
        kl_values=kl_values,
        thresholds=group.thresholds,
        phase_name="advanced" if group.thresholds is (req.phase or config.phase).advanced else "beginner",
        diagnostics=tuple(diagnostics),
    )


def score_group(req: ScoringRequest, config: EngineConfig | None = None) -> ScoringResponse:
    """Score every completion of one group and derive group statistics: a block of one request.

    Stateless: the response depends only on the request and configuration.
    A fault raises the exception behind the service's error for the same
    request, such as ``MalformedRequestError`` for a ground-truth box
    outside its image or a request that violates the contract.
    """
    (_, outcome), = _scored_block([(req, None)], config or DEFAULT_CONFIG)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def score_requests(
    objects: Iterable[Any], config: EngineConfig
) -> Iterator[tuple[ScoringRequest | None, Outcome]]:
    """Each decoded request object's request (None if it did not parse) and outcome, in order.

    A ``DecodeError`` among ``objects`` stands for a line that did not decode.
    A fault leaves here as its error kind and detail, by ``error_outcome``.
    """
    for pending in _decoded_blocks(objects):
        for request, outcome in _scored_block(pending, config):
            yield request, outcome if isinstance(outcome, ScoringResponse) else error_outcome(outcome)


def _decoded_blocks(objects: Iterable[Any]) -> Iterator[list[tuple[ScoringRequest | None, Exception | None]]]:
    """``objects`` decoded, in lists of up to ``BLOCK_GROUPS`` requests: a decoded request with
    ``None``, or ``None`` with the fault of an object that did not decode."""
    pending: list[tuple[ScoringRequest | None, Exception | None]] = []
    decoded_requests = 0
    for data in objects:
        try:
            if isinstance(data, DecodeError):
                raise data
            request = decode_request(data)
        except Exception as exc:
            pending.append((None, exc))
            continue
        pending.append((request, None))
        decoded_requests += 1
        if decoded_requests == BLOCK_GROUPS:
            yield pending
            pending, decoded_requests = [], 0
    yield pending


def _scored_block(pending: list, config: EngineConfig) -> Iterator[tuple]:
    """``pending`` with every outcome: a response, or the exception of its fault.

    The one place where a decoded request becomes an outcome. The ground
    truths of its decoded requests are checked in one call, and a request
    with a bad box becomes ``None`` with that fault, as ``parse_request``
    names it. The others go through ``request_group`` and their groups to
    one kernel call; when that call raises, each group is scored alone
    instead, so that a fault lands on its own request.
    """
    faults = iter(ground_truth_faults([request.sample.gt for request, outcome in pending if outcome is None]))
    checked: list[tuple[ScoringRequest | None, Exception | None]] = []  # None: its group waits in `groups`
    groups: list[Group] = []
    for request, outcome in pending:
        if outcome is None:
            detail = next(faults)
            if detail is not None:
                request, outcome = None, MalformedRequestError(detail)
            else:
                try:
                    groups.append(request_group(request, config))
                except Exception as exc:
                    outcome = exc
        checked.append((request, outcome))
    try:
        scored = score_groups(groups, config.rules)
    except Exception:
        scored = [None] * len(groups)
    waiting = zip(groups, scored)
    for request, outcome in checked:
        if outcome is None:
            group, breakdowns = next(waiting)
            try:
                if breakdowns is None:
                    breakdowns = score_groups([group], config.rules)[0]
                outcome = group_response(request, config, group, breakdowns)
            except Exception as exc:
                outcome = exc
        yield request, outcome


def handle_request_object(data: Any, config: EngineConfig | None = None) -> dict[str, Any]:
    """Request dict in, response dict out; faults become error responses."""
    _, outcome = next(score_requests([data], config or DEFAULT_CONFIG))
    if isinstance(outcome, ScoringResponse):
        return response_to_dict(outcome)
    try:  # the echo of a request whose id is itself bad is null
        request_id = read_id(data, "request_id") if isinstance(data, Mapping) else None
    except FieldError:
        request_id = None
    return error_to_dict(request_id, *outcome)


def handle_request_line(line: str, config: EngineConfig | None = None) -> dict[str, Any]:
    return handle_request_object(decoded(line), config)
