"""Spans and counts at the engine's layer boundaries, recorded from outside.

``Tracer.install`` replaces each listed function on the object its caller
looks it up on (a module global or a class attribute) with a timing or
counting wrapper, and ``uninstall`` puts the originals back. No engine file
changes. Spans carry the request they belong to and their parent span, are
kept in memory, and can be written out as JSON lines at the end.

A layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from collections import Counter
from time import perf_counter

from locscore.config import EngineConfig
from locscore.rewards import PhaseConfig

E = "locscore.harness.engine"
B = "locscore.harness.batch"

# (module, global name, span name): timed calls
SPANS = (
    ("locscore.harness.service", "handle_request_line", "engine.handle_request_line"),
    ("locscore.harness.service", "dump_line", "wire.dump_line"),
    (E, "handle_request_object", "engine.handle_request_object"),
    (E, "parse_request", "wire.parse_request"),
    (E, "score_group", "engine.score_group"),
    (E, "response_to_dict", "wire.response_to_dict"),
    (E, "score_completion", "rewards.score_completion"),
    (E, "group_advantages", "grpo.group_advantages"),
    (E, "grpo_objective_detailed", "grpo.grpo_objective_detailed"),
    ("locscore.rewards", "parse_completion", "parsing.parse_completion"),
    ("locscore.rewards", "match", "matching.match"),
    ("locscore.rewards", "score_matches", "rewards.score_matches"),
    (B, "run_batch", "batch.run_batch"),
    (B, "parse_request", "wire.parse_request"),
    (B, "score_group", "engine.score_group"),
    (B, "response_to_dict", "wire.response_to_dict"),
    (B, "dump_line", "wire.dump_line"),
    (B, "parse_completion", "batch.parse_completion"),
    (B, "evaluate", "metrics.evaluate"),
)
# (module or class, attribute, counter name): counted calls only, too small or
# too frequent to time
COUNTS = (
    (E, "phase_thresholds", "rewards.phase_thresholds"),
    ("locscore.rewards", "phase_thresholds", "rewards.phase_thresholds"),
    (EngineConfig, "validate", "config.validate"),
    (PhaseConfig, "validate", "config.validate"),
    ("locscore.matching", "iou", "geometry.iou"),
    ("locscore.metrics", "iou", "metrics.iou"),
    ("locscore.rewards", "to_space", "geometry.to_space"),
    (B, "to_space", "geometry.to_space"),
    ("locscore.matching", "linear_sum_assignment", "matching.lsa"),
    ("locscore.metrics", "normalize_label", "metrics.normalize_label"),
)
# modules whose ``json.loads`` is request decoding
JSON_USERS = (E, B)


class Tracer:
    def __init__(self) -> None:
        self.request: int | None = None  # set by the client before each request
        self.spans: list[tuple] = []  # (request, id, parent id, name, start, end)
        self.total: Counter[str] = Counter()  # seconds per span name
        self.self_time: Counter[str] = Counter()
        self.top_level = 0.0  # seconds in spans without a parent
        self.counts: Counter[str] = Counter()  # calls per name, plus hook sums
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._saved: list[tuple] = []

    def span(self, name, fn, before=None, after=None):
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, *args)
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, frame, parent, start, end)
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    def _close(self, name, frame, parent, start, end) -> None:
        elapsed = end - start
        self.total[name] += elapsed
        self.self_time[name] += elapsed - frame[1]
        self.counts[name] += 1
        if parent is None:
            self.top_level += elapsed
        else:
            parent[1] += elapsed
        self.spans.append((self.request, frame[0], None if parent is None else parent[0], name, start, end))

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        hooks = {
            "matching.match": (_match_cells, None),
            "parsing.parse_completion": (None, _parse_outcome),
            "grpo.grpo_objective_detailed": (_logprob_tokens, None),
            "wire.parse_request": (None, _logprob_values),
        }
        for module, attr, name in SPANS:
            owner = importlib.import_module(module)
            self._replace(owner, attr, self.span(name, getattr(owner, attr), *hooks.get(name, (None, None))))
        for owner, attr, name in COUNTS:
            if isinstance(owner, str):
                owner = importlib.import_module(owner)
            self._replace(owner, attr, self.count(name, getattr(owner, attr)))
        for module in JSON_USERS:
            owner = importlib.import_module(module)
            proxy = types.SimpleNamespace(**vars(owner.json))
            proxy.loads = self.span("wire.json_loads", owner.json.loads)
            self._replace(owner, "json", proxy)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for request, span_id, parent, name, start, end in self.spans:
                record = {"request": request, "id": span_id, "parent": parent, "name": name,
                          "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")


def _match_cells(counts, predictions, gt, *rest) -> None:
    counts["matching.cells"] += len(predictions) * len(gt)


def _parse_outcome(counts, outcome) -> None:
    counts["parsing.template_ok"] += outcome.template_ok
    counts["parsing.content_ok"] += outcome.content_ok
    counts["parsing.boxes"] += len(outcome.predictions)


def _logprob_tokens(counts, records, *rest) -> None:
    counts["grpo.logprob_tokens"] += sum(len(r.policy) for r in records)


def _logprob_values(counts, request) -> None:
    if request.logprobs is not None:
        counts["wire.logprob_values"] += sum(3 * len(r.policy) for r in request.logprobs)
