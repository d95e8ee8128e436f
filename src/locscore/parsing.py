"""Completion parsing: canonical grammars, validity flags, and extraction.

Two completion grammars are supported, each named by one ``FormatKind``
whose ``space_kind`` is its default coordinate convention (see
``docs/grammar.md`` for the normative definition):

* ``structured``: a JSON array of objects, each carrying ``bbox_2d`` (four
  numbers) and ``label`` (non-empty string), optionally wrapped in a markdown
  code fence. Coordinates default to absolute pixels.
* ``plain``: segments joined by ``;``, each segment ``label-[x1,y1,x2,y2]``
  with thousandths coordinates. An empty completion is a conforming empty
  prediction list.

Parsing never raises: the template flag reports grammar conformance of the
whole completion, the content flag additionally requires every entry to be
well formed and every box to be valid in the declared coordinate space.
Entries that are well formed but carry an invalid box are retained (marked
``box_valid=False``) so downstream rewards can still use them.

``read_completions`` reads a group's completions into entries, labels as
written, and ``parse_block`` holds the entries of a block of read groups as
one (n, 4) array, validated once, vectorised, each row against its own
group's extent, and collapses each distinct label of the block once;
``parse_completion`` is the two for a single completion.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import FieldError
from .fields import json_fault, read_number_rows, read_numbers
from .geometry import Box, CoordinateSpace, SpaceKind, validate_boxes

_WS_RUN = re.compile(r"\s+")

_FENCE_OPEN = re.compile(r"^```[A-Za-z0-9_+-]*[ \t]*$")

_NUM = r"[+-]?\d+(?:\.\d+)?"
_PLAIN_SEGMENT = re.compile(
    r"^(?P<label>.+)-\[\s*(?P<x1>{n})\s*,\s*(?P<y1>{n})\s*,\s*(?P<x2>{n})\s*,\s*(?P<y2>{n})\s*\]$".format(n=_NUM)
)


def collapse_whitespace(text: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return _WS_RUN.sub(" ", text).strip()


def normalize_label(label: str) -> str:
    """Canonical label form used for comparisons: collapsed and casefolded."""
    return collapse_whitespace(label).casefold()


def label_key_map(labels: Iterable[str]) -> dict[str, str]:
    """Each distinct spelling among ``labels`` -> its ``normalize_label``, in order of first
    appearance; each key is computed once. The one way a block or a dataset keys its labels."""
    return {label: normalize_label(label) for label in dict.fromkeys(labels)}


class FormatKind(str, Enum):
    STRUCTURED = "structured"
    PLAIN = "plain"

    @property
    def space_kind(self) -> SpaceKind:
        """The grammar's default coordinate convention: pixels, or thousandths for plain."""
        return SpaceKind.PIXELS if self is FormatKind.STRUCTURED else SpaceKind.THOUSANDTHS


@dataclass(frozen=True)
class RawPrediction:
    """One structurally well-formed prediction extracted from a completion."""

    label: str
    coords: tuple[float, float, float, float]
    box_valid: bool

    def box(self) -> Box:
        return Box(*self.coords)


@dataclass(frozen=True)
class ParseOutcome:
    """Structured result of parsing one completion.

    ``predictions`` is empty whenever ``template_ok`` is false, preserves
    emission order otherwise, and ``content_ok`` implies both flags plus
    validity of every prediction box.
    """

    template_ok: bool
    content_ok: bool
    predictions: tuple[RawPrediction, ...]
    diagnostics: tuple[str, ...]


def _strip_fences(text: str) -> str | None:
    """Remove one optional surrounding markdown fence; None when unbalanced."""
    s = text.strip()
    if not s.startswith("```"):
        return s
    lines = s.splitlines()
    if len(lines) < 2 or not _FENCE_OPEN.match(lines[0]) or lines[-1].strip() != "```":
        return None
    return "\n".join(lines[1:-1])


# a completion read by its grammar: each well-formed entry's label as written
# (None when the template fails), their coordinates as one flat list, and
# each malformed entry's fault
_Entries = tuple[list[str] | None, list[float], list[str]]


def _read_structured(text: str) -> _Entries:
    body = _strip_fences(text)
    if body is None:
        return None, [], ["unbalanced code fence"]
    body = body.strip()
    if not body:
        return None, [], ["empty completion (structured format requires a JSON array)"]
    try:
        value = json.loads(body)
    except (ValueError, RecursionError) as exc:
        return None, [], [f"not valid JSON: {json_fault(exc)}"]
    if not isinstance(value, list):
        return None, [], ["top-level JSON value is not an array"]
    if not set(map(type, value)) <= {dict}:
        for index, entry in enumerate(value):
            if not isinstance(entry, dict):
                return None, [], [f"array element {index} is not an object"]
    labels = [entry.get("label") for entry in value]
    flat = read_number_rows(value, "bbox_2d", 4)
    # the whole list is checked at once, each distinct label once
    if flat is not None and set(map(type, labels)) <= {str} and all(
        label and not label.isspace() for label in set(labels)
    ):
        return labels, flat, []
    # some entry is malformed: walk them in order, to name each one and keep the others
    kept: list[str] = []
    coords: list[float] = []
    faults: list[str] = []
    for index, (entry, label) in enumerate(zip(value, labels)):
        try:
            numbers = read_numbers(entry, "bbox_2d", 4)
        except FieldError:
            faults.append(f"entry {index}: bbox_2d must be an array of four finite numbers")
            continue
        if not isinstance(label, str) or not label or label.isspace():
            faults.append(f"entry {index}: label must be a non-empty string")
            continue
        kept.append(label)
        coords.extend(numbers)
    return kept, coords, faults


def _read_plain(text: str) -> _Entries:
    s = text.strip()
    if not s:
        # canonical abstention: an empty completion declares zero objects
        return [], [], []
    labels: list[str] = []
    flat: list[float] = []
    for index, segment in enumerate(s.split(";")):
        segment = segment.strip()
        matched = _PLAIN_SEGMENT.match(segment) if segment else None
        if matched is None:
            return None, [], [f"segment {index} does not match label-[x1,y1,x2,y2]"]
        labels.append(matched.group("label"))
        flat.extend(map(float, matched.group("x1", "y1", "x2", "y2")))
    return labels, flat, []


@dataclass(frozen=True)
class ParsedGroup:
    """Completions parsed together: one group, or a block of groups in order.

    Every well-formed entry of every completion is one row, in emission
    order: completion ``i`` holds rows ``bounds[i]:bounds[i + 1]``.
    """

    template_ok: list[bool]
    content_ok: list[bool]
    diagnostics: list[tuple[str, ...]]
    bounds: list[int]
    labels: list[str]
    coords: np.ndarray  # (n, 4) float64, each row in its group's declared space
    valid: np.ndarray  # (n,) bool: the row's box is valid in its group's declared space
    group: np.ndarray  # (n,) intp: each row's group in the block, all zeros for one group

    def outcome(self, index: int) -> ParseOutcome:
        """The ``ParseOutcome`` of completion ``index``."""
        lo, hi = self.bounds[index], self.bounds[index + 1]
        rows = zip(self.labels[lo:hi], self.coords[lo:hi].tolist(), self.valid[lo:hi])
        predictions = tuple(RawPrediction(label, tuple(coords), bool(ok)) for label, coords, ok in rows)
        return ParseOutcome(
            self.template_ok[index], self.content_ok[index], predictions, self.diagnostics[index]
        )


class ReadGroup(NamedTuple):
    """A group's completions read into entries by their grammar, before any array."""

    template_ok: list[bool]
    faults: list[list[str]]  # each completion's malformed entries
    labels: list[str]  # each well-formed entry's label as written, in emission order
    flat: list[float]  # each well-formed entry's four coordinates, in the same order
    sizes: list[int]  # each completion's count of well-formed entries


def read_completions(texts: Sequence[str], fmt: FormatKind) -> ReadGroup:
    """Read every completion of a group into entries; never raises.

    Labels are kept as written: ``parse_block`` collapses their whitespace.
    """
    read = _read_structured if fmt is FormatKind.STRUCTURED else _read_plain
    group = ReadGroup([], [], [], [], [])
    template_ok, entry_faults, labels, flat, sizes = group
    for text in texts:
        read_labels, read_flat, faults = read(text)
        template_ok.append(read_labels is not None)
        entry_faults.append(faults)
        labels.extend(read_labels or ())
        flat.extend(read_flat)
        sizes.append(len(read_labels or ()))
    return group


def parse_block(groups: Sequence[tuple[ReadGroup, CoordinateSpace]]) -> ParsedGroup:
    """The parse of a block of read groups, each with its declared space; never raises.

    Every entry of the block is one row of one array, with its group in the
    block (``ParsedGroup.group``, the package's only row-to-group index). Each
    box is validated once, by one check over the whole block in which each
    row meets its own group's extent, which also names each rejected box's
    fault. Each distinct label of the block is collapsed once
    (``collapse_whitespace``). Each completion's outcome is the one it has
    when its group is parsed alone. One group is a block of one: its index
    is all zeros.
    """
    template_ok, entry_faults, sizes = (
        list(chain.from_iterable(getattr(read, field) for read, _ in groups))
        for field in ("template_ok", "faults", "sizes")
    )
    # labels and coordinates are read from each group's lists in place: joining them first copies every entry
    spelled = {label: collapse_whitespace(label) for label in set().union(*(read.labels for read, _ in groups))}
    labels = [spelled[label] for read, _ in groups for label in read.labels]
    coords = np.fromiter(chain.from_iterable(read.flat for read, _ in groups), float).reshape(-1, 4)
    counts = [len(read.labels) for read, _ in groups]
    group = np.repeat(np.arange(len(groups)), counts)
    bounds = list(accumulate(sizes, initial=0))
    max_x, max_y = np.repeat([(space.max_x, space.max_y) for _, space in groups], counts, axis=0).T
    valid, box_faults = validate_boxes(coords, max_x, max_y)
    bad: dict[int, list[str]] = {}
    for row, reason in box_faults.items():
        bad.setdefault(bisect_right(bounds, row) - 1, []).append(f"box {coords[row].tolist()}: {reason}")
    content_ok: list[bool] = []
    diagnostics: list[tuple[str, ...]] = []
    for index, (template, faults) in enumerate(zip(template_ok, entry_faults)):
        boxes = bad.get(index, [])
        content_ok.append(template and not faults and not boxes)
        diagnostics.append(tuple(faults + boxes))
    return ParsedGroup(template_ok, content_ok, diagnostics, bounds, labels, coords, valid, group)


def parse_completion(text: str, fmt: FormatKind, space: CoordinateSpace) -> ParseOutcome:
    """Parse one raw completion in grammar ``fmt``, boxes in ``space``, into predictions and the two flags.

    Deterministic and total: every malformation is reported through the flags
    and diagnostics, never an exception.
    """
    return parse_block([(read_completions([text], fmt), space)]).outcome(0)


def extract_objects(outcome: ParseOutcome) -> list[tuple[str, Box]]:
    """Content-valid predictions in emission order (duplicates retained)."""
    return [(p.label, p.box()) for p in outcome.predictions if p.box_valid]


def emit_structured(objects: Sequence[tuple[str, Box]]) -> str:
    """Canonical structured emitter; re-parsing reproduces labels and boxes."""
    payload = [{"bbox_2d": list(box.coords()), "label": label} for label, box in objects]
    return json.dumps(payload)


def emit_plain(objects: Sequence[tuple[str, Box]]) -> str:
    """Canonical plain emitter; coordinates must be integer-valued."""
    parts = []
    for label, box in objects:
        values = []
        for coordinate in box.coords():
            if not float(coordinate).is_integer():
                raise ValueError(f"plain format requires integer coordinates, got {coordinate}")
            values.append(str(int(coordinate)))
        parts.append(f"{label}-[{','.join(values)}]")
    return ";".join(parts)
