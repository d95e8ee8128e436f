"""Completion parsing: canonical grammars, validity flags, and extraction.

Two completion grammars are supported (see ``docs/grammar.md`` for the
normative definition):

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

``parse_completions`` parses a whole group at once and holds its boxes as one
(n, 4) array, validated once, vectorised; ``parse_completion`` is that for a
single completion.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .fields import read_number_rows
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


class FormatKind(str, Enum):
    STRUCTURED = "structured"
    PLAIN = "plain"


@dataclass(frozen=True)
class CompletionFormat:
    """Which grammar a completion uses and which coordinate kind it implies."""

    kind: FormatKind
    space_kind: SpaceKind


STRUCTURED_FORMAT = CompletionFormat(FormatKind.STRUCTURED, SpaceKind.PIXELS)
PLAIN_FORMAT = CompletionFormat(FormatKind.PLAIN, SpaceKind.THOUSANDTHS)


def default_format(kind: FormatKind) -> CompletionFormat:
    return STRUCTURED_FORMAT if kind is FormatKind.STRUCTURED else PLAIN_FORMAT


@dataclass(frozen=True)
class RawPrediction:
    """One structurally well-formed prediction extracted from a completion."""

    label: str
    coords: tuple[float, float, float, float]
    box_valid: bool
    box_fault: str | None = None

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


def _collapsed(label: str, names: dict[str, str]) -> str:
    """``collapse_whitespace(label)``, computed once per distinct label in ``names``."""
    if label not in names:
        names[label] = collapse_whitespace(label)
    return names[label]


def _read_structured(
    text: str, names: dict[str, str]
) -> tuple[list[tuple[str, tuple[float, ...]]] | None, list[str]]:
    body = _strip_fences(text)
    if body is None:
        return None, ["unbalanced code fence"]
    body = body.strip()
    if not body:
        return None, ["empty completion (structured format requires a JSON array)"]
    try:
        value = json.loads(body)
    except json.JSONDecodeError as exc:
        return None, [f"not valid JSON: {exc.msg} at position {exc.pos}"]
    except RecursionError:
        return None, ["not valid JSON: nesting too deep"]
    except ValueError:  # an integer literal over the interpreter's digit limit
        return None, ["not valid JSON: number too long"]
    if not isinstance(value, list):
        return None, ["top-level JSON value is not an array"]
    for index, entry in enumerate(value):
        if not isinstance(entry, dict):
            return None, [f"array element {index} is not an object"]
    entries: list[tuple[str, tuple[float, ...]]] = []
    faults: list[str] = []
    for index, (entry, coords) in enumerate(zip(value, read_number_rows(value, "bbox_2d", 4))):
        if coords is None:
            faults.append(f"entry {index}: bbox_2d must be an array of four finite numbers")
            continue
        label = entry.get("label")
        label = _collapsed(label, names) if isinstance(label, str) else ""
        if not label:
            faults.append(f"entry {index}: label must be a non-empty string")
            continue
        entries.append((label, coords))
    return entries, faults


def _read_plain(
    text: str, names: dict[str, str]
) -> tuple[list[tuple[str, tuple[float, ...]]] | None, list[str]]:
    s = text.strip()
    if not s:
        # canonical abstention: an empty completion declares zero objects
        return [], []
    entries: list[tuple[str, tuple[float, ...]]] = []
    for index, segment in enumerate(s.split(";")):
        segment = segment.strip()
        matched = _PLAIN_SEGMENT.match(segment) if segment else None
        if matched is None:
            return None, [f"segment {index} does not match label-[x1,y1,x2,y2]"]
        label = _collapsed(matched.group("label"), names)
        if not label:
            return None, [f"segment {index} has an empty label"]
        coords = tuple(map(float, matched.group("x1", "y1", "x2", "y2")))
        entries.append((label, coords))
    return entries, []


@dataclass(frozen=True)
class ParsedGroup:
    """A group of completions parsed together.

    Every well-formed entry of every completion is one row, in emission
    order: completion ``i`` holds rows ``bounds[i]:bounds[i + 1]``.
    """

    template_ok: list[bool]
    content_ok: list[bool]
    diagnostics: list[tuple[str, ...]]
    bounds: list[int]
    labels: list[str]
    coords: np.ndarray  # (n, 4) float64, in the declared space
    valid: np.ndarray  # (n,) bool: the row's box is valid in the declared space
    faults: dict[int, str]  # why each invalid row is invalid

    def outcome(self, index: int) -> ParseOutcome:
        """The ``ParseOutcome`` of completion ``index``."""
        lo, hi = self.bounds[index], self.bounds[index + 1]
        rows = zip(range(lo, hi), self.labels[lo:hi], self.coords[lo:hi].tolist(), self.valid[lo:hi])
        predictions = tuple(
            RawPrediction(label, tuple(coords), bool(ok), self.faults.get(row))
            for row, label, coords, ok in rows
        )
        return ParseOutcome(
            self.template_ok[index], self.content_ok[index], predictions, self.diagnostics[index]
        )


def parse_completions(
    texts: Sequence[str], fmt: CompletionFormat, space: CoordinateSpace
) -> ParsedGroup:
    """Parse every completion of a group; never raises.

    Each box is validated once, by one ``validate_boxes`` call over the
    whole group, which also names each rejected box's fault.
    """
    read = _read_structured if fmt.kind is FormatKind.STRUCTURED else _read_plain
    template_ok: list[bool] = []
    entry_faults: list[list[str]] = []
    labels: list[str] = []
    flat: list[float] = []
    bounds = [0]
    names: dict[str, str] = {}
    for text in texts:
        entries, faults = read(text, names)
        template_ok.append(entries is not None)
        entry_faults.append(faults)
        for label, coords in entries or ():
            labels.append(label)
            flat.extend(coords)
        bounds.append(len(labels))
    coords = np.array(flat, dtype=float).reshape(-1, 4)
    valid, box_faults = validate_boxes(coords, space)
    content_ok: list[bool] = []
    diagnostics: list[tuple[str, ...]] = []
    for template, faults, lo, hi in zip(template_ok, entry_faults, bounds, bounds[1:]):
        bad = [
            f"box {coords[row].tolist()}: {box_faults[row]}" for row in box_faults if lo <= row < hi
        ]
        content_ok.append(template and not faults and not bad)
        diagnostics.append(tuple(faults + bad))
    return ParsedGroup(template_ok, content_ok, diagnostics, bounds, labels, coords, valid, box_faults)


def parse_completion(text: str, fmt: CompletionFormat, space: CoordinateSpace) -> ParseOutcome:
    """Parse one raw completion into predictions plus the two validity flags.

    Deterministic and total: every malformation is reported through the flags
    and diagnostics, never an exception.
    """
    return parse_completions([text], fmt, space).outcome(0)


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
