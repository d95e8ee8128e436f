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
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .geometry import Box, CoordinateSpace, SpaceKind, validate_box

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


def coerce_coords(value: object) -> tuple[float, float, float, float] | None:
    """Four finite JSON numbers (not booleans) as floats, or ``None``: every JSON box."""
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        return None
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            return None
        number = float(item) if abs(item) <= sys.float_info.max else math.inf
        if not math.isfinite(number):
            return None
        out.append(number)
    return (out[0], out[1], out[2], out[3])


def _strip_fences(text: str) -> str | None:
    """Remove one optional surrounding markdown fence; None when unbalanced."""
    s = text.strip()
    if not s.startswith("```"):
        return s
    lines = s.splitlines()
    if len(lines) < 2 or not _FENCE_OPEN.match(lines[0]) or lines[-1].strip() != "```":
        return None
    return "\n".join(lines[1:-1])


def _read_structured(text: str) -> tuple[list[tuple[str, tuple[float, ...]]] | None, list[str]]:
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
    for index, entry in enumerate(value):
        coords = coerce_coords(entry.get("bbox_2d"))
        if coords is None:
            faults.append(f"entry {index}: bbox_2d must be an array of four finite numbers")
            continue
        label = entry.get("label")
        if not isinstance(label, str) or not collapse_whitespace(label):
            faults.append(f"entry {index}: label must be a non-empty string")
            continue
        entries.append((collapse_whitespace(label), coords))
    return entries, faults


def _read_plain(text: str) -> tuple[list[tuple[str, tuple[float, ...]]] | None, list[str]]:
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
        label = collapse_whitespace(matched.group("label"))
        if not label:
            return None, [f"segment {index} has an empty label"]
        coords = tuple(float(matched.group(k)) for k in ("x1", "y1", "x2", "y2"))
        entries.append((label, coords))
    return entries, []


def parse_completion(text: str, fmt: CompletionFormat, space: CoordinateSpace) -> ParseOutcome:
    """Parse one raw completion into predictions plus the two validity flags.

    Deterministic and total: every malformation is reported through the flags
    and diagnostics, never an exception.
    """
    if fmt.kind is FormatKind.STRUCTURED:
        entries, faults = _read_structured(text)
    else:
        entries, faults = _read_plain(text)
    if entries is None:
        return ParseOutcome(False, False, (), tuple(faults))
    diagnostics = list(faults)
    predictions: list[RawPrediction] = []
    for label, coords in entries:
        ok, reason = validate_box(Box(*coords), space)
        predictions.append(RawPrediction(label, coords, ok, reason))
        if not ok:
            diagnostics.append(f"box {list(coords)}: {reason}")
    content_ok = not faults and all(p.box_valid for p in predictions)
    return ParseOutcome(True, content_ok, tuple(predictions), tuple(diagnostics))


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
