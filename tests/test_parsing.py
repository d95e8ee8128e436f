import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locscore import (
    Box,
    CoordinateSpace,
    SpaceKind,
    extract_objects,
    parse_completion,
    pixel_space,
    thousandths_space,
)
from locscore.parsing import (
    FormatKind,
    emit_plain,
    emit_structured,
    normalize_label,
    parse_block,
    read_completions,
)

GOLDEN = Path(__file__).parent / "data" / "parser_golden.jsonl"


def load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


GOLDEN_CASES = load_golden()


def _format_for(case):
    return FormatKind(case["format"])


def _space_for(case):
    return CoordinateSpace(SpaceKind(case["space"]), case["width"], case["height"])


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_golden_case(case):
    outcome = parse_completion(case["text"], _format_for(case), _space_for(case))
    assert outcome.template_ok == case["template_ok"]
    assert outcome.content_ok == case["content_ok"]
    got = [
        {"label": p.label, "coords": list(p.coords), "box_valid": p.box_valid}
        for p in outcome.predictions
    ]
    assert got == case["predictions"]


def test_golden_suite_is_large_enough():
    by_format = {"structured": 0, "plain": 0}
    for case in GOLDEN_CASES:
        by_format[case["format"]] += 1
    assert by_format["structured"] >= 30
    assert by_format["plain"] >= 30


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_determinism(case):
    fmt, space = _format_for(case), _space_for(case)
    assert parse_completion(case["text"], fmt, space) == parse_completion(
        case["text"], fmt, space
    )


def test_monotone_strictness():
    for case in GOLDEN_CASES:
        outcome = parse_completion(case["text"], _format_for(case), _space_for(case))
        if outcome.content_ok:
            assert outcome.template_ok
        if not outcome.template_ok:
            assert outcome.predictions == ()


def test_extract_objects_filters_and_preserves_order():
    text = (
        '[{"bbox_2d": [0, 0, 50, 50], "label": "cat"},'
        ' {"bbox_2d": [0, 0, 700, 50], "label": "dog"},'
        ' {"bbox_2d": [5, 5, 25, 25], "label": "person"}]'
    )
    outcome = parse_completion(text, FormatKind.STRUCTURED, pixel_space(640, 480))
    assert len(outcome.predictions) == 3
    objects = extract_objects(outcome)
    assert [label for label, _ in objects] == ["cat", "person"]
    assert objects[0][1] == Box(0, 0, 50, 50)


def test_extract_objects_empty_on_template_failure():
    outcome = parse_completion("no boxes here", FormatKind.STRUCTURED, pixel_space(640, 480))
    assert extract_objects(outcome) == []


def test_deep_nesting_is_template_failure():
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    outcome = parse_completion("[" * 100000, FormatKind.STRUCTURED, pixel_space(640, 480))
    assert not outcome.template_ok and not outcome.content_ok
    assert outcome.predictions == ()
    assert outcome.diagnostics == ("not valid JSON: nesting too deep",)


def test_fence_without_body_is_empty_not_unbalanced():
    outcome = parse_completion("```json\n```", FormatKind.STRUCTURED, pixel_space(640, 480))
    assert not outcome.template_ok and outcome.predictions == ()
    assert outcome.diagnostics == ("empty completion (structured format requires a JSON array)",)


def test_overlong_integer_is_template_failure():
    # json.loads raises a plain ValueError past the interpreter's digit limit
    text = '[{"bbox_2d": [0, 0, 1' + "0" * 5000 + ', 10], "label": "cat"}]'
    outcome = parse_completion(text, FormatKind.STRUCTURED, pixel_space(640, 480))
    assert not outcome.template_ok and not outcome.content_ok
    assert outcome.diagnostics == ("not valid JSON: number too long",)


def test_integer_beyond_float_range_is_content_failure():
    text = '[{"bbox_2d": [0, 0, 1' + "0" * 400 + ', 10], "label": "cat"}]'
    outcome = parse_completion(text, FormatKind.STRUCTURED, pixel_space(640, 480))
    assert outcome.template_ok and not outcome.content_ok
    assert outcome.predictions == ()


_LABEL_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -_"


def _label_strategy():
    return (
        st.text(alphabet=_LABEL_ALPHABET, min_size=1, max_size=20)
        .map(lambda s: " ".join(s.split()))
        .filter(lambda s: s)
    )


def _int_box_strategy():
    def build(x1, y1, w, h):
        return Box(float(x1), float(y1), float(min(x1 + w, 1000)), float(min(y1 + h, 1000)))

    return st.builds(
        build,
        st.integers(0, 999), st.integers(0, 999), st.integers(1, 1000), st.integers(1, 1000)
    )


def _float_box_strategy():
    def build(x1, y1, w, h):
        return Box(x1, y1, min(x1 + w, 640.0), min(y1 + h, 480.0))

    return st.builds(
        build,
        st.floats(0, 600, allow_nan=False),
        st.floats(0, 440, allow_nan=False),
        st.floats(1, 640, allow_nan=False),
        st.floats(1, 480, allow_nan=False),
    )


@given(st.lists(st.tuples(_label_strategy(), _float_box_strategy()), max_size=8))
@settings(max_examples=200)
def test_structured_round_trip(objects):
    text = emit_structured(objects)
    outcome = parse_completion(text, FormatKind.STRUCTURED, pixel_space(640, 480))
    assert outcome.template_ok and outcome.content_ok
    assert extract_objects(outcome) == list(objects)


@given(st.lists(st.tuples(_label_strategy(), _int_box_strategy()), max_size=8))
@settings(max_examples=200)
def test_plain_round_trip(objects):
    text = emit_plain(objects)
    outcome = parse_completion(text, FormatKind.PLAIN, thousandths_space(640, 480))
    assert outcome.template_ok and outcome.content_ok
    assert extract_objects(outcome) == list(objects)


# letters mixed with ASCII, no-break, em, ideographic and line-separator
# spaces and a separator control; str.split() and the parser both take each
# for whitespace
_WHITESPACE = " \t\n\u00a0\u2003\u3000\x1c\u2028"
# a plain label holds no newline, ";" or "-[": the grammar rejects those outright
_PLAIN_LABELS = st.text(alphabet="abXY" + _WHITESPACE.replace("\n", ""), max_size=10)
_STRUCTURED_LABELS = st.text(alphabet="abXY" + _WHITESPACE, max_size=10)


def _structured_text(raw_labels):
    return json.dumps([{"bbox_2d": [1, 2, 3, 4], "label": raw} for raw in raw_labels])


def _plain_text(raw_labels):
    return ";".join(f"{raw}-[1,2,3,4]" for raw in raw_labels)


@given(st.lists(_STRUCTURED_LABELS, min_size=1, max_size=5))
@settings(max_examples=200)
def test_structured_unicode_whitespace_labels(raw_labels):
    outcome = parse_completion(_structured_text(raw_labels), FormatKind.STRUCTURED, pixel_space(640, 480))
    assert outcome.template_ok
    assert [p.label for p in outcome.predictions] == [" ".join(raw.split()) for raw in raw_labels if raw.split()]
    assert outcome.diagnostics == tuple(
        f"entry {index}: label must be a non-empty string" for index, raw in enumerate(raw_labels) if not raw.split()
    )
    assert outcome.content_ok == all(raw.split() for raw in raw_labels)


@given(st.lists(_PLAIN_LABELS, min_size=1, max_size=5))
@settings(max_examples=200)
def test_plain_unicode_whitespace_labels(raw_labels):
    outcome = parse_completion(_plain_text(raw_labels), FormatKind.PLAIN, thousandths_space(640, 480))
    blank = [index for index, raw in enumerate(raw_labels) if not raw.split()]
    if blank:  # an all-whitespace label fails the segment match
        assert not outcome.template_ok and outcome.predictions == ()
        assert outcome.diagnostics == (f"segment {blank[0]} does not match label-[x1,y1,x2,y2]",)
    else:
        assert outcome.template_ok and outcome.content_ok
        assert [p.label for p in outcome.predictions] == [" ".join(raw.split()) for raw in raw_labels]


@st.composite
def _label_blocks(draw):
    """2-4 groups of both formats whose completions draw on one pool of raw labels."""
    pool = draw(st.lists(_PLAIN_LABELS, min_size=1, max_size=4))
    groups = []
    for _ in range(draw(st.integers(2, 4))):
        plain = draw(st.booleans())
        fmt, space = (FormatKind.PLAIN, thousandths_space(640, 480)) if plain else (FormatKind.STRUCTURED, pixel_space(640, 480))
        emit = _plain_text if plain else _structured_text
        texts = [emit(draw(st.lists(st.sampled_from(pool), max_size=4))) for _ in range(draw(st.integers(1, 3)))]
        groups.append((texts, fmt, space))
    return groups


_COORDS = st.integers(0, 700) | st.floats(0, 700, allow_nan=False)
_BAD_BOXES = st.one_of(
    st.lists(st.sampled_from(["1", True, None, [1]]) | _COORDS, min_size=4, max_size=4).filter(
        lambda box: not all(type(v) in (int, float) for v in box)
    ),  # a value of the wrong kind
    st.lists(_COORDS, max_size=6).filter(lambda box: len(box) != 4),  # the wrong arity
    st.sampled_from([[0, 0, float("inf"), 1], [float("nan"), 0, 1, 1], [0, 0, 10**400, 1], "0,0,1,1", None]),
)
_ENTRIES = st.one_of(
    st.fixed_dictionaries({"bbox_2d": st.lists(_COORDS, min_size=4, max_size=4), "label": _STRUCTURED_LABELS}),
    st.fixed_dictionaries({"bbox_2d": _BAD_BOXES, "label": _STRUCTURED_LABELS}),
    st.fixed_dictionaries({"bbox_2d": st.lists(_COORDS, min_size=4, max_size=4), "label": st.sampled_from(["", "  ", 7, None])}),
    st.just({"label": "cat"}),
)


@st.composite
def _structured_completions(draw):
    """A structured completion mixing good and malformed entries, maybe fenced, maybe inside prose."""
    text = json.dumps(draw(st.lists(_ENTRIES, max_size=5)))
    wrap = draw(st.sampled_from(["none", "fence", "prose", "unbalanced"]))
    return {
        "none": text,
        "fence": f"```json\n{text}\n```",
        "prose": f"Here are the objects: {text}",
        "unbalanced": f"```\n{text}",
    }[wrap]


@st.composite
def _plain_completions(draw):
    """Plain segments, some of them malformed, or prose."""
    segments = draw(st.lists(
        st.tuples(_PLAIN_LABELS, st.lists(st.integers(0, 1200), min_size=4, max_size=4)).map(
            lambda entry: f"{entry[0]}-[{','.join(map(str, entry[1]))}]"
        ) | st.sampled_from(["cat-[1,2,3]", "no box here", ""]),
        max_size=4,
    ))
    return ";".join(segments)


@st.composite
def _mixed_blocks(draw):
    """1-4 groups whose completions mix good entries, bad boxes, blank labels, prose, fences and plain segments."""
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        plain = draw(st.booleans())
        fmt = FormatKind.PLAIN if plain else FormatKind.STRUCTURED
        space = CoordinateSpace(fmt.space_kind, draw(st.sampled_from([640, 100])), 480)
        texts = draw(st.lists(_plain_completions() if plain else _structured_completions(), min_size=1, max_size=3))
        groups.append((texts, fmt, space))
    return groups


@given(_label_blocks() | _mixed_blocks())
@settings(max_examples=300)
def test_block_labels_equal_each_completion_alone(groups):
    parsed = parse_block([(read_completions(texts, fmt), space) for texts, fmt, space in groups])
    alone = [parse_completion(text, fmt, space) for texts, fmt, space in groups for text in texts]
    assert [parsed.outcome(index) for index in range(len(alone))] == alone


def test_one_group_is_a_block_of_one():
    """One group's parse has an all-zero row-to-group index, and its rows are
    those of the same group inside a two-group block, in either place."""
    texts = [
        '[{"bbox_2d": [10, 20, 300, 200], "label": " Cat "}, {"bbox_2d": [5, 5, 90, 90], "label": "dog"}]',
        '[{"bbox_2d": [1, 2, 3], "label": "cat"}, {"bbox_2d": [0, 0, 50, 470], "label": "a  b"}]',
        "no objects here",
        "[]",
    ]
    other = (["cat-[1,2,30,40];dog-[5,5,990,1200]", "", "cat-[bad]"], FormatKind.PLAIN, thousandths_space(640, 480))
    for space in (pixel_space(640, 480), pixel_space(100, 100)):
        alone = parse_block([(read_completions(texts, FormatKind.STRUCTURED), space)])
        assert alone.group.dtype.kind == "i" and alone.group.tolist() == [0] * len(alone.labels)
        group = (texts, FormatKind.STRUCTURED, space)
        for place, block_groups in enumerate(([group, other], [other, group])):
            block = parse_block([(read_completions(t, fmt), s) for t, fmt, s in block_groups])
            first = 0 if place == 0 else len(other[0])
            bounds = block.bounds[first : first + len(texts) + 1]
            rows = np.flatnonzero(block.group == place)
            assert rows.tolist() == list(range(bounds[0], bounds[-1]))
            assert [bound - bounds[0] for bound in bounds] == alone.bounds
            assert [block.labels[row] for row in rows] == alone.labels
            assert block.coords[rows].tobytes() == alone.coords.tobytes()
            assert block.valid[rows].tolist() == alone.valid.tolist()
            assert block.diagnostics[first : first + len(texts)] == alone.diagnostics
    assert not alone.valid.all()  # the second space rejects a box the first keeps


def test_regex_whitespace_is_str_isspace():
    """The label check (``label.isspace()``) agrees with what ``collapse_whitespace`` removes."""
    whitespace = re.compile(r"\s")
    assert [c for c in map(chr, range(sys.maxunicode + 1)) if bool(whitespace.fullmatch(c)) != c.isspace()] == []


def test_emit_plain_rejects_fractional_coords():
    with pytest.raises(ValueError):
        emit_plain([("cat", Box(0.5, 0, 10, 10))])


def test_normalize_label():
    assert normalize_label("  Traffic   Light ") == "traffic light"
    assert normalize_label("CAT") == "cat"


def test_spec_examples():
    space = pixel_space(640, 480)
    ok = parse_completion(
        '[{"bbox_2d": [10, 20, 110, 220], "label": "cat"}]', FormatKind.STRUCTURED, space
    )
    assert ok.template_ok and ok.content_ok
    assert [(p.label, list(p.coords)) for p in ok.predictions] == [
        ("cat", [10.0, 20.0, 110.0, 220.0])
    ]

    prose = parse_completion("I cannot find any objects.", FormatKind.STRUCTURED, space)
    assert (prose.template_ok, prose.content_ok, len(prose.predictions)) == (False, False, 0)

    oob = parse_completion(
        '[{"bbox_2d": [10, 20, 110, 900], "label": "cat"}]', FormatKind.STRUCTURED, space
    )
    assert oob.template_ok and not oob.content_ok
    assert extract_objects(oob) == []
