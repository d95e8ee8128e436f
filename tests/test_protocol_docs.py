"""Every JSON example in docs/protocol.md is accepted by the reader it documents."""

import json
from pathlib import Path

import pytest

from locscore.config import DEFAULT_CONFIG, config_from_dict, config_to_dict
from locscore.harness import (
    handle_request_line,
    load_annotations,
    load_corpus,
    load_predictions,
    parse_response,
)

PROTOCOL = Path(__file__).resolve().parent.parent / "docs" / "protocol.md"


def _json_blocks():
    """(section heading, decoded value) of every ```json block, in order."""
    blocks, heading, body = [], None, None
    for line in PROTOCOL.read_text(encoding="utf-8").splitlines():
        if body is not None:
            if line.startswith("```"):
                blocks.append((heading, json.loads("\n".join(body))))
                body = None
            else:
                body.append(line)
        elif line.startswith("#"):
            heading = line.lstrip("#").split(" (")[0].strip()
        elif line.strip() == "```json":
            body = []
    return blocks


def _file_reader(load):
    def read(value, tmp_path):
        path = tmp_path / "example.jsonl"
        path.write_text(json.dumps(value) + "\n", encoding="utf-8")
        assert len(load(path)) == 1

    return read


def _request(value, tmp_path):
    reply = handle_request_line(json.dumps(value))
    assert reply["ok"], reply


# section heading -> the reader of that section's example
_READERS = {
    "Request": _request,
    "Response": lambda value, tmp_path: parse_response(value),
    "Annotations": _file_reader(load_annotations),
    "Predictions": _file_reader(load_predictions),
    "Corpus samples": _file_reader(load_corpus),
    "Engine configuration": lambda value, tmp_path: config_from_dict(value),
}
_BLOCKS = _json_blocks()


def test_every_example_has_a_reader():
    assert sorted(heading for heading, _ in _BLOCKS) == sorted(_READERS)


@pytest.mark.parametrize("heading, value", _BLOCKS, ids=[heading for heading, _ in _BLOCKS])
def test_example_is_accepted(heading, value, tmp_path):
    _READERS[heading](value, tmp_path)


def test_config_example_is_the_default_config():
    """The config example names every key there is, each at its default."""
    examples = [value for heading, value in _BLOCKS if heading == "Engine configuration"]
    assert examples == [config_to_dict(DEFAULT_CONFIG)]
