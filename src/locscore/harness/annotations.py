"""Annotation, corpus, and prediction file formats plus converters.

The native annotation layout is one JSON object per line::

    {"image_id": "img1", "width": 640, "height": 480,
     "instances": [{"label": "cat", "bbox": [x1, y1, x2, y2]}]}

with pixel-space corner coordinates. A converter from the common detection
export layout (top-level ``images`` / ``annotations`` / ``categories`` with
xywh boxes) is provided under the ``convert`` subcommand.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from ..curation import Sample, TaskKind
from ..errors import FieldError
from ..fields import read_field, read_id, read_numbers, read_strings
from ..geometry import Box, CoordinateSpace, SpaceKind
from ..matching import GroundTruthSet, label_spellings
from ..metrics import EvalDataset, EvalImage
from . import wire
from .engine import decode_line


def _read_jsonl(path: str | Path, what: str, decode: Callable[[Mapping[str, Any]], Any]) -> list:
    """Decode each non-blank line of a JSONL file; a fault names its file and line."""
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = decode_line(line)
                if not isinstance(data, Mapping):
                    raise ValueError(f"{what} lines must be objects")
                out.append(decode(data))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def write_jsonl(path: str | Path, entries: Iterable[Mapping[str, Any]]) -> None:
    """Write each entry as one ``dump_line`` line."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(wire.dump_line(entry))
            handle.write("\n")


def _image(
    image_id: str, space: CoordinateSpace, labels: Sequence[str], coords: np.ndarray | Sequence[float]
) -> EvalImage:
    """An annotated image, which must be in pixels; its ground truth is built, and checked against it, once."""
    if space.kind is not SpaceKind.PIXELS:
        raise ValueError(f"coord_space must be 'pixels' in an annotation, got {space.kind.value!r}")
    return EvalImage(image_id, GroundTruthSet.from_arrays(labels, coords, space))


def _image_from_dict(data: Mapping[str, Any]) -> EvalImage:
    return _image(read_id(data, "image_id"), wire.parse_space(data), *wire.parse_objects(data, "instances"))


def load_annotations(path: str | Path) -> list[EvalImage]:
    return _read_jsonl(path, "annotation", _image_from_dict)


def write_annotations(images: Sequence[EvalImage], path: str | Path) -> None:
    entries = (
        {"image_id": image.image_id, "width": image.gt.space.width, "height": image.gt.space.height,
         "instances": wire.objects_to_list(image.gt.instances)}
        for image in images
    )
    write_jsonl(path, entries)


def dataset_from_images(images: Sequence[EvalImage]) -> EvalDataset:
    """Evaluation set whose categories are the ground-truth labels, sorted.

    Labels equal under ``normalize_label`` are one category, spelled as first seen.
    """
    categories = label_spellings(image.gt for image in images).values()
    return EvalDataset(images=tuple(images), categories=tuple(sorted(categories)))


def convert_coco_layout(src: str | Path, dst: str | Path) -> int:
    """Convert an images/annotations/categories export into native JSONL."""
    try:
        with open(src, "r", encoding="utf-8") as handle:
            data = decode_line(handle.read())
        if not isinstance(data, Mapping):
            raise ValueError("the file must hold a JSON object")
        categories = {
            read_field(c, "id", int): read_field(c, "name", str)
            for c in wire.object_array(data, "categories")
        }
        by_image: dict[str, tuple[list[str], list[float]]] = {}
        for ann in wire.object_array(data, "annotations"):
            category = read_field(ann, "category_id", int)
            if category not in categories:
                raise ValueError(f"unknown category_id {category}")
            x, y, w, h = read_numbers(ann, "bbox", 4)
            labels, coords = by_image.setdefault(read_id(ann, "image_id"), ([], []))
            labels.append(categories[category])
            coords.extend((x, y, x + w, y + h))
        images = []
        for img in wire.object_array(data, "images"):
            image_id = read_id(img, "id")
            images.append(_image(image_id, wire.parse_space(img), *by_image.get(image_id, ([], []))))
    except ValueError as exc:
        raise ValueError(f"{src}: {exc}") from None
    write_annotations(images, dst)
    return len(images)


def _predictions_from_dict(data: Mapping[str, Any]) -> tuple[str, list[tuple[str, Box]]]:
    image_id = read_id(data, "image_id")
    labels, coords = wire.parse_objects(data, "predictions")
    return image_id, [(label, Box(*row)) for label, row in zip(labels, coords.tolist())]


def load_predictions(path: str | Path) -> dict[str, list[tuple[str, Box]]]:
    """Prediction JSONL: ``{"image_id", "predictions": [{"label", "bbox"}]}``, one line per image."""
    predictions: dict[str, list[tuple[str, Box]]] = {}

    def add(data: Mapping[str, Any]) -> None:
        image_id, objects = _predictions_from_dict(data)
        if image_id in predictions:
            raise ValueError(f"duplicate image_id {image_id!r}")
        predictions[image_id] = objects

    _read_jsonl(path, "prediction", add)
    return predictions


def sample_to_dict(sample: Sample) -> dict[str, Any]:
    """A corpus line: the wire sample plus ``query`` and ``is_negative``."""
    return {
        **wire.sample_to_dict(sample, sample.task),
        "query": list(sample.query) if isinstance(sample.query, tuple) else sample.query,
        "is_negative": sample.is_negative,
    }


def sample_from_dict(data: Mapping[str, Any]) -> Sample:
    """A corpus line: a wire sample plus ``task``, ``query`` and ``is_negative``."""
    image, task = wire.parse_sample(data)
    query = read_field(data, "query", (str, list))
    if isinstance(query, list):
        query = read_strings(data, "query")
    if "task" not in data:  # a request may leave it out, a corpus line may not
        raise FieldError("missing field 'task'")
    if read_field(data, "is_negative", bool) != (len(image.gt) == 0):
        raise ValueError("is_negative must mirror an empty ground-truth set")
    return Sample(task, image.image_id, image.gt, query)


def load_corpus(path: str | Path) -> list[Sample]:
    return _read_jsonl(path, "corpus", sample_from_dict)


def write_corpus(samples: Sequence[Sample], path: str | Path) -> None:
    write_jsonl(path, map(sample_to_dict, samples))


def corpus_from_annotations(images: Sequence[EvalImage]) -> list[Sample]:
    """Derive a localization corpus from plain detection annotations.

    Per image: one detection sample over all its categories, one grounding
    sample per category, and (for single-instance categories) one referring
    sample with a minimal synthesized expression. Labels equal under
    ``normalize_label`` are one category, spelled as first seen.
    """
    corpus: list[Sample] = []
    for image in images:
        image_id, gt = image.image_id, image.gt
        groups = [
            GroundTruthSet(tuple(gt.instances[i] for i in indices), gt.space)
            for indices in gt.by_label.values()
        ]
        labels = [members.instances[0].label for members in groups]
        corpus.append(Sample(TaskKind.DETECTION, image_id, gt, tuple(labels)))
        for label, members in zip(labels, groups):
            corpus.append(Sample(TaskKind.GROUNDING, image_id, members, label))
            if len(members) == 1:
                corpus.append(Sample(TaskKind.REC, image_id, members, f"the {label}"))
    return corpus
