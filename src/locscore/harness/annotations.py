"""Annotation, corpus, and prediction file formats plus converters.

The native annotation layout is one JSON object per line::

    {"image_id": "img1", "width": 640, "height": 480,
     "instances": [{"label": "cat", "bbox": [x1, y1, x2, y2]}]}

with pixel-space corner coordinates. A converter from the common detection
export layout (top-level ``images`` / ``annotations`` / ``categories`` with
xywh boxes) is provided under the ``convert`` subcommand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..curation import Sample, TaskKind
from ..errors import FieldError
from ..fields import read_field, read_id, read_numbers, read_strings
from ..geometry import Box, CoordinateSpace, SpaceKind, pixel_space
from ..matching import GroundTruthSet
from ..metrics import EvalDataset, EvalImage
from . import wire
from .engine import decode_line


@dataclass(frozen=True)
class ImageAnnotation:
    image_id: str
    width: int
    height: int
    instances: tuple[tuple[str, Box], ...]
    gt: GroundTruthSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # built, and its boxes checked against the image, once
        object.__setattr__(self, "gt", GroundTruthSet.from_pairs(self.instances, self.space()))

    def space(self) -> CoordinateSpace:
        return pixel_space(self.width, self.height)


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


def _annotation_from_dict(data: Mapping[str, Any]) -> ImageAnnotation:
    image_id = read_id(data, "image_id")
    space = wire.parse_space(data)
    if space.kind is not SpaceKind.PIXELS:
        raise ValueError(f"coord_space must be 'pixels' in an annotation, got {space.kind.value!r}")
    instances = tuple(wire.parse_objects(data, "instances"))
    return ImageAnnotation(image_id, space.width, space.height, instances)


def load_annotations(path: str | Path) -> list[ImageAnnotation]:
    return _read_jsonl(path, "annotation", _annotation_from_dict)


def write_annotations(annotations: Sequence[ImageAnnotation], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ann in annotations:
            handle.write(
                json.dumps(
                    {
                        "image_id": ann.image_id,
                        "width": ann.width,
                        "height": ann.height,
                        "instances": wire.objects_to_list(ann.instances),
                    },
                    sort_keys=True,
                )
            )
            handle.write("\n")


def dataset_from_images(images: Sequence[EvalImage]) -> EvalDataset:
    """Evaluation set whose categories are the ground-truth labels, sorted.

    Labels equal under ``normalize_label`` are one category, spelled as first seen.
    """
    categories: dict[str, str] = {}
    for image in images:
        for key, indices in image.gt.by_label.items():
            categories.setdefault(key, image.gt.instances[indices[0]].label)
    return EvalDataset(images=tuple(images), categories=tuple(sorted(categories.values())))


def to_eval_dataset(annotations: Sequence[ImageAnnotation]) -> EvalDataset:
    return dataset_from_images([EvalImage(a.image_id, a.space(), a.gt) for a in annotations])


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
        by_image: dict[str, list[tuple[str, Box]]] = {}
        for ann in wire.object_array(data, "annotations"):
            category = read_field(ann, "category_id", int)
            if category not in categories:
                raise ValueError(f"unknown category_id {category}")
            x, y, w, h = read_numbers(ann, "bbox", 4)
            by_image.setdefault(read_id(ann, "image_id"), []).append(
                (categories[category], Box(x, y, x + w, y + h))
            )
        annotations = []
        for img in wire.object_array(data, "images"):
            image_id = read_id(img, "id")
            space = wire.parse_space(img)
            instances = tuple(by_image.get(image_id, []))
            annotations.append(ImageAnnotation(image_id, space.width, space.height, instances))
    except ValueError as exc:
        raise ValueError(f"{src}: {exc}") from None
    write_annotations(annotations, dst)
    return len(annotations)


def _predictions_from_dict(data: Mapping[str, Any]) -> tuple[str, list[tuple[str, Box]]]:
    return read_id(data, "image_id"), wire.parse_objects(data, "predictions")


def load_predictions(path: str | Path) -> dict[str, list[tuple[str, Box]]]:
    """Prediction JSONL: ``{"image_id", "predictions": [{"label", "bbox"}]}``."""
    return dict(_read_jsonl(path, "prediction", _predictions_from_dict))


def sample_to_dict(sample: Sample) -> dict[str, Any]:
    return {
        "task": sample.task.value,
        "image_id": sample.image_id,
        "width": sample.gt.space.width,
        "height": sample.gt.space.height,
        "coord_space": sample.gt.space.kind.value,
        "gt": wire.objects_to_list((inst.label, inst.box) for inst in sample.gt.instances),
        "query": list(sample.query) if isinstance(sample.query, tuple) else sample.query,
        "is_negative": sample.is_negative,
    }


def sample_from_dict(data: Mapping[str, Any]) -> Sample:
    """A corpus line: a wire sample plus ``task``, ``query`` and ``is_negative``."""
    spec = wire.parse_sample(data)
    query = read_field(data, "query", (str, list))
    if isinstance(query, list):
        query = read_strings(data, "query")
    if "task" not in data:  # a request may leave it out, a corpus line may not
        raise FieldError("missing field 'task'")
    return Sample(
        task=spec.task,
        image_id=spec.image_id,
        gt=spec.gt,
        query=query,
        is_negative=read_field(data, "is_negative", bool),
    )


def load_corpus(path: str | Path) -> list[Sample]:
    return _read_jsonl(path, "corpus", sample_from_dict)


def write_corpus(samples: Sequence[Sample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample_to_dict(sample), sort_keys=True))
            handle.write("\n")


def corpus_from_annotations(annotations: Sequence[ImageAnnotation]) -> list[Sample]:
    """Derive a localization corpus from plain detection annotations.

    Per image: one detection sample over all its categories, one grounding
    sample per category, and (for single-instance categories) one referring
    sample with a minimal synthesized expression. Labels equal under
    ``normalize_label`` are one category, spelled as first seen.
    """
    corpus: list[Sample] = []
    for ann in annotations:
        gt = ann.gt
        groups = [
            GroundTruthSet(tuple(gt.instances[i] for i in indices), gt.space)
            for indices in gt.by_label.values()
        ]
        labels = [members.instances[0].label for members in groups]
        corpus.append(
            Sample(
                task=TaskKind.DETECTION,
                image_id=ann.image_id,
                gt=gt,
                query=tuple(labels),
                is_negative=not ann.instances,
            )
        )
        for label, members in zip(labels, groups):
            corpus.append(
                Sample(
                    task=TaskKind.GROUNDING,
                    image_id=ann.image_id,
                    gt=members,
                    query=label,
                    is_negative=False,
                )
            )
            if len(members) == 1:
                corpus.append(
                    Sample(
                        task=TaskKind.REC,
                        image_id=ann.image_id,
                        gt=members,
                        query=f"the {label}",
                        is_negative=False,
                    )
                )
    return corpus
