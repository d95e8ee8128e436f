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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..curation import Sample, TaskKind
from ..geometry import Box, CoordinateSpace, pixel_space
from ..matching import GroundTruthSet
from ..metrics import EvalDataset, EvalImage


@dataclass(frozen=True)
class ImageAnnotation:
    image_id: str
    width: int
    height: int
    instances: tuple[tuple[str, Box], ...]

    def space(self) -> CoordinateSpace:
        return pixel_space(self.width, self.height)

    def gt(self) -> GroundTruthSet:
        return GroundTruthSet.from_pairs(self.instances, self.space())


def _read_jsonl(path: str | Path) -> Iterable[tuple[int, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            yield lineno, json.loads(line)


def load_annotations(path: str | Path) -> list[ImageAnnotation]:
    annotations = []
    for lineno, data in _read_jsonl(path):
        if not isinstance(data, dict):
            raise ValueError(f"{path}:{lineno}: annotation lines must be objects")
        instances = tuple(
            (str(inst["label"]), Box(*(float(v) for v in inst["bbox"])))
            for inst in data.get("instances", [])
        )
        annotations.append(
            ImageAnnotation(
                image_id=str(data["image_id"]),
                width=int(data["width"]),
                height=int(data["height"]),
                instances=instances,
            )
        )
    return annotations


def write_annotations(annotations: Sequence[ImageAnnotation], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ann in annotations:
            handle.write(
                json.dumps(
                    {
                        "image_id": ann.image_id,
                        "width": ann.width,
                        "height": ann.height,
                        "instances": [
                            {"label": label, "bbox": list(box.coords())}
                            for label, box in ann.instances
                        ],
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
    return dataset_from_images([EvalImage(a.image_id, a.space(), a.gt()) for a in annotations])


def convert_coco_layout(src: str | Path, dst: str | Path) -> int:
    """Convert an images/annotations/categories export into native JSONL."""
    with open(src, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    categories = {c["id"]: str(c["name"]) for c in data.get("categories", [])}
    by_image: dict[Any, list[tuple[str, Box]]] = {}
    for ann in data.get("annotations", []):
        x, y, w, h = (float(v) for v in ann["bbox"])
        by_image.setdefault(ann["image_id"], []).append(
            (categories[ann["category_id"]], Box(x, y, x + w, y + h))
        )
    annotations = [
        ImageAnnotation(
            image_id=str(img["id"]),
            width=int(img["width"]),
            height=int(img["height"]),
            instances=tuple(by_image.get(img["id"], [])),
        )
        for img in data.get("images", [])
    ]
    write_annotations(annotations, dst)
    return len(annotations)


def load_predictions(path: str | Path) -> dict[str, list[tuple[str, Box]]]:
    """Prediction JSONL: ``{"image_id", "predictions": [{"label", "bbox"}]}``."""
    out: dict[str, list[tuple[str, Box]]] = {}
    for lineno, data in _read_jsonl(path):
        if not isinstance(data, dict):
            raise ValueError(f"{path}:{lineno}: prediction lines must be objects")
        preds = [
            (str(p["label"]), Box(*(float(v) for v in p["bbox"])))
            for p in data.get("predictions", [])
        ]
        out[str(data["image_id"])] = preds
    return out


def sample_to_dict(sample: Sample) -> dict[str, Any]:
    return {
        "task": sample.task.value,
        "image_id": sample.image_id,
        "width": sample.gt.space.width,
        "height": sample.gt.space.height,
        "coord_space": sample.gt.space.kind.value,
        "gt": [
            {"label": inst.label, "bbox": list(inst.box.coords())}
            for inst in sample.gt.instances
        ],
        "query": list(sample.query) if isinstance(sample.query, tuple) else sample.query,
        "is_negative": sample.is_negative,
    }


def sample_from_dict(data: Mapping[str, Any]) -> Sample:
    from ..geometry import SpaceKind

    space = CoordinateSpace(
        SpaceKind(data.get("coord_space", "pixels")), int(data["width"]), int(data["height"])
    )
    gt = GroundTruthSet.from_pairs(
        ((str(e["label"]), Box(*(float(v) for v in e["bbox"]))) for e in data.get("gt", [])),
        space,
    )
    query_raw = data["query"]
    query: tuple[str, ...] | str
    query = tuple(str(q) for q in query_raw) if isinstance(query_raw, list) else str(query_raw)
    return Sample(
        task=TaskKind(data["task"]),
        image_id=str(data["image_id"]),
        gt=gt,
        query=query,
        is_negative=bool(data.get("is_negative", len(gt.instances) == 0)),
    )


def load_corpus(path: str | Path) -> list[Sample]:
    return [sample_from_dict(data) for _, data in _read_jsonl(path)]


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
        gt = ann.gt()
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
