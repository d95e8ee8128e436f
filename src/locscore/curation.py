"""Training-data selection at desk scale: difficulty, mixture, prompts.

A corpus of localization samples (detection / grounding / referring
expressions) is stratified per task into hard positives, easy positives, and
negatives, then sampled reproducibly. Negative grounding/REC samples can be
synthesized by querying a category absent from an image.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .errors import InvalidConfigError, UnknownStyleError
from .matching import GroundTruthSet, label_spellings

HARD_INSTANCE_THRESHOLD = 10
HARD_CATEGORY_THRESHOLD = 5


class TaskKind(str, Enum):
    DETECTION = "object-detection"
    GROUNDING = "visual-grounding"
    REC = "rec"


class PromptStyle(str, Enum):
    GRIFFON_G = "griffon-g"
    STRUCTURED = "structured-coordinates"


@dataclass(frozen=True)
class Sample:
    """One curated query: a task, an image, and the instances answering it.

    ``gt`` holds only the instances matching the query, so a negative sample
    is exactly one with an empty ground-truth set.
    """

    task: TaskKind
    image_id: str
    gt: GroundTruthSet
    query: tuple[str, ...] | str

    @property
    def is_negative(self) -> bool:
        return len(self.gt) == 0

    def query_categories(self) -> int:
        return len(self.query) if isinstance(self.query, tuple) else 1


def classify_difficulty(
    sample: Sample,
    instance_threshold: int = HARD_INSTANCE_THRESHOLD,
    category_threshold: int = HARD_CATEGORY_THRESHOLD,
) -> str:
    """``"hard"`` when instances or queried categories exceed their thresholds."""
    if len(sample.gt) > instance_threshold:
        return "hard"
    if sample.query_categories() > category_threshold:
        return "hard"
    return "easy"


@dataclass(frozen=True)
class MixtureSpec:
    counts: Mapping[TaskKind, int] = field(
        default_factory=lambda: {TaskKind.DETECTION: 30, TaskKind.GROUNDING: 9, TaskKind.REC: 10}
    )
    hard_fraction: float = 0.5
    negative_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for task, count in self.counts.items():
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise InvalidConfigError(
                    f"counts[{task.value}] must be a non-negative integer, got {count!r}"
                )
        for name in ("hard_fraction", "negative_fraction"):
            value = getattr(self, name)
            if not 0 <= value <= 1:  # also rejects NaN
                raise InvalidConfigError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class MixtureResult:
    samples: tuple[Sample, ...]
    shortages: tuple[str, ...]


def _take(pool: Sequence[Sample], count: int, rng: random.Random) -> list[Sample]:
    if count <= 0 or not pool:
        return []
    order = list(range(len(pool)))
    rng.shuffle(order)
    return [pool[i] for i in order[:count]]


def synthesize_negative(
    base: Sample, task: TaskKind, absent_category: str
) -> Sample:
    """Negative grounding/REC query on a real image for an absent category."""
    query: tuple[str, ...] | str
    if task is TaskKind.REC:
        query = f"the {absent_category}"
    else:
        query = absent_category
    return Sample(
        task=task,
        image_id=base.image_id,
        gt=GroundTruthSet((), base.gt.space),
        query=query,
    )


def _synthesize_negatives(
    corpus: Sequence[Sample],
    task: TaskKind,
    count: int,
    rng: random.Random,
    labels: Sequence[tuple[str, str]],
) -> list[Sample]:
    # detection samples carry the full annotation set, so absence of a
    # category is decidable from them
    bases = [s for s in corpus if s.task is TaskKind.DETECTION and not s.is_negative]
    order = list(range(len(bases)))
    rng.shuffle(order)
    out: list[Sample] = []
    for index in order:
        if len(out) >= count:
            break
        base = bases[index]
        absent = [label for key, label in labels if key not in base.gt.by_label]
        if not absent:
            continue
        out.append(synthesize_negative(base, task, absent[rng.randrange(len(absent))]))
    return out


def sample_mixture(corpus: Sequence[Sample], spec: MixtureSpec) -> MixtureResult:
    """Seeded stratified sample over (task, difficulty, negativity) strata.

    Best effort: when a stratum runs short the remainder is backfilled from
    the other pools of the same task and the shortage reported; nothing is
    fatal. Output is deterministic in (corpus order, seed).
    """
    selected: list[Sample] = []
    shortages: list[str] = []
    labels = sorted(label_spellings(sample.gt for sample in corpus).items())
    for task in TaskKind:
        want = spec.counts.get(task, 0)
        if want <= 0:
            continue
        rng = random.Random(f"{spec.seed}:{task.value}")
        pool = [s for s in corpus if s.task is task]
        hard_pool = [s for s in pool if not s.is_negative and classify_difficulty(s) == "hard"]
        easy_pool = [s for s in pool if not s.is_negative and classify_difficulty(s) == "easy"]
        neg_pool = [s for s in pool if s.is_negative]

        want_neg = min(int(want * spec.negative_fraction + 0.5), want)
        want_hard = min(int(want * spec.hard_fraction + 0.5), want - want_neg)
        want_easy = want - want_hard - want_neg

        take_neg = _take(neg_pool, want_neg, rng)
        if len(take_neg) < want_neg and task in (TaskKind.GROUNDING, TaskKind.REC):
            take_neg.extend(
                _synthesize_negatives(corpus, task, want_neg - len(take_neg), rng, labels)
            )
        take_hard = _take(hard_pool, want_hard, rng)
        take_easy = _take(easy_pool, want_easy, rng)

        if len(take_hard) < want_hard:
            shortages.append(
                f"{task.value}: wanted {want_hard} hard samples, found {len(take_hard)}"
            )
        if len(take_neg) < want_neg:
            shortages.append(
                f"{task.value}: wanted {want_neg} negative samples, found {len(take_neg)}"
            )

        stratum = take_hard + take_easy + take_neg
        chosen = {id(s) for s in stratum}
        # backfill easy-first so the hard fraction stays as close as possible
        for backfill_pool in (easy_pool, hard_pool, neg_pool):
            missing = want - len(stratum)
            if missing <= 0:
                break
            extra = _take([s for s in backfill_pool if id(s) not in chosen], missing, rng)
            stratum.extend(extra)
            chosen.update(id(s) for s in extra)
        if len(stratum) < want:
            shortages.append(f"{task.value}: wanted {want} samples, found {len(stratum)}")
        selected.extend(stratum)
    return MixtureResult(tuple(selected), tuple(shortages))


def _category_list(query: tuple[str, ...] | str) -> str:
    if isinstance(query, tuple):
        return ", ".join(query)
    return query


# each (style, task)'s template; ``{categories}`` is the query as a category
# list, ``{query}`` the query as it is
_LOCATE_EVERY = "Locate every {query} in the image and output the coordinates in JSON format."
_TEMPLATES = {
    (PromptStyle.GRIFFON_G, TaskKind.DETECTION): "Examine the image for any objects from the category set. "
        "Report the coordinates of each detected object. The category set includes {categories}.",
    (PromptStyle.GRIFFON_G, TaskKind.GROUNDING): "Locate the exact position of {query} in the picture, if you can.",
    (PromptStyle.GRIFFON_G, TaskKind.REC): "Can you point out {query} in the image "
        "and provide the coordinates of its location?",
    (PromptStyle.STRUCTURED, TaskKind.DETECTION): "Locate every item from the category list in the image "
        "and output the coordinates in JSON format. The category set includes {categories}.",
    (PromptStyle.STRUCTURED, TaskKind.GROUNDING): _LOCATE_EVERY,
    (PromptStyle.STRUCTURED, TaskKind.REC): _LOCATE_EVERY,
}


def render_prompt(sample: Sample, style: PromptStyle | str) -> str:
    """Fill the task template for the given host-model prompt style."""
    try:
        style = PromptStyle(style)
    except ValueError as exc:
        raise UnknownStyleError(f"unknown prompt style {style!r}") from exc
    query = sample.query
    return _TEMPLATES[style, sample.task].format(query=query, categories=_category_list(query))
