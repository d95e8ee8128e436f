import json
import random

import pytest

from locscore import (
    GroundTruthSet,
    MixtureSpec,
    PromptStyle,
    Sample,
    TaskKind,
    UnknownStyleError,
    classify_difficulty,
    pixel_space,
    render_prompt,
    sample_mixture,
)
from locscore.harness.annotations import sample_to_dict
from locscore.harness.cli import main as cli_main
from locscore.matching import label_spellings

from conftest import LABELS, random_box

SPACE = pixel_space(640, 480)


def detection_sample(rng, image_id, n_instances, n_categories=None):
    n_categories = n_categories or min(max(1, n_instances), len(LABELS))
    cats = list(LABELS[:n_categories])
    pairs = [(cats[i % len(cats)], random_box(rng)) for i in range(n_instances)]
    return Sample(
        task=TaskKind.DETECTION,
        image_id=image_id,
        gt=GroundTruthSet.from_pairs(pairs, SPACE),
        query=tuple(cats),
    )


def grounding_sample(rng, image_id, n_instances, label="cat"):
    pairs = [(label, random_box(rng)) for _ in range(n_instances)]
    return Sample(
        task=TaskKind.GROUNDING,
        image_id=image_id,
        gt=GroundTruthSet.from_pairs(pairs, SPACE),
        query=label,
    )


def rec_sample(rng, image_id, n_instances=1):
    pairs = [("dog", random_box(rng)) for _ in range(n_instances)]
    return Sample(
        task=TaskKind.REC,
        image_id=image_id,
        gt=GroundTruthSet.from_pairs(pairs, SPACE),
        query="the dog by the bench",
    )


def build_corpus(seed=12, n_det=120, n_ground=60, n_rec=60):
    rng = random.Random(seed)
    corpus = []
    for i in range(n_det):
        # half the detection images are crowded
        n = rng.randrange(11, 25) if i % 2 == 0 else rng.randrange(1, 9)
        corpus.append(detection_sample(rng, f"det{i}", n))
    for i in range(n_ground):
        n = rng.randrange(11, 20) if i % 3 == 0 else rng.randrange(1, 6)
        corpus.append(grounding_sample(rng, f"gnd{i}", n, rng.choice(LABELS)))
    for i in range(n_rec):
        corpus.append(rec_sample(rng, f"rec{i}", rng.randrange(11, 16) if i % 3 == 0 else 1))
    return corpus


class TestClassifyDifficulty:
    def test_eleven_instances_is_hard(self):
        rng = random.Random(0)
        assert classify_difficulty(detection_sample(rng, "a", 11, 2)) == "hard"

    def test_ten_instances_is_easy(self):
        rng = random.Random(0)
        assert classify_difficulty(detection_sample(rng, "a", 10, 2)) == "easy"

    def test_zero_instances_is_easy(self):
        rng = random.Random(0)
        assert classify_difficulty(grounding_sample(rng, "a", 0)) == "easy"

    def test_category_count_triggers_hard(self):
        rng = random.Random(0)
        sample = detection_sample(rng, "a", 6, 6)
        assert classify_difficulty(sample) == "hard"
        assert classify_difficulty(sample, category_threshold=10) == "easy"

    def test_threshold_is_strict(self):
        rng = random.Random(0)
        assert classify_difficulty(detection_sample(rng, "a", 10, 2), instance_threshold=9) == "hard"


class TestSampleMixture:
    def test_scaled_mixture_counts(self):
        corpus = build_corpus()
        spec = MixtureSpec(seed=7)
        result = sample_mixture(corpus, spec)
        by_task = {task: [] for task in TaskKind}
        for sample in result.samples:
            by_task[sample.task].append(sample)
        assert len(by_task[TaskKind.DETECTION]) == 30
        assert len(by_task[TaskKind.GROUNDING]) == 9
        assert len(by_task[TaskKind.REC]) == 10
        # hard fraction within one sample of the target in every stratum
        for task, want in ((TaskKind.DETECTION, 30), (TaskKind.GROUNDING, 9), (TaskKind.REC, 10)):
            hard = sum(1 for s in by_task[task] if classify_difficulty(s) == "hard")
            assert abs(hard - want * 0.5) <= 1.0 + 1e-9

    def test_reproducible(self):
        corpus = build_corpus()
        spec = MixtureSpec(seed=99)
        first = sample_mixture(corpus, spec)
        second = sample_mixture(corpus, spec)
        assert first == second

    def test_different_seeds_differ(self):
        corpus = build_corpus()
        a = sample_mixture(corpus, MixtureSpec(seed=1))
        b = sample_mixture(corpus, MixtureSpec(seed=2))
        assert a.samples != b.samples

    def test_empty_corpus_reports_shortages(self):
        result = sample_mixture([], MixtureSpec())
        assert result.samples == ()
        assert len(result.shortages) >= 3

    def test_zero_hard_fraction(self):
        corpus = build_corpus()
        spec = MixtureSpec(hard_fraction=0.0, negative_fraction=0.0, seed=3)
        result = sample_mixture(corpus, spec)
        assert result.samples
        assert all(classify_difficulty(s) == "easy" for s in result.samples)

    def test_negative_synthesis_for_grounding(self):
        corpus = build_corpus()
        spec = MixtureSpec(negative_fraction=0.3, seed=5)
        result = sample_mixture(corpus, spec)
        grounding = [s for s in result.samples if s.task is TaskKind.GROUNDING]
        negatives = [s for s in grounding if s.is_negative]
        assert len(negatives) == round(9 * 0.3)
        for sample in negatives:
            assert len(sample.gt.instances) == 0

    def test_fractions_exceeding_one_clamp_to_count(self):
        corpus = build_corpus()
        spec = MixtureSpec(hard_fraction=0.9, negative_fraction=0.4, seed=4)
        result = sample_mixture(corpus, spec)
        by_task = {}
        for sample in result.samples:
            by_task.setdefault(sample.task, []).append(sample)
        assert len(by_task[TaskKind.DETECTION]) == 30
        assert len(by_task[TaskKind.GROUNDING]) == 9
        assert len(by_task[TaskKind.REC]) == 10

    def test_shortage_is_best_effort(self):
        rng = random.Random(8)
        corpus = [detection_sample(rng, f"d{i}", 3) for i in range(10)]
        result = sample_mixture(corpus, MixtureSpec(seed=1))
        detections = [s for s in result.samples if s.task is TaskKind.DETECTION]
        assert len(detections) == 10
        assert any("object-detection" in s for s in result.shortages)

    def test_labels_equal_after_normalizing_are_one_category(self):
        rng = random.Random(0)

        def detection(image_id, labels):
            pairs = [(label, random_box(rng)) for label in labels]
            gt = GroundTruthSet.from_pairs(pairs, SPACE)
            return Sample(TaskKind.DETECTION, image_id, gt, tuple(labels))

        corpus = [
            detection("spaced", ["traffic  light"]),
            detection("plain", ["traffic light", "cat"]),
        ]
        spellings = label_spellings(sample.gt for sample in corpus)
        assert len(spellings) == 2
        assert spellings == {"traffic light": "traffic  light", "cat": "cat"}
        for seed in range(10):
            spec = MixtureSpec(counts={TaskKind.GROUNDING: 1}, negative_fraction=1.0, seed=seed)
            negatives = sample_mixture(corpus, spec).samples
            # "spaced" holds a traffic light, so only "cat" is absent from it
            assert [(s.image_id, s.query) for s in negatives] == [("spaced", "cat")]


class TestRenderPrompt:
    def test_detection_classic_style(self):
        rng = random.Random(0)
        sample = detection_sample(rng, "a", 3, 3)
        prompt = render_prompt(sample, PromptStyle.GRIFFON_G)
        assert prompt.startswith("Examine the image for any objects from the category set.")
        assert "Report the coordinates of each detected object." in prompt
        for category in sample.query:
            assert category in prompt

    def test_detection_structured_style(self):
        rng = random.Random(0)
        sample = detection_sample(rng, "a", 2, 2)
        prompt = render_prompt(sample, PromptStyle.STRUCTURED)
        assert prompt.startswith("Locate every item from the category list in the image")
        assert "JSON format" in prompt

    def test_grounding_structured_style(self):
        rng = random.Random(0)
        sample = grounding_sample(rng, "a", 2, "cat")
        assert (
            render_prompt(sample, PromptStyle.STRUCTURED)
            == "Locate every cat in the image and output the coordinates in JSON format."
        )

    def test_grounding_classic_style(self):
        rng = random.Random(0)
        sample = grounding_sample(rng, "a", 2, "cat")
        assert (
            render_prompt(sample, PromptStyle.GRIFFON_G)
            == "Locate the exact position of cat in the picture, if you can."
        )

    def test_rec_classic_style(self):
        rng = random.Random(0)
        sample = rec_sample(rng, "a")
        prompt = render_prompt(sample, PromptStyle.GRIFFON_G)
        assert prompt.startswith("Can you point out the dog by the bench in the image")
        assert prompt.endswith("provide the coordinates of its location?")

    @pytest.mark.parametrize(
        "style, task, prompt",
        [
            (PromptStyle.GRIFFON_G, TaskKind.DETECTION,
             "Examine the image for any objects from the category set. Report the coordinates "
             "of each detected object. The category set includes cat, dog, person."),
            (PromptStyle.GRIFFON_G, TaskKind.GROUNDING,
             "Locate the exact position of cat in the picture, if you can."),
            (PromptStyle.GRIFFON_G, TaskKind.REC,
             "Can you point out the dog by the bench in the image and provide the coordinates "
             "of its location?"),
            (PromptStyle.STRUCTURED, TaskKind.DETECTION,
             "Locate every item from the category list in the image and output the coordinates "
             "in JSON format. The category set includes cat, dog, person."),
            (PromptStyle.STRUCTURED, TaskKind.GROUNDING,
             "Locate every cat in the image and output the coordinates in JSON format."),
            (PromptStyle.STRUCTURED, TaskKind.REC,
             "Locate every the dog by the bench in the image and output the coordinates in JSON format."),
        ],
    )
    def test_every_prompt_exactly(self, style, task, prompt):
        query = {TaskKind.DETECTION: ("cat", "dog", "person"), TaskKind.GROUNDING: "cat",
                 TaskKind.REC: "the dog by the bench"}[task]
        sample = Sample(task, "a", GroundTruthSet((), SPACE), query)
        assert render_prompt(sample, style) == prompt
        assert render_prompt(sample, style.value) == prompt

    def test_query_payload_verbatim(self):
        rng = random.Random(0)
        for sample in (detection_sample(rng, "a", 3, 4), grounding_sample(rng, "b", 1), rec_sample(rng, "c")):
            for style in PromptStyle:
                prompt = render_prompt(sample, style)
                if isinstance(sample.query, tuple):
                    for part in sample.query:
                        assert part in prompt
                else:
                    assert sample.query in prompt

    def test_unknown_style_rejected(self):
        rng = random.Random(0)
        with pytest.raises(UnknownStyleError):
            render_prompt(rec_sample(rng, "a"), "not-a-style")


def test_sample_invariant_enforced(tmp_path, capsys):
    """A sample is negative exactly when its ground truth is empty; a corpus line
    whose ``is_negative`` says otherwise is refused, naming its file and line."""
    rng = random.Random(0)
    positive = grounding_sample(rng, "x", 1)
    assert not positive.is_negative and grounding_sample(rng, "y", 0).is_negative
    line = sample_to_dict(positive)
    for bad in ({**line, "is_negative": True}, {**line, "gt": [], "is_negative": False}):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(line) + "\n" + json.dumps(bad) + "\n")
        assert cli_main(["curate", "--corpus", str(path), "--out", str(tmp_path / "out.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"locscore curate: {path}:2: is_negative must mirror an empty ground-truth set\n"
        assert captured.out == ""
