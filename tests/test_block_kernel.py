"""The group kernel over blocks of groups: each group's result is the one it
gets alone, blocks close at their limits, a fault stays on its own line, and
memory stays within the cell budget."""

import json
import random
import tracemalloc
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

import locscore.harness.engine as engine_module
import locscore.rewards as rewards_module
from locscore.geometry import Box, CoordinateSpace, SpaceKind, pixel_space
from locscore.harness.batch import run_batch
from locscore.matching import GroundTruthSet, MatcherPolicy
from locscore.parsing import FormatKind
from locscore.rewards import (
    ADVANCED_THRESHOLDS,
    BEGINNER_THRESHOLDS,
    BLOCK_CELLS,
    Group,
    RewardRules,
    ThresholdTriple,
    score_groups,
)

from test_rewards import KERNEL_LABELS, scoring_groups

THRESHOLDS = [BEGINNER_THRESHOLDS, ADVANCED_THRESHOLDS, ThresholdTriple(0.3, 0.2, 0.9)]


@st.composite
def grid_groups(draw):
    """A group on a small integer grid, where equal IoUs and cost ties are common."""
    side = draw(st.sampled_from([4, 8, 10]))
    fmt = draw(st.sampled_from([FormatKind.STRUCTURED, FormatKind.PLAIN]))
    space = CoordinateSpace(fmt.space_kind, side, side)
    gt_space = CoordinateSpace(draw(st.sampled_from(list(SpaceKind))), side, side)

    def grid_box(target):
        step = target.max_x / side  # whole pixels, or whole thousandths
        x1, y1 = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
        x2, y2 = draw(st.integers(x1 + 1, side)), draw(st.integers(y1 + 1, side))
        return [int(v * step) for v in (x1, y1, x2, y2)]

    gt = GroundTruthSet.from_pairs(
        [(draw(st.sampled_from(KERNEL_LABELS)), Box(*map(float, grid_box(gt_space))))
         for _ in range(draw(st.integers(0, 6)))],
        gt_space,
    )
    pool = [grid_box(space) for _ in range(3)]  # few distinct boxes: many duplicates
    texts = []
    for _ in range(draw(st.integers(1, 6))):
        entries = [(draw(st.sampled_from(KERNEL_LABELS)), draw(st.sampled_from(pool)))
                   for _ in range(draw(st.integers(0, 8)))]
        if fmt is FormatKind.PLAIN:
            texts.append(";".join(f"{label.strip()}-[{','.join(map(str, box))}]" for label, box in entries))
        else:
            texts.append(json.dumps([{"bbox_2d": box, "label": label} for label, box in entries]))
    return texts, fmt, space, gt, draw(st.sampled_from(list(MatcherPolicy))), draw(st.sampled_from(THRESHOLDS))


@st.composite
def blocks(draw):
    """1-8 groups of mixed formats, spaces, policies and thresholds; rules; a cell budget."""
    cases = draw(st.lists(st.one_of(scoring_groups(), grid_groups()), min_size=1, max_size=8))
    groups = [Group(*case[:6]) for case in cases]
    rules = RewardRules(*draw(st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans())))
    return groups, rules, draw(st.sampled_from([1, 300, BLOCK_CELLS, BLOCK_CELLS]))


@contextmanager
def cell_budget(cells):
    saved = rewards_module.BLOCK_CELLS
    rewards_module.BLOCK_CELLS = cells
    try:
        yield
    finally:
        rewards_module.BLOCK_CELLS = saved


def exact(breakdown):
    """The seven wire fields (repr shows every float exactly) and the objects, bit for bit."""
    labels, boxes = breakdown.objects
    return repr(breakdown), list(labels), [[value.hex() for value in row] for row in boxes.tolist()]


@given(blocks())
@settings(max_examples=100, deadline=None)
def test_block_equals_each_group_alone(case):
    groups, rules, cells = case
    alone = [score_groups([group], rules)[0] for group in groups]
    with cell_budget(cells):
        together = score_groups(groups, rules)
    assert [[exact(b) for b in group] for group in together] == [[exact(b) for b in group] for group in alone]


def test_each_row_keeps_its_own_groups_policy():
    """A "dog" box on a "cat" ground truth, beside a slightly worse "dog" one:
    the box-only group takes the cat (not valid), the box-label group the dog."""
    space = pixel_space(64, 64)
    gt = GroundTruthSet.from_pairs([("cat", Box(0.0, 0.0, 10.0, 10.0)), ("dog", Box(0.0, 0.0, 10.0, 12.0))], space)
    text = json.dumps([{"bbox_2d": [0, 0, 10, 10], "label": "dog"}])
    box_only, box_label = (
        Group([text], FormatKind.STRUCTURED, space, gt, policy, BEGINNER_THRESHOLDS) for policy in MatcherPolicy
    )
    for block in ([box_only, box_label], [box_label, box_only]):
        scored = {group.policy: breakdowns[0].n_valid for group, breakdowns in zip(block, score_groups(block))}
        assert scored == {MatcherPolicy.BOX_ONLY: 0, MatcherPolicy.BOX_AND_LABEL: 1}


def _group(entries, n_gt, completions=2):
    """A structured group of ``completions`` completions of ``entries`` boxes each against ``n_gt`` ground truths."""
    space = pixel_space(64, 64)
    gt = GroundTruthSet.from_pairs([("cat", Box(float(i), 0.0, i + 8.0, 8.0)) for i in range(n_gt)], space)
    text = json.dumps([{"bbox_2d": [i, 0, i + 8, 8], "label": "cat"} for i in range(entries)])
    return Group([text] * completions, FormatKind.STRUCTURED, space, gt, MatcherPolicy.BOX_ONLY, BEGINNER_THRESHOLDS)


def test_blocks_close_at_the_cell_budget(monkeypatch):
    sizes = []
    real = rewards_module._score_block
    monkeypatch.setattr(
        rewards_module, "_score_block", lambda block, rules: sizes.append(len(block)) or real(block, rules)
    )
    small, big, negative = _group(5, 5), _group(15, 5), _group(5, 0)  # 50, 150 and 0 cells
    with cell_budget(100):
        score_groups([small, small, small, negative, big, small])
    # two small groups fill 100 cells; a group over the budget is a block of its own
    assert sizes == [2, 2, 1, 1]


def _manifest_line(rng, index, marker=False):
    space = {"width": 64, "height": 64}
    gt = [{"label": rng.choice(["cat", "dog"]), "bbox": [float(x), 0.0, x + 9.0, 9.0]} for x in range(0, 40, 10)]
    completions = [
        json.dumps([{"bbox_2d": [x + rng.randint(0, 2), 0, x + 9, 9], "label": "boom" if marker else "cat"}
                    for x in range(0, rng.randint(0, 4) * 10, 10)])
        for _ in range(2)
    ]
    return json.dumps({"v": 1, "request_id": f"r{index}", "final": True, "completions": completions,
                       "sample": {"image_id": f"i{index}", **space, "gt": gt}})


def test_run_batch_gives_the_kernel_blocks_of_at_most_block_groups(tmp_path, monkeypatch):
    block = engine_module.BLOCK_GROUPS
    rng = random.Random(3)
    lines = [_manifest_line(rng, index) for index in range(2 * block + 22)]
    lines.insert(70, "{broken")
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    sizes = []
    real = engine_module.score_groups
    monkeypatch.setattr(
        engine_module, "score_groups", lambda groups, rules: sizes.append(len(groups)) or real(groups, rules)
    )
    report = run_batch(tmp_path / "manifest.jsonl", tmp_path / "out")
    assert sizes == [block, block, 22]
    assert report["groups"] == 2 * block + 22
    assert report["errors"] == [
        {"line": 71, "error": "invalid JSON: Expecting property name enclosed in double quotes at position 1"}
    ]


def test_kernel_fault_lands_on_its_own_line(tmp_path, monkeypatch):
    rng = random.Random(4)
    lines = [_manifest_line(rng, index, marker=index == 6) for index in range(20)]
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    run_batch(tmp_path / "manifest.jsonl", tmp_path / "clean")
    clean = (tmp_path / "clean" / "responses.jsonl").read_text().splitlines()

    real = rewards_module.read_completions

    def planted(texts, *args):
        if any('"boom"' in text for text in texts):
            raise RuntimeError("planted")
        return real(texts, *args)

    monkeypatch.setattr(rewards_module, "read_completions", planted)
    report = run_batch(tmp_path / "manifest.jsonl", tmp_path / "faulty")
    assert report["errors"] == [{"line": 7, "error": "internal error: RuntimeError: planted"}]
    faulty = (tmp_path / "faulty" / "responses.jsonl").read_text().splitlines()
    assert faulty == clean[:6] + clean[7:]


def test_block_memory_stays_within_the_cell_budget():
    """64 groups the size of a stream-dense request: 8 completions of 96 boxes against 64 ground truths.

    One such group is 49,152 cells, so each is a block of its own. Bound:
    96 bytes per cell of the budget, 6 MiB. Measured: 3.6 MiB peak, 2.2 MiB
    of it the breakdowns and objects kept for the caller; one block for all
    64 groups peaks at 207 MiB.
    """
    rng = random.Random(5)
    space = pixel_space(640, 480)

    def box():
        x, y = rng.randint(0, 600), rng.randint(0, 440)
        return [x, y, x + rng.randint(5, 40), y + rng.randint(5, 40)]

    groups = []
    for _ in range(64):
        gt = GroundTruthSet.from_pairs([("cat", Box(*map(float, box()))) for _ in range(64)], space)
        gt.coords, gt.label_keys  # cached before tracing, as a parsed request holds them
        texts = [json.dumps([{"bbox_2d": box(), "label": "cat"} for _ in range(96)]) for _ in range(8)]
        groups.append(Group(texts, FormatKind.STRUCTURED, space, gt, MatcherPolicy.BOX_ONLY, BEGINNER_THRESHOLDS))
    tracemalloc.start()
    try:
        scored = score_groups(groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scored) == 64
    assert peak < 96 * BLOCK_CELLS, peak
