import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locscore.harness.engine as engine_module
import locscore.rewards as rewards_module
from locscore import Box, EngineConfig, EvalImage, GroundTruthSet, PhaseConfig, pixel_space, thousandths_space
from locscore.config import config_from_dict, config_to_dict, load_config
from locscore.curation import Sample, TaskKind, synthesize_negative
from locscore.errors import InvalidConfigError, MalformedRequestError
from locscore.harness import (
    convert_coco_layout,
    corpus_from_annotations,
    handle_request_line,
    handle_request_object,
    load_annotations,
    parse_request,
    run_batch,
    run_service,
    score_group,
)
from locscore.harness.annotations import load_corpus, write_annotations, write_corpus
from locscore.harness.cli import _build_config, build_parser
from locscore.harness.cli import main as cli_main
from locscore.harness.wire import _parse_record, decode_request, dump_line, request_to_dict, response_to_dict
from locscore.grpo import KlMode
from locscore.matching import MatcherPolicy
from locscore.parsing import FormatKind, emit_structured
from locscore.rewards import RewardRules, ThresholdTriple

from conftest import LABELS, random_int_box
from oracles import series_by_series_logprobs
from test_fields import logprob_entries

SRC = str(Path(__file__).resolve().parent.parent / "src")
# a bare environment for the CLI subprocesses; a request not to write bytecode caches passes through
SUBPROCESS_ENV = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
if "PYTHONDONTWRITEBYTECODE" in os.environ:
    SUBPROCESS_ENV["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
REMOVED = object()  # a field's change that takes the field out


def make_request_dict(request_id="r1", completions=None, gt=None, **extra):
    data = {
        "v": 1,
        "request_id": request_id,
        "sample": {
            "image_id": "img0",
            "width": 640,
            "height": 480,
            "coord_space": "pixels",
            "task": "object-detection",
            "gt": gt
            if gt is not None
            else [
                {"label": "cat", "bbox": [10, 10, 110, 110]},
                {"label": "dog", "bbox": [200, 200, 300, 300]},
            ],
        },
        "completions": completions
        if completions is not None
        else [
            '[{"bbox_2d": [10, 10, 110, 110], "label": "cat"},'
            ' {"bbox_2d": [200, 200, 300, 300], "label": "dog"}]',
            "not parseable",
        ],
        "progress": 0.0,
    }
    data.update(extra)
    return data


def _image(image_id, pairs, width=640, height=480):
    """An annotated image in pixel space, as ``load_annotations`` returns it."""
    space = pixel_space(width, height)
    return EvalImage(image_id, GroundTruthSet.from_pairs(pairs, space))


def _with_sample(**fields):
    data = make_request_dict(request_id="bad")
    data["sample"].update(fields)
    return data


def _logprobs_with(policy):
    """Two log-prob records whose policy series is ``policy``."""
    return [{"policy": policy, "old": [-0.5], "ref": [-0.5]}] * 2


def _value_at(data, path):
    for key in path:
        data = data[key]
    return data


_NAME_KEYS = {"format", "matcher", "coord_space", "kl_mode", "task"}


def _wrong_kinds(base):
    """(path, value) for a value of another kind at every number, boolean and name leaf."""
    for path in _leaf_paths(base):
        value = _value_at(base, path)
        if isinstance(value, bool):
            wrong = [1, "true"]
        elif isinstance(value, (int, float)):
            wrong = [True, False, "0.5"]
        elif path[-1] in _NAME_KEYS:
            wrong = [1]
        else:
            continue
        for other in wrong:
            yield path, other


def _leaf_paths(value, path=()):
    """Key/index path of every nested value of a JSON-like object."""
    if path:
        yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaf_paths(item, path + (index,))


def _replaced(data, path, value):
    out = copy.deepcopy(data)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def _reject_constant(name):
    raise ValueError(f"reply holds {name}, which strict JSON parsers reject")


def _strict_loads(line):
    return json.loads(line, parse_constant=_reject_constant)


def _apply_replacements(data, replacements):
    # deepest first, so an ancestor replaced later still resolves its path
    for path, value in sorted(replacements, key=lambda r: -len(r[0])):
        data = _replaced(data, path, value)
    return data


def _serve(lines):
    out = io.StringIO()
    code = run_service(EngineConfig(), stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
    assert code == 0
    return [_strict_loads(line) for line in out.getvalue().splitlines()]


def _fuzz_base():
    return make_request_dict(
        logprobs=[{"policy": [-1.0], "old": [-1.0], "ref": [-1.0]}] * 2,
        phase={"beginner": [0.5, 0.5, 0.75], "advanced": [0.75, 0.75, 0.9],
               "step_fraction": 0.5},
        format="structured",
        matcher="box",
        advantages=True,
    )


_FUZZ_PATHS = list(_leaf_paths(_fuzz_base()))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _fails_once(monkeypatch, module, bad_id="boom", name="group_response"):
    """Make ``module.<name>``, called with a request first, raise a non-engine error for one request id."""
    real = getattr(module, name)

    def flaky(req, *args):
        if req.request_id == bad_id:
            raise RuntimeError("engine fault")
        return real(req, *args)

    monkeypatch.setattr(module, name, flaky)


class TestWire:
    def test_round_trip(self):
        data = make_request_dict(logprobs=[
            {"policy": [-1.0, -2.0], "old": [-1.0, -2.0], "ref": [-1.5, -2.5]},
            {"policy": [-3.0], "old": [-3.0], "ref": [-3.0]},
        ])
        req = parse_request(data)
        again = parse_request(request_to_dict(req))
        assert again == req

    def test_task_is_written_in_the_sample(self):
        """The request holds the task beside its sample; the wire keeps it inside, in its place."""
        data = make_request_dict()
        data["sample"]["task"] = "rec"
        req = parse_request(data)
        assert req.task is TaskKind.REC
        sample = request_to_dict(req)["sample"]
        assert list(sample) == ["image_id", "width", "height", "coord_space", "task", "gt"]
        assert sample["task"] == "rec" and parse_request(request_to_dict(req)) == req

    def test_logprobs_are_written_as_read(self):
        """Read-only float64 arrays in, the same JSON out: Python floats, -0.0 and 5e-324 kept."""
        logprobs = [
            {"policy": [-1.0, -0.0], "old": [-5e-324, -2.5], "ref": [-1e308, 0.0]},
            {"policy": [-3, -0.25], "old": [-3.0, 0], "ref": [-3.0, -0.125]},
        ]
        req = parse_request(make_request_dict(logprobs=logprobs))
        record = req.logprobs[0]
        assert record.policy.dtype == np.float64 and not record.policy.flags.writeable
        written = request_to_dict(req)["logprobs"]
        assert all(type(value) is float for entry in written for series in entry.values() for value in series)
        as_floats = [{key: [float(v) for v in values] for key, values in entry.items()} for entry in logprobs]
        assert dump_line({"logprobs": written}) == dump_line({"logprobs": as_floats})

    def test_round_trip_of_a_final_entry(self):
        req = parse_request(make_request_dict(final=True))
        assert req.final is True
        assert request_to_dict(req)["final"] is True
        assert parse_request(request_to_dict(req)) == req
        assert "final" not in request_to_dict(parse_request(make_request_dict()))

    def test_overrides_decode_to_the_config_field_types(self):
        from locscore.config import DEFAULT_CONFIG, phase_to_dict
        from locscore.geometry import SpaceKind

        data = make_request_dict(format="plain", matcher="box-label", phase=phase_to_dict(PhaseConfig()))
        req = parse_request(data)
        for override, default in [
            (req.format, DEFAULT_CONFIG.completion_format),
            (req.matcher, DEFAULT_CONFIG.matcher),
            (req.phase, DEFAULT_CONFIG.phase),
        ]:
            assert type(override) is type(default)
        assert req.format is FormatKind.PLAIN
        assert FormatKind.STRUCTURED.space_kind is SpaceKind.PIXELS
        assert FormatKind.PLAIN.space_kind is SpaceKind.THOUSANDTHS
        written = request_to_dict(req)["format"]
        assert type(written) is str and written == "plain"

    def test_response_round_trip(self):
        from locscore.harness import parse_response, response_to_dict

        resp = score_group(parse_request(make_request_dict()))
        serialized = json.loads(dump_line(response_to_dict(resp)))
        assert parse_response(serialized) == resp

    def test_random_request_round_trips(self, rng):
        for i in range(50):
            n = rng.randrange(2, 5)
            extra = {}
            if rng.random() < 0.5:
                extra["format"] = rng.choice(["structured", "plain"])
            if rng.random() < 0.5:
                extra["matcher"] = rng.choice(["box", "box-label"])
            if rng.random() < 0.4:
                extra["phase"] = {"step_fraction": rng.choice([0.25, 0.5, 1.0])}
            if rng.random() < 0.4:
                lengths = [rng.randrange(1, 6) for _ in range(n)]
                extra["logprobs"] = [
                    {
                        "policy": [rng.uniform(-9, 0) for _ in range(k)],
                        "old": [rng.uniform(-9, 0) for _ in range(k)],
                        "ref": [rng.uniform(-9, 0) for _ in range(k)],
                    }
                    for k in lengths
                ]
            data = make_request_dict(
                request_id=f"rt{i}",
                completions=["[]"] * n,
                gt=[
                    {"label": rng.choice(LABELS), "bbox": list(random_int_box(rng).coords())}
                    for _ in range(rng.randrange(0, 4))
                ],
                progress=rng.random(),
                **extra,
            )
            req = parse_request(data)
            assert parse_request(request_to_dict(req)) == req

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"ok": False}, "cannot decode an error response as a scoring response"),
            ({"v": 2}, "unsupported wire version 2"),
        ],
    )
    def test_response_of_another_kind_rejected(self, change, message):
        from locscore.harness import parse_response, response_to_dict

        data = response_to_dict(score_group(parse_request(make_request_dict())))
        with pytest.raises(MalformedRequestError) as raised:
            parse_response({**data, **change})
        assert str(raised.value) == message

    def test_response_without_diagnostics(self):
        from locscore.harness import parse_response, response_to_dict

        data = response_to_dict(score_group(parse_request(make_request_dict())))
        del data["diagnostics"]
        assert parse_response(data).diagnostics == ()

    def test_response_missing_field_rejected(self):
        from locscore.harness import parse_response, response_to_dict

        data = response_to_dict(score_group(parse_request(make_request_dict())))
        del data["thresholds"]["xi1"]
        with pytest.raises(MalformedRequestError, match="missing field 'xi1'"):
            parse_response(data)

    @pytest.mark.parametrize("key", ["completions", "query", "diagnostics"])
    def test_string_arrays_share_one_reader(self, key):
        from locscore.harness import parse_response, response_to_dict
        from locscore.harness.annotations import sample_from_dict

        if key == "completions":
            data, decode = make_request_dict(completions=["[]", None]), parse_request
        elif key == "query":
            sample = make_request_dict()["sample"]
            data = {**sample, "task": "object-detection", "query": ["cat", 7], "is_negative": False}
            decode = sample_from_dict
        else:
            data = response_to_dict(score_group(parse_request(make_request_dict())))
            data["diagnostics"] = [1, None]
            decode = parse_response
        with pytest.raises(ValueError, match=f"^field '{key}' must be an array of strings$"):
            decode(data)

    def test_missing_field_rejected(self):
        with pytest.raises(MalformedRequestError):
            parse_request({"v": 1, "request_id": "r"})

    def test_bad_version_rejected(self):
        with pytest.raises(MalformedRequestError):
            parse_request(make_request_dict(v=2))

    def test_bad_progress_rejected(self):
        with pytest.raises(MalformedRequestError):
            parse_request(make_request_dict(progress=1.5))

    def test_bad_gt_rejected(self):
        with pytest.raises(MalformedRequestError):
            parse_request(make_request_dict(gt=[{"label": "cat", "bbox": [10, 10, 5, 110]}]))


class TestScoreGroup:
    def test_one_perfect_three_unparseable(self):
        data = make_request_dict(
            completions=[
                '[{"bbox_2d": [10, 10, 110, 110], "label": "cat"},'
                ' {"bbox_2d": [200, 200, 300, 300], "label": "dog"}]',
                "junk",
                "more junk",
                "still junk",
            ]
        )
        resp = score_group(parse_request(data))
        totals = [b.total for b in resp.rewards]
        assert totals == [3.0, 0.0, 0.0, 0.0]
        assert resp.advantages[0] == pytest.approx(1.732, abs=1e-3)
        for adv in resp.advantages[1:]:
            assert adv == pytest.approx(-0.577, abs=1e-3)

    def test_identical_completions_zero_advantage(self):
        data = make_request_dict(completions=["[]", "[]", "[]"])
        resp = score_group(parse_request(data))
        assert resp.advantages == (0.0, 0.0, 0.0)

    def test_progress_controls_thresholds(self):
        data = make_request_dict(progress=0.6)
        resp = score_group(parse_request(data))
        assert resp.thresholds == (0.75, 0.75, 0.9)
        assert resp.phase_name == "advanced"
        early = score_group(parse_request(make_request_dict(progress=0.3)))
        assert early.thresholds == (0.5, 0.5, 0.75)

    def test_phase_override_in_request(self):
        data = make_request_dict(progress=0.6, phase={"step_fraction": 1.0})
        resp = score_group(parse_request(data))
        assert resp.thresholds == (0.5, 0.5, 0.75)

    def test_objective_present_iff_logprobs(self):
        no_lp = score_group(parse_request(make_request_dict()))
        assert no_lp.objective is None
        with_lp = score_group(
            parse_request(
                make_request_dict(
                    logprobs=[
                        {"policy": [-1.0], "old": [-1.0], "ref": [-1.0]},
                        {"policy": [-2.0], "old": [-2.0], "ref": [-2.0]},
                    ]
                )
            )
        )
        assert with_lp.objective is not None
        assert with_lp.kl_values == (0.0, 0.0)

    def test_clamped_log_ratio_reported(self):
        data = make_request_dict(logprobs=[
            {"policy": [-1.0], "old": [-60.0], "ref": [-1.0]},  # log-ratio 59
            {"policy": [-2.0], "old": [-2.0], "ref": [-2.0]},
        ])
        resp = handle_request_line(json.dumps(data))
        assert resp["ok"]
        assert resp["diagnostics"] == ["1 sequence log-ratio(s) clamped to +/-50"]

    def test_logprobs_cut_to_one_record_rejected(self):
        req = parse_request(make_request_dict(logprobs=_logprobs_with([-1.0])))
        with pytest.raises(MalformedRequestError) as raised:
            score_group(dataclasses.replace(req, logprobs=req.logprobs[:1]))
        assert str(raised.value) == "one log-prob record per completion is required"

    def test_single_completion_with_advantages_rejected(self):
        data = make_request_dict(completions=["[]"])
        with pytest.raises(MalformedRequestError):
            score_group(parse_request(data))

    def test_single_completion_without_advantages_ok(self):
        data = make_request_dict(completions=["[]"], advantages=False)
        resp = score_group(parse_request(data))
        assert resp.advantages is None
        assert len(resp.rewards) == 1

    def test_statelessness_under_reordering(self):
        requests = [
            make_request_dict(request_id=f"r{i}", progress=i / 10)
            for i in range(6)
        ]
        first = {r["request_id"]: score_group(parse_request(r)) for r in requests}
        shuffled = requests[::-1]
        second = {r["request_id"]: score_group(parse_request(r)) for r in shuffled}
        assert first == second


class TestService:
    def test_request_response_loop(self):
        lines = [json.dumps(make_request_dict(request_id=f"req{i}")) for i in range(5)]
        out = io.StringIO()
        code = run_service(EngineConfig(), stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        assert code == 0
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["request_id"] for r in responses] == [f"req{i}" for i in range(5)]
        assert all(r["ok"] for r in responses)

    def test_malformed_line_gets_error_response(self):
        lines = [
            json.dumps(make_request_dict(request_id="good1")),
            "{this is not json",
            json.dumps(make_request_dict(request_id="good2")),
        ]
        out = io.StringIO()
        code = run_service(EngineConfig(), stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        assert code == 0
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == 3
        assert responses[0]["ok"] and responses[2]["ok"]
        assert not responses[1]["ok"]
        assert responses[1]["error"]["kind"] == "parse-error"

    def test_deep_nesting_gets_parse_error_and_service_continues(self):
        deep = "[" * 100000
        lines = [
            json.dumps(make_request_dict(request_id="before")),
            deep,
            json.dumps(make_request_dict(request_id="nested", completions=[deep, "[]"])),
            json.dumps(make_request_dict(request_id="after")),
        ]
        out = io.StringIO()
        code = run_service(EngineConfig(), stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        assert code == 0
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == len(lines)
        assert responses[1]["ok"] is False
        assert responses[1]["error"]["kind"] == "parse-error"
        assert [r["request_id"] for r in responses] == ["before", None, "nested", "after"]
        assert responses[0]["ok"] and responses[2]["ok"] and responses[3]["ok"]
        assert responses[2]["rewards"][0]["dual_format"] == 0.0

    @pytest.mark.parametrize(
        "bad, detail",
        [(bad, None) for bad in [
            make_request_dict(request_id="bad", phase={"step_fraction": None}),
            _with_sample(width=10**400),
            _with_sample(width=10**300, height=10**300),
            make_request_dict(request_id="bad", phase=["beginner"]),
            make_request_dict(request_id="bad", progress=10**400),
            make_request_dict(request_id="bad", gt=[{"label": "cat", "bbox": [0, 0, 10**400, 1]}]),
            make_request_dict(
                request_id="bad",
                logprobs=[{"policy": [None], "old": [0.0], "ref": [0.0]}] * 2,
            ),
            make_request_dict(request_id=None),
            _with_sample(width=True, gt=[]),  # would be read as width 1
            _with_sample(height=True, gt=[]),
            _with_sample(image_id=True),
            make_request_dict(request_id=True),
            make_request_dict(request_id="bad", gt=[{"label": "cat", "bbox": ["10", 0, 20, 20]}]),
            make_request_dict(request_id="bad", gt=[{"label": "cat", "bbox": [True, 0, 1, 1]}]),
            make_request_dict(request_id="bad", phase={"beginner": "111"}),
            make_request_dict(request_id="bad", phase={"beginner": [True, True, True]}),
            make_request_dict(request_id="bad", logprobs=_logprobs_with(["-0.5"])),
            make_request_dict(request_id="bad", logprobs=_logprobs_with([False])),
            make_request_dict(request_id="bad", logprobs=_logprobs_with([" -1 "])),
            _with_sample(task=None),
            _with_sample(task="segmentation"),
            make_request_dict(request_id="bad", advantages=1),
        ]] + [
            # two bad ground-truth entries: the first one names the fault
            (make_request_dict(request_id="bad", gt=[{"label": 7, "bbox": [0, 0, 1, 1]},
                                                     {"label": "cat", "bbox": [0, 0, "1", 1]}]),
             "field 'label' must be str"),
            (make_request_dict(request_id="bad", gt=[{"label": "cat", "bbox": [0, 0, "1", 1]},
                                                     {"label": 7, "bbox": [0, 0, 1, 1]}]),
             "field 'bbox' must be an array of four finite numbers"),
            # checked on both paths, acted on only by batch scoring
            (make_request_dict(request_id="bad", final="yes"), "field 'final' must be bool"),
            # a log-prob record is read series by series when its check as a whole fails
            (make_request_dict(request_id="bad", logprobs=[
                {"policy": [0.0, False, 0.0], "old": [0.0] * 3, "ref": [0.0] * 3}] * 2),
             "field 'policy' must be an array of finite numbers"),
            (make_request_dict(request_id="bad", logprobs=_logprobs_with([[-1.0]])),
             "field 'policy' must be an array of finite numbers"),
            (make_request_dict(request_id="bad", logprobs=[
                {"policy": [-1.0, -2.0], "old": [-1.0], "ref": [-1.0, -2.0]}] * 2),
             "policy/old/ref must have equal length >= 1"),
            # the largest finite float is a number, out of range
            (make_request_dict(request_id="bad", progress=1.7976931348623157e308),
             "progress must lie in [0, 1], got 1.7976931348623157e+308"),
        ],
        ids=[
            "step-fraction-null",
            "width-beyond-float",
            "area-beyond-float",
            "phase-not-object",
            "progress-beyond-float",
            "bbox-beyond-float",
            "logprob-null",
            "request-id-null",
            "width-true",
            "height-true",
            "image-id-true",
            "request-id-true",
            "bbox-numeric-string",
            "bbox-boolean",
            "beginner-string",
            "beginner-booleans",
            "logprob-numeric-string",
            "logprob-false",
            "logprob-padded-string",
            "task-null",
            "task-unknown",
            "advantages-one",
            "gt-bad-label-then-bad-bbox",
            "gt-bad-bbox-then-bad-label",
            "final-string",
            "logprob-false-among-zeros",
            "logprob-nested",
            "logprob-unequal-lengths",
            "progress-float-max",
        ],
    )
    def test_malformed_request_between_good_ones(self, bad, detail):
        lines = [
            json.dumps(make_request_dict(request_id="before")),
            json.dumps(bad),
            json.dumps(make_request_dict(request_id="after")),
        ]
        responses = _serve(lines)
        assert len(responses) == 3
        assert responses[0]["ok"] and responses[2]["ok"]
        assert responses[1]["ok"] is False
        assert responses[1]["error"]["kind"] == "malformed-request"
        assert detail in (None, responses[1]["error"]["detail"])

    # a ground-truth entry's faults: the field, the entry's change, and the detail that names it
    _GT_FAULTS = [
        ("label", {"label": 7}, "field 'label' must be str"),
        ("label", {"label": None}, "field 'label' must be str"),
        ("label", {"label": REMOVED}, "missing field 'label'"),
        ("bbox", {"bbox": [0, 0, "1", 1]}, "field 'bbox' must be an array of four finite numbers"),
        ("bbox", {"bbox": [0, 0, 1]}, "field 'bbox' must be an array of four finite numbers"),
        ("bbox", {"bbox": [0, 0, True, 1]}, "field 'bbox' must be an array of four finite numbers"),
        ("bbox", {"bbox": [0, 0, 10**400, 1]}, "field 'bbox' must be an array of four finite numbers"),
        ("bbox", {"bbox": REMOVED}, "missing field 'bbox'"),
        # four numbers that are no box in the image: named only when no entry has a field fault
        ("space", {"bbox": [0, 0, 900, 100]},
         "ground-truth box (0.0, 0.0, 900.0, 100.0) invalid in its space: x2 = 900.0 exceeds extent 640.0"),
        ("space", {"bbox": [50, 0, 10, 100]},
         "ground-truth box (50.0, 0.0, 10.0, 100.0) invalid in its space: x2 <= x1 (non-positive width)"),
    ]

    @given(st.integers(1, 6), st.lists(st.tuples(st.integers(0, 5), st.sampled_from(_GT_FAULTS)), min_size=1, max_size=2))
    @settings(max_examples=200)
    def test_first_bad_ground_truth_entry_is_named(self, size, faults):
        """One or two faults at drawn positions of ``gt``: the detail names the first
        entry with a field fault, its label before its box; with none, the first
        box that is invalid in the image."""
        gt, expected = self._faulty_ground_truth(size, faults)
        reply = handle_request_line(json.dumps(make_request_dict(gt=gt)))
        assert reply["error"] == {"kind": "malformed-request", "detail": expected}

    @given(st.integers(1, 6), st.lists(st.tuples(st.integers(0, 5), st.sampled_from(_GT_FAULTS)), min_size=1, max_size=2))
    @settings(max_examples=50)
    def test_first_bad_ground_truth_entry_is_named_inside_a_manifest(self, size, faults):
        """The same faults in the middle line of three, whose ground truths the engine checks as one block."""
        gt, expected = self._faulty_ground_truth(size, faults)
        lines = [make_request_dict(request_id="a"), make_request_dict(request_id="bad", gt=gt), make_request_dict()]
        with tempfile.TemporaryDirectory() as tmp:
            manifest = Path(tmp) / "manifest.jsonl"
            manifest.write_text("".join(json.dumps(line) + "\n" for line in lines))
            report = run_batch(manifest, Path(tmp) / "out")
        assert report["errors"] == [{"line": 2, "error": expected}]
        assert report["groups"] == 2

    @staticmethod
    def _faulty_ground_truth(size, faults):
        """``size`` ground-truth entries with ``faults`` placed in them, and the detail that names the first."""
        gt = [{"label": "cat", "bbox": [10, 10, 20 + i, 30]} for i in range(size)]
        label_faults, box_faults = {}, {}  # entry -> (kind, detail) of its label's and its box's last change
        for position, (kind, change, detail) in faults:
            index = position % size
            gt[index].update(change)
            gt[index] = {key: value for key, value in gt[index].items() if value is not REMOVED}
            (label_faults if kind == "label" else box_faults)[index] = (kind, detail)
        # on one entry the label's fault is named over the box's
        field_faults = [fault for _, fault in sorted({**box_faults, **label_faults}.items()) if fault[0] != "space"]
        _, expected = (field_faults or [fault for _, fault in sorted(box_faults.items())])[0]
        return gt, expected

    def test_a_sample_that_is_no_object_is_named_by_its_kind(self):
        reply = handle_request_line(json.dumps(make_request_dict(request_id="r", sample=[])))
        assert reply["error"] == {"kind": "malformed-request", "detail": "field 'sample' must be Mapping"}

    def test_task_is_decoded_once_as_a_name(self):
        from locscore import TaskKind
        from locscore.harness.annotations import sample_from_dict

        reply = handle_request_line(json.dumps(_with_sample(task="segmentation")))
        assert reply["error"] == {"kind": "malformed-request", "detail": "unknown task 'segmentation'"}
        sample = make_request_dict()["sample"]
        assert parse_request(make_request_dict()).task is TaskKind.DETECTION
        corpus_line = {**sample, "task": "rec", "query": "the cat", "is_negative": False}
        assert sample_from_dict(corpus_line).task is TaskKind.REC
        del corpus_line["task"]  # optional in a request, required in a corpus line
        with pytest.raises(ValueError, match="^missing field 'task'$"):
            sample_from_dict(corpus_line)

    def test_logprob_corners_that_decode(self):
        """-0.0 is a log-prob; so is -2**64, whose KL against -0.5 then overflows."""
        zeros = [{"policy": [-0.0], "old": [-0.0], "ref": [-0.0]}] * 2
        reply = handle_request_line(json.dumps(make_request_dict(request_id="r", logprobs=zeros)))
        assert reply["ok"] and reply["kl"] == [0.0, 0.0] and reply["objective"] == 0.0
        huge = _logprobs_with([-18446744073709551616])
        reply = handle_request_line(json.dumps(make_request_dict(request_id="r", logprobs=huge)))
        assert reply["error"] == {"kind": "scoring-error", "detail": "KL estimate or objective overflows float64"}

    @given(logprob_entries())
    @settings(max_examples=1000)
    def test_logprob_record_reads_as_series_by_series(self, entry):
        """Bit-identical series, or the same error kind and malformed-request text."""
        data = make_request_dict(logprobs=[entry, {"policy": [-1.0], "old": [-1.0], "ref": [-1.0]}])
        try:
            expected = series_by_series_logprobs(entry)
        except ValueError as exc:
            with pytest.raises(type(exc)) as raised:
                _parse_record(entry)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            with pytest.raises(MalformedRequestError) as raised:
                parse_request(data)
            assert str(raised.value) == str(exc)
        else:
            record = parse_request(data).logprobs[0]
            got = [series.tobytes() for series in (record.policy, record.old, record.ref)]
            assert got == [np.array(series, dtype=float).tobytes() for series in expected]

    def test_kl_overflow_is_scoring_error(self):
        overflowing = {"policy": [-1000.0], "old": [-1000.0], "ref": [0.0]}
        finite = {"policy": [-1.0], "old": [-1.0], "ref": [-1.0]}
        lines = [
            json.dumps(make_request_dict(request_id="before", logprobs=[finite] * 2)),
            json.dumps(make_request_dict(request_id="kl", logprobs=[overflowing, finite])),
            json.dumps(make_request_dict(request_id="after", logprobs=[finite] * 2)),
        ]
        responses = _serve(lines)
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"] == {
            "kind": "scoring-error",
            "detail": "KL estimate or objective overflows float64",
        }

    def test_overlong_integer_gets_parse_error(self):
        # json.loads raises a plain ValueError past the interpreter's digit limit
        lines = [
            json.dumps(make_request_dict(request_id="before")),
            '{"request_id": 1' + "0" * 5000 + "}",
            json.dumps(make_request_dict(request_id="after")),
        ]
        responses = _serve(lines)
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"] == {"kind": "parse-error", "detail": "number too long"}

    def test_any_odd_value_in_any_field_gets_one_response(self):
        base = make_request_dict(
            logprobs=[{"policy": [-1.0], "old": [-1.0], "ref": [-1.0]}] * 2,
            phase={"beginner": [0.5, 0.5, 0.75], "advanced": [0.75, 0.75, 0.9],
                   "step_fraction": 0.5},
            format="structured",
            matcher="box",
            advantages=True,
        )
        odd = [None, "x", [], {}, [1], True, -1, 0, 10**400, -(10**400), 10**300, 1e308,
               math.nan, math.inf]
        lines = [
            json.dumps(_replaced(base, path, value))
            for path in _leaf_paths(base)
            for value in odd
        ]
        responses = _serve(lines)
        assert len(responses) == len(lines)
        kinds = {r["error"]["kind"] for r in responses if not r["ok"]}
        assert kinds <= {"malformed-request", "scoring-error"}

    def test_every_value_of_the_wrong_kind_is_malformed(self):
        base = _fuzz_base()
        cases = list(_wrong_kinds(base))
        assert {path[-1] for path, _ in cases} >= {"v", "progress", "advantages", "matcher", 3}
        responses = _serve([json.dumps(_replaced(base, path, value)) for path, value in cases])
        accepted = [
            (path, value, reply.get("error", {}).get("kind", "ok"))
            for (path, value), reply in zip(cases, responses)
            if reply["ok"] or reply["error"]["kind"] != "malformed-request"
        ]
        assert accepted == []

    @settings(max_examples=200, deadline=None)
    @given(
        replacements=st.lists(
            st.tuples(st.sampled_from(_FUZZ_PATHS), _json_values), max_size=3
        ),
        trailer=st.text(),
    )
    def test_whole_line_fuzz_gets_one_reply_per_line(self, replacements, trailer):
        text = json.dumps(_apply_replacements(_fuzz_base(), replacements)) + "\n" + trailer + "\n"
        expected = sum(1 for line in text.split("\n") if line.strip())
        out = io.StringIO()
        assert run_service(EngineConfig(), stdin=io.StringIO(text), stdout=out) == 0
        responses = [_strict_loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == expected
        assert all(r["ok"] or r["error"]["kind"] != "internal-error" for r in responses)

    def test_internal_fault_gets_internal_error_and_service_continues(
        self, monkeypatch, caplog
    ):
        _fails_once(monkeypatch, engine_module)  # the step after the kernel
        lines = [json.dumps(make_request_dict(request_id=rid)) for rid in ("a", "boom", "b")]
        with caplog.at_level("ERROR", logger="locscore.harness.engine"):
            responses = _serve(lines)
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["request_id"] == "boom"
        assert responses[1]["error"] == {
            "kind": "internal-error", "detail": "RuntimeError: engine fault"
        }
        assert any(record.exc_info for record in caplog.records)

    def test_blank_lines_skipped(self):
        lines = ["", json.dumps(make_request_dict()), "   ", ""]
        out = io.StringIO()
        run_service(EngineConfig(), stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        assert len(out.getvalue().splitlines()) == 1

    def test_responses_independent_of_request_order(self, rng):
        requests = [
            make_request_dict(request_id=f"s{i}", progress=round(rng.random(), 3))
            for i in range(8)
        ]

        def serve(order):
            out = io.StringIO()
            run_service(
                EngineConfig(),
                stdin=io.StringIO("\n".join(json.dumps(r) for r in order) + "\n"),
                stdout=out,
            )
            return {
                resp["request_id"]: resp
                for resp in map(json.loads, out.getvalue().splitlines())
            }

        assert serve(requests) == serve(requests[::-1])

    def test_semantic_error_keeps_request_id(self):
        data = make_request_dict(request_id="oops", completions=["[]"])
        response = handle_request_line(json.dumps(data))
        assert response["ok"] is False
        assert response["request_id"] == "oops"
        assert response["error"]["kind"] == "malformed-request"

    @pytest.mark.parametrize(
        "data, echo, field",
        [(make_request_dict(request_id=10**5000), None, "request_id"), (_with_sample(image_id=10**5000), "bad", "image_id")],
        ids=["request_id", "image_id"],
    )
    def test_an_integer_id_over_the_digit_limit_is_a_field_fault(self, data, echo, field):
        """An id too long for ``str`` is an error reply, in process; on the wire ``json.loads``
        rejects such a number first."""
        reply = handle_request_object(data)
        detail = f"field '{field}' is an integer too long"
        assert (reply["request_id"], reply["error"]) == (echo, {"kind": "malformed-request", "detail": detail})

    def test_transport_failure_exits_nonzero(self):
        class BrokenSink(io.StringIO):
            def write(self, _):
                raise BrokenPipeError("consumer went away")

        code = run_service(
            EngineConfig(),
            stdin=io.StringIO(json.dumps(make_request_dict()) + "\n"),
            stdout=BrokenSink(),
        )
        assert code == 1


def _manifest_entries(rng, n_groups):
    entries = []
    for i in range(n_groups):
        gts = [(rng.choice(LABELS), random_int_box(rng)) for _ in range(rng.randrange(1, 5))]
        perfect = emit_structured([(label, box) for label, box in gts])
        partial = emit_structured([(label, box) for label, box in gts[:1]])
        entry = make_request_dict(
            request_id=f"g{i}",
            completions=[partial, perfect, "junk"],
            gt=[{"label": label, "bbox": list(box.coords())} for label, box in gts],
        )
        entry["sample"]["image_id"] = f"img{i}"
        entry["final"] = True
        entries.append(entry)
    return entries


class TestBatch:
    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("")
        report = run_batch(manifest, tmp_path / "out")
        assert report["groups"] == 0
        assert report["errors"] == []

    def test_missing_manifest_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_batch(tmp_path / "nope.jsonl", tmp_path / "out")

    def test_corrupt_line_collected(self, tmp_path, rng):
        entries = _manifest_entries(rng, 3)
        lines = [json.dumps(entries[0]), "{broken", json.dumps(entries[1])]
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["groups"] == 2
        assert len(report["errors"]) == 1

    def test_syntax_error_entry_names_position(self, tmp_path, rng):
        entries = _manifest_entries(rng, 1)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(entries[0]) + "\n{broken\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["errors"] == [
            {
                "line": 2,
                "error": "invalid JSON: Expecting property name enclosed in double quotes"
                " at position 1",
            }
        ]

    def test_internal_fault_collected_and_batch_continues(self, tmp_path, rng, monkeypatch):
        _fails_once(monkeypatch, engine_module)  # each line's step after the kernel
        entries = _manifest_entries(rng, 3)
        entries[1]["request_id"] = "boom"
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["errors"] == [
            {"line": 2, "error": "internal error: RuntimeError: engine fault"}
        ]
        assert report["groups"] == 2
        assert report["completions"] == 6

    def test_internal_fault_before_the_kernel_collected(self, tmp_path, rng, monkeypatch):
        _fails_once(monkeypatch, engine_module, name="request_group")  # each line's check before the kernel
        entries = _manifest_entries(rng, 3)
        entries[1]["request_id"] = "boom"
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["errors"] == [
            {"line": 2, "error": "internal error: RuntimeError: engine fault"}
        ]
        assert report["groups"] == 2
        assert report["completions"] == 6

    def test_deep_nesting_line_collected(self, tmp_path, rng):
        entries = _manifest_entries(rng, 2)
        lines = [json.dumps(entries[0]), "[" * 100000, json.dumps(entries[1])]
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["groups"] == 2
        assert report["errors"] == [{"line": 2, "error": "invalid JSON: nesting too deep"}]

    def test_duplicate_final_entry_collected_not_fatal(self, tmp_path, rng):
        entries = _manifest_entries(rng, 2)
        entries[1]["sample"]["image_id"] = entries[0]["sample"]["image_id"]
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["groups"] == 2  # both groups still scored
        assert any("duplicate final entry" in e["error"] for e in report["errors"])
        assert "eval" in report

    def test_underflowing_final_box_is_evaluated(self, tmp_path):
        # the intersection of two 1e-200-sided boxes underflows to 0.0
        tiny = [0, 0, 1e-200, 1e-200]
        entry = make_request_dict(
            request_id="tiny",
            completions=[json.dumps([{"bbox_2d": tiny, "label": "cat"}])],
            gt=[{"label": "cat", "bbox": tiny}],
            advantages=False,
        )
        entry["final"] = True
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(entry) + "\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["errors"] == []
        assert "eval_error" not in report
        assert report["eval"]["map_5095"] == 0.0

    def test_overlong_integer_line_collected(self, tmp_path, rng):
        entries = _manifest_entries(rng, 2)
        lines = [json.dumps(entries[0]), '{"v": 1' + "0" * 5000 + "}", json.dumps(entries[1])]
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["groups"] == 2
        assert report["errors"] == [{"line": 2, "error": "invalid JSON: number too long"}]

    def test_final_flag_must_be_boolean(self, tmp_path, rng):
        entry = _manifest_entries(rng, 1)[0]
        entry["final"] = "no"
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(entry) + "\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["groups"] == 0
        assert report["errors"] == [{"line": 1, "error": "field 'final' must be bool"}]

    def test_each_completion_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        original = rewards_module.read_completions

        def counting(*args, **kwargs):
            calls.extend(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(rewards_module, "read_completions", counting)
        manifest = Path(SRC).parent / "fixtures" / "manifest.jsonl"
        entries = [json.loads(line) for line in manifest.read_text().splitlines() if line.strip()]
        assert any(entry.get("final") for entry in entries)
        report = run_batch(manifest, tmp_path / "out")
        assert report["errors"] == [] and "eval" in report
        assert len(calls) == sum(len(entry["completions"]) for entry in entries)

    def test_report_contents_and_eval(self, tmp_path, rng):
        entries = _manifest_entries(rng, 5)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["groups"] == 5
        assert report["completions"] == 15
        assert 0.0 < report["format_failure_rate"] < 1.0
        assert "eval" in report
        assert 0.0 <= report["eval"]["map_5095"] <= 1.0
        assert (tmp_path / "out" / "responses.jsonl").exists()
        assert (tmp_path / "out" / "report.json").exists()
        responses = [
            json.loads(line)
            for line in (tmp_path / "out" / "responses.jsonl").read_text().splitlines()
        ]
        assert [r["request_id"] for r in responses] == [f"g{i}" for i in range(5)]


@st.composite
def threshold_triples(draw):
    """A valid triple: 0 < xi1 <= xi2 <= 1 and 0 < xi0 <= xi2."""
    unit = st.floats(0.0, 1.0, exclude_min=True)
    xi1, xi2 = sorted((draw(unit), draw(unit)))
    return ThresholdTriple(draw(st.floats(0.0, xi2, exclude_min=True)), xi1, xi2)


@st.composite
def engine_configs(draw):
    """A valid ``EngineConfig``: every field drawn, ``clip_range`` None or positive."""
    positive = st.floats(0.0, 1e6, exclude_min=True)
    return EngineConfig(
        phase=PhaseConfig(draw(threshold_triples()), draw(threshold_triples()),
                          draw(st.floats(0.0, 1.0, exclude_min=True))),
        matcher=draw(st.sampled_from(MatcherPolicy)),
        completion_format=draw(st.sampled_from(FormatKind)),
        beta=draw(st.floats(0.0, 1e6)),
        kl_mode=draw(st.sampled_from(KlMode)),
        epsilon=draw(positive),
        clip_range=draw(st.none() | positive),
        rules=RewardRules(*draw(st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()))),
    )


# a ground-truth box that is no box in the image (past its extent, or inverted), and the detail that names it
_BAD_BOXES = [(change["bbox"], detail) for kind, change, detail in TestService._GT_FAULTS if kind == "space"]
# a fault in a field read after the ground truth: the field's path, its value, and the detail
# that names it when the ground truth is good
_LATER_FAULTS = [
    (("progress",), 2, "progress must lie in [0, 1], got 2.0"),
    (("matcher",), "hungarian", "unknown matcher 'hungarian'"),
    (("sample", "task"), "segmentation", "unknown task 'segmentation'"),
    (("completions",), ["[]"], "advantage computation needs at least two completions per group"),
    (("logprobs",), [{"policy": [-1.0], "old": [-1.0], "ref": [-1.0]}],
     "logprobs must be an array with one entry per completion"),
]


class TestBlockFaultOrder:
    """The engine checks the ground truths of a block of requests in one call: a request with a bad
    box is still named by that box ahead of any later fault, wherever it sits in the block, and its
    neighbours are answered as if each were alone."""

    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("box, box_detail", _BAD_BOXES, ids=["past-extent", "inverted"])
    @pytest.mark.parametrize("path, value, later_detail", _LATER_FAULTS, ids=[f[0][-1] for f in _LATER_FAULTS])
    def test_a_bad_box_is_named_before_a_later_fault(self, tmp_path, position, box, box_detail, path, value,
                                                      later_detail):
        bad = make_request_dict(request_id="bad", gt=[{"label": "cat", "bbox": [10, 10, 20, 30]},
                                                      {"label": "dog", "bbox": box}])
        _value_at(bad, path[:-1])[path[-1]] = value
        good_box = copy.deepcopy(bad)
        good_box["sample"]["gt"][1]["bbox"] = [200, 200, 300, 300]
        assert handle_request_line(json.dumps(good_box))["error"]["detail"] == later_detail

        entries = _manifest_entries(random.Random(position), 4)
        entries.insert(position, bad)
        lines = [json.dumps(entry) for entry in entries]
        assert handle_request_line(lines[position])["error"] == {"kind": "malformed-request", "detail": box_detail}
        outcomes = list(engine_module.score_requests(map(json.loads, lines), EngineConfig()))
        assert outcomes[position] == (None, ("malformed-request", box_detail))

        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        report = run_batch(manifest, tmp_path / "out")
        assert report["errors"] == [{"line": position + 1, "error": box_detail}]
        alone = [dump_line(handle_request_line(line)) for index, line in enumerate(lines) if index != position]
        assert (tmp_path / "out" / "responses.jsonl").read_text().splitlines() == alone


# a fault that the decoder does not see in a request with a good box: too few completions for
# advantages (found by the engine's per-request checks), and a log-prob count that differs from the
# completion count (found by the decoder once the ground truth has passed)
_IN_PROCESS_FAULTS = [fault for fault in _LATER_FAULTS if fault[0] in (("completions",), ("logprobs",))]


@st.composite
def in_process_requests(draw):
    """A request object: valid, with a bad ground-truth box, with a later fault, or with both."""
    data, = _manifest_entries(random.Random(draw(st.integers(0, 2**16))), 1)
    data["advantages"] = draw(st.booleans())
    if draw(st.booleans()):
        record = {"policy": [-1.0, -0.5], "old": [-1.2, -0.5], "ref": [-0.9, -0.7]}
        data["logprobs"] = [record] * len(data["completions"])
    if draw(st.booleans()):
        box, _ = draw(st.sampled_from(_BAD_BOXES))
        data["sample"]["gt"].insert(draw(st.integers(0, len(data["sample"]["gt"]))), {"label": "dog", "bbox": box})
    fault = draw(st.none() | st.sampled_from(_IN_PROCESS_FAULTS))
    if fault is not None:
        path, value, _ = fault
        _value_at(data, path[:-1])[path[-1]] = value
        if path == ("completions",):  # one completion, with advantages asked for and its one record
            data["advantages"] = True
            if "logprobs" in data:
                data["logprobs"] = data["logprobs"][:1]
    return data


@settings(max_examples=150, deadline=None)
@given(data=in_process_requests())
def test_score_group_of_a_decoded_request_is_the_service_reply(data):
    """The in-process call answers as the service: the same response, or the exception behind the
    service's error kind and detail, a bad ground-truth box named ahead of any later fault."""
    reply = handle_request_object(copy.deepcopy(data))
    try:
        response = score_group(decode_request(data))
    except Exception as exc:
        assert not reply["ok"]
        assert engine_module.error_outcome(exc) == (reply["error"]["kind"], reply["error"]["detail"])
    else:
        assert response_to_dict(response) == reply


class TestConfig:
    def test_defaults(self):
        config = EngineConfig().validate()
        assert config.beta == 0.2
        assert config.matcher.value == "box"
        assert config.phase.beginner == (0.5, 0.5, 0.75)
        assert config.phase.advanced == (0.75, 0.75, 0.9)

    def test_round_trip(self):
        config = EngineConfig()
        assert config_from_dict(config_to_dict(config)) == config

    @settings(max_examples=200, deadline=None)
    @given(config=engine_configs())
    def test_round_trip_of_any_config(self, config):
        assert config_from_dict(config_to_dict(config)) == config

    @settings(max_examples=100, deadline=None)
    @given(key=st.text(max_size=12))
    def test_keys_are_exactly_those_written(self, key):
        data = config_to_dict(EngineConfig())
        if key in data:
            assert config_from_dict({key: data[key]}) == EngineConfig()
        else:
            with pytest.raises(InvalidConfigError) as raised:
                config_from_dict({**data, key: None})
            assert str(raised.value) == f"unknown config keys: {[key]}"

    def test_clip_range_zero_rejected(self):
        with pytest.raises(InvalidConfigError) as raised:
            config_from_dict({"clip_range": 0})
        assert str(raised.value) == "clip_range must be positive, got 0.0"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "beta": 0.1,
                    "kl_mode": "seq",
                    "matcher": "box-label",
                    "phase": {"step_fraction": 0.25},
                    "rules": {"require_label_match": False},
                }
            )
        )
        config = load_config(path)
        assert config.beta == 0.1
        assert config.kl_mode.value == "seq"
        assert config.phase.step_fraction == 0.25
        assert config.phase.beginner == (0.5, 0.5, 0.75)
        assert not config.rules.require_label_match

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfigError):
            config_from_dict({"betta": 0.3})

    def test_seed_key_rejected(self):
        assert len(dataclasses.fields(EngineConfig)) == 8
        assert "seed" not in config_to_dict(EngineConfig())
        with pytest.raises(InvalidConfigError, match="seed"):
            config_from_dict({"seed": 0})

    def test_validated_at_construction(self):
        with pytest.raises(InvalidConfigError):
            PhaseConfig(step_fraction=0.0)
        with pytest.raises(InvalidConfigError):
            EngineConfig(beta=-1.0)
        with pytest.raises(InvalidConfigError):
            EngineConfig(beta=math.nan)
        with pytest.raises(InvalidConfigError):
            dataclasses.replace(EngineConfig(), epsilon=0.0)
        with pytest.raises(InvalidConfigError):
            _build_config(build_parser().parse_args(["serve", "--step-fraction", "1.5"]))

    @pytest.mark.parametrize(
        "data",
        [
            {"phase": {"step_fraction": None}},
            {"phase": {"beginner": [0.5, 0.5]}},
            {"phase": 3},
            {"beta": None},
            {"epsilon": "small"},
            {"clip_range": 10**400},
            {"rules": []},
            {"phase": {"beginner": "111"}},
            {"phase": {"beginner": [True, True, True]}},
            {"rules": {"use_recall": "no"}},
            {"beta": True},
            {"rules": {"use_recall": 0}},
            {"kl_mode": 3},
        ],
    )
    def test_wrong_types_are_invalid_config(self, data):
        with pytest.raises(InvalidConfigError):
            config_from_dict(data)

    def test_every_value_of_the_wrong_kind_is_invalid_config(self):
        base = config_to_dict(EngineConfig(clip_range=0.2))
        cases = list(_wrong_kinds(base))
        assert {path[-1] for path, _ in cases} >= {"beta", "clip_range", "use_recall", "kl_mode", 2}
        accepted = []
        for path, value in cases:
            try:
                config_from_dict(_replaced(base, path, value))
            except InvalidConfigError:
                continue
            accepted.append((path, value))
        assert accepted == []

    def test_cli_overrides(self):
        config = _build_config(
            build_parser().parse_args(["serve", "--beta", "0.5", "--step-fraction", "0.75"])
        )
        assert config.beta == 0.5
        assert config.phase.step_fraction == 0.75


class TestAnnotations:
    def test_write_load_round_trip(self, tmp_path, rng):
        images = [
            _image(
                f"img{i}",
                [(rng.choice(LABELS), random_int_box(rng)) for _ in range(rng.randrange(0, 4))],
            )
            for i in range(4)
        ]
        path = tmp_path / "annotations.jsonl"
        write_annotations(images, path)
        assert load_annotations(path) == images

    def test_coco_conversion(self, tmp_path):
        src = tmp_path / "coco.json"
        src.write_text(
            json.dumps(
                {
                    "images": [{"id": 1, "width": 640, "height": 480, "file_name": "a.jpg"}],
                    "annotations": [
                        {"id": 9, "image_id": 1, "category_id": 7, "bbox": [10, 20, 100, 50]}
                    ],
                    "categories": [{"id": 7, "name": "cat"}],
                }
            )
        )
        dst = tmp_path / "native.jsonl"
        assert convert_coco_layout(src, dst) == 1
        loaded = load_annotations(dst)
        assert loaded[0].image_id == "1"
        assert loaded[0] == _image("1", [("cat", Box(10, 20, 110, 70))])

    def test_coco_file_not_an_object_rejected(self, tmp_path):
        src = tmp_path / "coco.json"
        src.write_text("[]")
        with pytest.raises(ValueError) as raised:
            convert_coco_layout(src, tmp_path / "native.jsonl")
        assert str(raised.value) == f"{src}: the file must hold a JSON object"
        assert not (tmp_path / "native.jsonl").exists()

    def test_corpus_from_annotations(self, rng):
        images = [_image("img0", [("cat", random_int_box(rng)), ("dog", random_int_box(rng))])]
        corpus = corpus_from_annotations(images)
        tasks = sorted(s.task.value for s in corpus)
        assert "object-detection" in tasks
        assert tasks.count("visual-grounding") == 2
        assert tasks.count("rec") == 2

    def test_corpus_write_load_round_trip(self, tmp_path, rng):
        images = [
            _image(
                f"img{i}",
                [(rng.choice(LABELS), random_int_box(rng)) for _ in range(rng.randrange(0, 5))],
            )
            for i in range(8)
        ]
        samples = corpus_from_annotations(images + [_image("empty", [])])
        detections = [s for s in samples if s.task is TaskKind.DETECTION]
        samples += [synthesize_negative(s, TaskKind.GROUNDING, "zebra") for s in detections[:3]]
        samples += [synthesize_negative(s, TaskKind.REC, "kite") for s in detections[3:5]]
        gt = GroundTruthSet.from_pairs([("cat", Box(0.5, 1.25, 999.5, 1000))], thousandths_space(640, 480))
        samples.append(Sample(TaskKind.REC, "img-thousandths", gt, "the cat"))
        path = tmp_path / "corpus.jsonl"
        write_corpus(samples, path)
        assert load_corpus(path) == samples

    def test_corpus_groups_labels_equal_after_normalizing(self):
        images = [
            _image(
                "img0",
                [
                    ("traffic  light", Box(0, 0, 10, 10)),
                    ("Traffic light", Box(20, 20, 30, 30)),
                    ("cat", Box(40, 40, 90, 90)),
                ],
            )
        ]
        corpus = corpus_from_annotations(images)
        assert [(s.task.value, s.query, len(s.gt.instances)) for s in corpus] == [
            ("object-detection", ("traffic  light", "cat"), 3),
            ("visual-grounding", "traffic  light", 2),
            ("visual-grounding", "cat", 1),
            ("rec", "the cat", 1),
        ]


class TestCli:
    def test_flag_choices_and_defaults_come_from_the_library(self):
        from locscore.curation import MixtureSpec, PromptStyle

        parser = build_parser()
        serve = parser.parse_args(["serve"])
        assert (serve.completion_format, serve.matcher, serve.kl_mode) == (None, None, None)
        assert _build_config(serve) == EngineConfig()
        curate = parser.parse_args(["curate", "--corpus", "c.jsonl", "--out", "o.jsonl"])
        spec = MixtureSpec()
        assert (curate.det, curate.grounding, curate.rec) == tuple(spec.counts[task] for task in TaskKind)
        assert (curate.hard_fraction, curate.negative_fraction, curate.seed) == (
            spec.hard_fraction, spec.negative_fraction, spec.seed
        )
        assert curate.style == parser.parse_args(["prompts", "--corpus", "c.jsonl"]).style == PromptStyle.STRUCTURED
        for value in [kind.value for kind in FormatKind]:
            assert parser.parse_args(["serve", "--format", value]).completion_format == value
        for value in [kind.value for kind in KlMode]:
            assert parser.parse_args(["serve", "--kl", value]).kl_mode == value
        for value in [kind.value for kind in MatcherPolicy]:
            assert parser.parse_args(["serve", "--matcher", value]).matcher == value

    def test_log_env_var_sets_verbosity(self):
        import logging

        from locscore.harness.cli import LOG_ENV_VAR, _configure_logging

        assert LOG_ENV_VAR == "LOCSCORE_LOG"
        from unittest import mock

        with mock.patch.dict(os.environ, {LOG_ENV_VAR: "debug"}):
            logging.getLogger().handlers.clear()
            _configure_logging()
            assert logging.getLogger().level == logging.DEBUG
        with mock.patch.dict(os.environ, {LOG_ENV_VAR: "error"}):
            logging.getLogger().handlers.clear()
            logging.getLogger().setLevel(logging.NOTSET)
            _configure_logging()
            assert logging.getLogger().level == logging.ERROR

    def test_cli_config_file_and_flag_precedence(self, tmp_path, rng):
        from locscore.harness.cli import main as cli_main

        config_path = tmp_path / "engine.json"
        config_path.write_text(json.dumps({"phase": {"step_fraction": 0.25}, "beta": 0.05}))
        entries = _manifest_entries(rng, 2)
        for entry in entries:
            entry["progress"] = 0.3  # past 0.25, before 0.5
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(e) for e in entries) + "\n")

        code = cli_main(
            ["score", str(manifest), "--out", str(tmp_path / "a"), "--config", str(config_path)]
        )
        assert code == 0
        responses = [
            json.loads(line)
            for line in (tmp_path / "a" / "responses.jsonl").read_text().splitlines()
        ]
        assert responses[0]["thresholds"]["phase"] == "advanced"

        # flag overrides the config file
        code = cli_main(
            [
                "score", str(manifest), "--out", str(tmp_path / "b"),
                "--config", str(config_path), "--step-fraction", "0.9",
            ]
        )
        assert code == 0
        responses = [
            json.loads(line)
            for line in (tmp_path / "b" / "responses.jsonl").read_text().splitlines()
        ]
        assert responses[0]["thresholds"]["phase"] == "beginner"

    def test_cli_serve_subprocess(self, tmp_path):
        lines = "\n".join(
            json.dumps(make_request_dict(request_id=f"c{i}")) for i in range(3)
        )
        proc = subprocess.run(
            [sys.executable, "-m", "locscore.harness.cli", "serve"],
            input=lines + "\n",
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["request_id"] for r in responses] == ["c0", "c1", "c2"]

    def test_cli_score_batch(self, tmp_path, rng):
        from locscore.harness.cli import main as cli_main

        entries = _manifest_entries(rng, 3)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        code = cli_main(["score", str(manifest), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["groups"] == 3

    def test_cli_curate_from_annotations(self, tmp_path, rng):
        from locscore.harness.cli import main as cli_main

        images = [
            _image(
                f"img{i}",
                [(rng.choice(LABELS), random_int_box(rng)) for _ in range(rng.randrange(1, 15))],
            )
            for i in range(60)
        ]
        ann_path = tmp_path / "ann.jsonl"
        write_annotations(images, ann_path)
        out = tmp_path / "mix.jsonl"
        code = cli_main(
            [
                "curate", "--annotations", str(ann_path),
                "--det", "10", "--grounding", "5", "--rec", "3",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        entries = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(entries) == 18
        assert all("prompt" in e and "difficulty" in e for e in entries)

    def test_seed_flag_only_on_curate(self):
        from locscore.harness.cli import build_parser

        parser = build_parser()
        for command in (["serve"], ["score", "m.jsonl", "--out", "o"]):
            with pytest.raises(SystemExit):
                parser.parse_args(command + ["--seed", "1"])
        args = parser.parse_args(["curate", "--corpus", "c.jsonl", "--out", "o"])
        assert args.seed == 0

    def test_config_flags_only_on_serve_and_score(self):
        from locscore.harness.cli import build_parser

        parser = build_parser()
        for command in (
            ["eval", "--annotations", "a", "--predictions", "p"],
            ["curate", "--corpus", "c.jsonl", "--out", "o"],
            ["prompts", "--corpus", "c.jsonl"],
        ):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(command + ["--beta", "9"])
            assert exc.value.code == 2
        flags = ["--config", "c.json", "--format", "plain", "--matcher", "box-label",
                 "--step-fraction", "0.3", "--beta", "9", "--kl", "seq"]
        for command in (["serve"], ["score", "m.jsonl", "--out", "o"]):
            args = parser.parse_args(command + flags)
            assert (args.config, args.completion_format, args.matcher) == (
                "c.json", "plain", "box-label"
            )
            assert (args.step_fraction, args.beta, args.kl_mode) == (0.3, 9.0, "seq")

    def test_cli_prompts(self, tmp_path, rng, capsys):
        from locscore.harness.annotations import write_corpus
        from locscore.harness.cli import main as cli_main
        from locscore.curation import Sample, TaskKind
        from locscore import GroundTruthSet

        sample = Sample(
            task=TaskKind.GROUNDING,
            image_id="img0",
            gt=GroundTruthSet.from_pairs([("cat", Box(0, 0, 10, 10))], pixel_space(640, 480)),
            query="cat",
        )
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus([sample], corpus_path)
        code = cli_main(["prompts", "--corpus", str(corpus_path), "--style", "griffon-g"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip() == "Locate the exact position of cat in the picture, if you can."

    def test_cli_convert(self, tmp_path):
        from locscore.harness.cli import main as cli_main

        src = tmp_path / "coco.json"
        src.write_text(
            json.dumps(
                {
                    "images": [{"id": 3, "width": 320, "height": 240, "file_name": "x.jpg"}],
                    "annotations": [
                        {"id": 1, "image_id": 3, "category_id": 2, "bbox": [5, 5, 50, 60]}
                    ],
                    "categories": [{"id": 2, "name": "dog"}],
                }
            )
        )
        out = tmp_path / "native.jsonl"
        code = cli_main(["convert", "--from", "coco", str(src), str(out)])
        assert code == 0
        assert load_annotations(out)[0] == _image("3", [("dog", Box(5, 5, 55, 65))], 320, 240)

    def test_cli_eval(self, tmp_path, rng):
        ann_path = tmp_path / "ann.jsonl"
        write_annotations([_image("img0", [("cat", Box(0, 0, 100, 100))])], ann_path)
        pred_path = tmp_path / "pred.jsonl"
        pred_path.write_text(
            json.dumps(
                {
                    "image_id": "img0",
                    "predictions": [{"label": "cat", "bbox": [0, 0, 100, 100]}],
                }
            )
            + "\n"
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "locscore.harness.cli",
                "eval",
                "--annotations",
                str(ann_path),
                "--predictions",
                str(pred_path),
            ],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["map_5095"] == 1.0

    @pytest.mark.parametrize(
        "prediction, message",
        [
            (
                {"label": "cat", "bbox": [0, 0, 642, 100]},
                "locscore eval: prediction box (0.0, 0.0, 642.0, 100.0) invalid in image img0: "
                "x2 = 642.0 exceeds extent 640.0",
            ),
            ({"label": "cat"}, "locscore eval: {pred_path}:1: missing field 'bbox'"),
            (None, "locscore eval: {pred_path}:1: prediction lines must be objects"),
        ],
        ids=["past-extent", "no-bbox", "not-an-object"],
    )
    def test_cli_eval_bad_input_is_one_line_error(self, tmp_path, capsys, prediction, message):
        from locscore.harness.cli import main as cli_main

        ann_path = tmp_path / "ann.jsonl"
        write_annotations([_image("img0", [("cat", Box(0, 0, 100, 100))])], ann_path)
        pred_path = tmp_path / "pred.jsonl"
        line = [] if prediction is None else {"image_id": "img0", "predictions": [prediction]}
        pred_path.write_text(json.dumps(line) + "\n")
        message = message.format(pred_path=pred_path)
        code = cli_main(
            ["eval", "--annotations", str(ann_path), "--predictions", str(pred_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "\n"


_GOOD_LINES = {
    "annotations": {"image_id": "img0", "width": 640, "height": 480,
                    "instances": [{"label": "cat", "bbox": [0, 0, 100, 100]}]},
    "predictions": {"image_id": "img0",
                    "predictions": [{"label": "cat", "bbox": [0, 0, 100, 100]}]},
    "corpus": {"task": "visual-grounding", "image_id": "img0", "width": 640, "height": 480,
               "coord_space": "pixels", "gt": [{"label": "cat", "bbox": [0, 0, 100, 100]}],
               "query": "cat", "is_negative": False},
}
# (command, the file that gets the arbitrary line); the other inputs are valid
_FILE_COMMANDS = [
    ("eval", "annotations"),
    ("eval", "predictions"),
    ("curate", "annotations"),
    ("curate", "corpus"),
    ("prompts", "corpus"),
]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _odd_record(kind):
    good = _GOOD_LINES[kind]
    replaced = st.lists(
        st.tuples(st.sampled_from(list(_leaf_paths(good))), _json_values), min_size=1, max_size=3
    ).map(lambda pairs: _apply_replacements(good, pairs))
    return st.one_of(replaced, _json_values).map(json.dumps)


@settings(max_examples=300, deadline=None)
@given(
    target=st.sampled_from(_FILE_COMMANDS),
    data=st.data(),
)
def test_cli_any_bad_file_line_is_one_line_error(target, data):
    command, kind = target
    line = data.draw(_odd_record(kind) | st.text(st.characters(blacklist_categories=("Cs",))))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, good in _GOOD_LINES.items():
            paths[name] = Path(tmp) / f"{name}.jsonl"
            text = line if name == kind else json.dumps(good)
            paths[name].write_text(text + "\n", encoding="utf-8")
        if command == "eval":
            argv = ["eval", "--annotations", str(paths["annotations"]),
                    "--predictions", str(paths["predictions"])]
        elif command == "curate":
            argv = ["curate", f"--{kind}", str(paths[kind]), "--out", str(Path(tmp) / "mix.jsonl")]
        else:
            argv = ["prompts", "--corpus", str(paths["corpus"])]
        code, out, err = _run_cli(argv)
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert err.startswith(f"locscore {command}: ")
        assert err.count("\n") == 1 and err.endswith("\n")


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


@pytest.mark.parametrize(
    "case", ["missing-file", "bad-json", "three-number-bbox", "height-true", "bad-config",
             "unknown-coco-category", "config-beta-true", "annotation-thousandths",
             "annotation-box-past-image", "config-not-json", "config-not-object", "coco-thousandths",
             "duplicate-prediction-image"],
)
def test_each_command_reports_bad_input_in_one_line(tmp_path, case):
    good = {name: json.dumps(line) for name, line in _GOOD_LINES.items()}
    if case == "missing-file":
        missing = tmp_path / "nope.jsonl"
        argv = ["score", str(missing), "--out", str(tmp_path / "out")]
        message = f"locscore score: manifest not found: {missing}"
    elif case == "bad-json":
        corpus = _write(tmp_path / "corpus.jsonl", [good["corpus"], "{not json"])
        argv = ["prompts", "--corpus", corpus]
        message = (
            f"locscore prompts: {corpus}:2: "
            "Expecting property name enclosed in double quotes at position 1"
        )
    elif case == "three-number-bbox":
        annotations = _write(tmp_path / "ann.jsonl", [good["annotations"]])
        line = {"image_id": "img0", "predictions": [{"label": "cat", "bbox": [0, 0, 100]}]}
        predictions = _write(tmp_path / "pred.jsonl", [json.dumps(line)])
        argv = ["eval", "--annotations", annotations, "--predictions", predictions]
        message = (
            f"locscore eval: {predictions}:1: field 'bbox' must be an array of four finite numbers"
        )
    elif case == "duplicate-prediction-image":
        # a second line for one image would replace the first: a perfect prediction scored as none
        annotations = _write(tmp_path / "ann.jsonl", [good["annotations"]])
        line = {"image_id": "img0", "predictions": []}
        predictions = _write(tmp_path / "pred.jsonl", [good["predictions"], json.dumps(line)])
        argv = ["eval", "--annotations", annotations, "--predictions", predictions]
        message = f"locscore eval: {predictions}:2: duplicate image_id 'img0'"
    elif case == "height-true":
        line = dict(_GOOD_LINES["annotations"], height=True)
        annotations = _write(tmp_path / "ann.jsonl", [json.dumps(line)])
        argv = ["curate", "--annotations", annotations, "--out", str(tmp_path / "mix.jsonl")]
        message = f"locscore curate: {annotations}:1: field 'height' must be int"
    elif case == "bad-config":
        config = _write(tmp_path / "engine.json", [json.dumps({"betta": 0.3})])
        argv = ["serve", "--config", config]
        message = "locscore serve: unknown config keys: ['betta']"
    elif case == "config-beta-true":
        config = _write(tmp_path / "engine.json", [json.dumps({"beta": True})])
        argv = ["serve", "--config", config]
        message = "locscore serve: field 'beta' must be a finite number"
    elif case == "config-not-json":
        config = _write(tmp_path / "engine.json", ["beta: 0.3"])
        argv = ["serve", "--config", config]
        message = "locscore serve: config file is not valid JSON: Expecting value: line 1 column 1 (char 0)"
    elif case == "config-not-object":
        config = _write(tmp_path / "engine.json", ["[]"])
        argv = ["serve", "--config", config]
        message = "locscore serve: config file must hold a JSON object"
    elif case.startswith("annotation-"):
        if case == "annotation-thousandths":
            line = dict(_GOOD_LINES["annotations"], coord_space="thousandths")
            detail = "coord_space must be 'pixels' in an annotation, got 'thousandths'"
        else:
            line = dict(_GOOD_LINES["annotations"],
                        instances=[{"label": "cat", "bbox": [0, 0, 900, 100]}])
            detail = ("ground-truth box (0.0, 0.0, 900.0, 100.0) invalid in its space: "
                      "x2 = 900.0 exceeds extent 640.0")
        annotations = _write(tmp_path / "ann.jsonl", [good["annotations"], json.dumps(line)])
        predictions = _write(tmp_path / "pred.jsonl", [good["predictions"]])
        argv = ["eval", "--annotations", annotations, "--predictions", predictions]
        message = f"locscore eval: {annotations}:2: {detail}"
    elif case == "coco-thousandths":
        coco = {"images": [{"id": 1, "width": 640, "height": 480, "coord_space": "thousandths"}],
                "annotations": [], "categories": []}
        src = _write(tmp_path / "coco.json", [json.dumps(coco)])
        argv = ["convert", "--from", "coco", src, str(tmp_path / "native.jsonl")]
        message = f"locscore convert: {src}: coord_space must be 'pixels' in an annotation, got 'thousandths'"
    else:
        coco = {
            "images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 9, "bbox": [0, 0, 5, 5]}],
            "categories": [{"id": 2, "name": "dog"}],
        }
        src = _write(tmp_path / "coco.json", [json.dumps(coco)])
        argv = ["convert", src, str(tmp_path / "native.jsonl")]
        message = f"locscore convert: {src}: unknown category_id 9"
    assert _run_cli(argv) == (2, "", message + "\n")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--det", "-1", "counts[object-detection] must be a non-negative integer, got -1"),
        ("--hard-fraction", "-0.5", "hard_fraction must lie in [0, 1], got -0.5"),
        ("--negative-fraction", "nan", "negative_fraction must lie in [0, 1], got nan"),
    ],
)
def test_curate_rejects_an_invalid_mixture(tmp_path, flag, value, message):
    corpus = _write(tmp_path / "corpus.jsonl", [json.dumps(_GOOD_LINES["corpus"])])
    argv = ["curate", "--corpus", corpus, "--out", str(tmp_path / "mix.jsonl"), flag, value]
    assert _run_cli(argv) == (2, "", f"locscore curate: {message}\n")
