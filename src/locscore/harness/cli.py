"""Command-line entry points: score, serve, eval, curate, prompts, convert."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from ..config import EngineConfig, config_from_dict, read_config_file
from ..curation import MixtureSpec, PromptStyle, TaskKind, classify_difficulty, render_prompt, sample_mixture
from ..metrics import evaluate
from . import annotations as ann_io
from .batch import run_batch
from .service import run_service
from .wire import eval_to_dict

LOG_ENV_VAR = "LOCSCORE_LOG"


def _configure_logging() -> None:
    level_name = os.environ.get(LOG_ENV_VAR, "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="engine config file (JSON)")
    parser.add_argument("--format", choices=["structured", "plain"], dest="completion_format")
    parser.add_argument("--matcher", choices=["box", "box-label"])
    parser.add_argument("--step-fraction", type=float, dest="step_fraction")
    parser.add_argument("--beta", type=float)
    parser.add_argument("--kl", choices=["k3", "seq"], dest="kl_mode")


def _build_config(args: argparse.Namespace) -> EngineConfig:
    """Lay each given flag over the config file's object, then decode it once."""
    data = read_config_file(args.config) if args.config else {}
    flags = {
        "format": args.completion_format,
        "matcher": args.matcher,
        "beta": args.beta,
        "kl_mode": args.kl_mode,
    }
    data.update((key, value) for key, value in flags.items() if value is not None)
    phase = data.setdefault("phase", {})
    if args.step_fraction is not None and isinstance(phase, dict):  # others fail below
        phase["step_fraction"] = args.step_fraction
    return config_from_dict(data)


def _cmd_serve(args: argparse.Namespace) -> int:
    return run_service(_build_config(args))


def _cmd_score(args: argparse.Namespace) -> int:
    report = run_batch(args.manifest, args.out, _build_config(args))
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if not report["errors"] or not args.strict else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    dataset = ann_io.to_eval_dataset(ann_io.load_annotations(args.annotations))
    result = evaluate(ann_io.load_predictions(args.predictions), dataset)
    json.dump(eval_to_dict(result), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_curate(args: argparse.Namespace) -> int:
    if args.corpus:
        corpus = ann_io.load_corpus(args.corpus)
    else:
        corpus = ann_io.corpus_from_annotations(ann_io.load_annotations(args.annotations))
    spec = MixtureSpec(
        counts={
            TaskKind.DETECTION: args.det,
            TaskKind.GROUNDING: args.grounding,
            TaskKind.REC: args.rec,
        },
        hard_fraction=args.hard_fraction,
        negative_fraction=args.negative_fraction,
        seed=args.seed,
    )
    result = sample_mixture(corpus, spec)
    style = PromptStyle(args.style)
    with open(args.out, "w", encoding="utf-8") as handle:
        for sample in result.samples:
            entry = ann_io.sample_to_dict(sample)
            entry["difficulty"] = classify_difficulty(sample)
            entry["prompt"] = render_prompt(sample, style)
            entry["prompt_style"] = style.value
            handle.write(json.dumps(entry, sort_keys=True))
            handle.write("\n")
    for shortage in result.shortages:
        print(f"shortage: {shortage}", file=sys.stderr)
    print(f"selected {len(result.samples)} samples -> {args.out}")
    return 0


def _cmd_prompts(args: argparse.Namespace) -> int:
    corpus = ann_io.load_corpus(args.corpus)
    style = PromptStyle(args.style)
    for sample in corpus:
        print(render_prompt(sample, style))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    count = ann_io.convert_coco_layout(args.input, args.output)
    print(f"converted {count} images -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locscore",
        description="Reward scoring engine for localization RL training loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="streaming scoring service on stdin/stdout")
    _config_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    score = sub.add_parser("score", help="batch-score a manifest of completion groups")
    _config_flags(score)
    score.add_argument("manifest", help="manifest JSONL of scoring requests")
    score.add_argument("--out", required=True, help="output directory for responses/report")
    score.add_argument("--strict", action="store_true", help="exit nonzero on per-entry errors")
    score.set_defaults(func=_cmd_score)

    ev = sub.add_parser("eval", help="detection metrics for a prediction file")
    ev.add_argument("--annotations", required=True)
    ev.add_argument("--predictions", required=True)
    ev.set_defaults(func=_cmd_eval)

    curate = sub.add_parser("curate", help="stratified training-mixture sampling")
    source = curate.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", help="corpus JSONL of task samples")
    source.add_argument("--annotations", help="derive the corpus from annotation JSONL")
    curate.add_argument("--det", type=int, default=30)
    curate.add_argument("--grounding", type=int, default=9)
    curate.add_argument("--rec", type=int, default=10)
    curate.add_argument("--hard-fraction", type=float, default=0.5, dest="hard_fraction")
    curate.add_argument(
        "--negative-fraction", type=float, default=0.1, dest="negative_fraction"
    )
    curate.add_argument("--seed", type=int, default=0)
    curate.add_argument("--style", default="structured-coordinates",
                        choices=[s.value for s in PromptStyle])
    curate.add_argument("--out", required=True)
    curate.set_defaults(func=_cmd_curate)

    prompts = sub.add_parser("prompts", help="render task prompts for a corpus")
    prompts.add_argument("--corpus", required=True)
    prompts.add_argument("--style", default="structured-coordinates",
                         choices=[s.value for s in PromptStyle])
    prompts.set_defaults(func=_cmd_prompts)

    convert = sub.add_parser("convert", help="import annotations from other layouts")
    convert.add_argument("--from", dest="layout", default="coco", choices=["coco"])
    convert.add_argument("input")
    convert.add_argument("output")
    convert.set_defaults(func=_cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; bad input of any kind is one stderr line and exit code 2."""
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every EngineError is a ValueError
        print(f"locscore {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
