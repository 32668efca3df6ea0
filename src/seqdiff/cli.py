"""Command-line entry point.

Subcommands: preprocess, synth, schedule-dump, train, infer, eval, probe.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, load_config
from .data import (ingest, load_processed, parse_number, preprocess, save_processed, split,
                   synth)
from .evaluate import (PopularityScorer, evaluate, head_tail_report,
                       length_bucket_report, rank_records, uncertainty_probe)
from .infer import build_scorer, rank_items
from .metrics import report_csv_rows, report_from_ranks, report_table
from .rng import RngStream
from .schedule import build_schedule, dump_schedule_csv
from .train import run_training


def _cmd_preprocess(args) -> int:
    records = ingest(args.infile)
    dataset = preprocess(records, min_count=args.min_count, max_len=args.max_len,
                         kcore_iterate=args.kcore_iterate)
    save_processed(dataset, args.out)
    print(f"{dataset.n_sequences} sequences, {dataset.n_items} items, "
          f"{dataset.n_actions} actions, avg length {dataset.avg_len:.2f}")
    return 0


def _cmd_synth(args) -> int:
    dataset = synth(args.kind, args.users, args.items, args.len, args.seed)
    save_processed(dataset, args.out)
    print(f"wrote {args.kind} dataset: {dataset.n_sequences} sequences over "
          f"{dataset.n_items} items to {args.out}")
    return 0


def _cmd_schedule_dump(args) -> int:
    schedule = build_schedule(args.kind, args.t, args.a, args.b, args.tau)
    dump_schedule_csv(schedule, args.out)
    print(f"wrote {schedule.t} steps of the {schedule.kind} schedule to {args.out}")
    return 0


def _check_out(path: str | None) -> None:
    """Refuse an --out that no file can be written to, before any work is done."""
    if path is not None and Path(path).is_dir():
        raise ValueError(f"--out {path} is a directory")
    if path is not None and not Path(path).parent.is_dir():
        raise ValueError(f"--out {path}: directory {Path(path).parent} does not exist")


def _cmd_train(args) -> int:
    _check_out(args.out)
    dataset = load_processed(args.data)
    cfg = load_config(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    result = run_training(dataset, cfg, log_fn=print)
    save_checkpoint(result.checkpoint, args.out)
    print(f"saved checkpoint (epoch {result.checkpoint.epoch}) to {args.out}")
    return 0


def _parse_sequence(text: str) -> list[int]:
    """Comma-separated items; an empty field is refused, not skipped."""
    if not text.strip():
        raise ValueError("item sequence is empty")
    try:
        return [parse_number(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse item sequence {text!r}") from None


def _cmd_infer(args) -> int:
    if args.topk < 1:
        raise ValueError(f"top-k must be at least 1, got {args.topk}")
    ckpt = load_checkpoint(args.ckpt)
    scorer = build_scorer(ckpt, steps=args.steps)
    sequence = _parse_sequence(args.sequence)
    scores = scorer.score(sequence, RngStream(args.seed))
    ranking = rank_items(scores)
    print("rank\titem\tscore")
    for pos, item in enumerate(ranking[: args.topk], start=1):
        print(f"{pos}\t{item}\t{scores[item]:.6g}")
    return 0


def _cmd_eval(args) -> int:
    _check_out(args.out)
    ckpt = load_checkpoint(args.ckpt)
    dataset = load_processed(args.data)
    splits = split(dataset)
    samples = {"train": splits.train, "valid": splits.valid,
               "test": splits.test}[args.split]
    scorer = build_scorer(ckpt, steps=args.steps)
    ranks = rank_records(scorer, samples, RngStream(args.seed), mask_history=args.mask_history)
    reports = [report_from_ranks(ranks)]
    if args.head_tail:
        reports.extend(head_tail_report(samples, ranks, splits.train_freqs, dataset.n_items))
    if args.length_buckets:
        reports.extend(length_bucket_report(samples, ranks))
    print(report_table(reports))
    if args.out:
        Path(args.out).write_text("\n".join(report_csv_rows(reports)) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_probe(args) -> int:
    _check_out(args.out)
    ckpt = load_checkpoint(args.ckpt)
    scorer = build_scorer(ckpt, steps=args.steps)
    sequence = _parse_sequence(args.sequence)
    probe, vectors = uncertainty_probe(scorer, sequence, n_reverses=args.n,
                                       k=args.topk, base_seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write("seed," + ",".join(f"x{i}" for i in range(vectors.shape[1])) + "\n")
        for j, vec in enumerate(vectors):
            fh.write(f"{args.seed + j}," + ",".join(f"{v:.12g}" for v in vec) + "\n")
    print(f"unique items in top-{args.topk} across {args.n} reversals: "
          f"{probe.unique_item_count}")
    print(f"wrote reversed vectors to {args.out}")
    return 0


def _cmd_baseline(args) -> int:
    dataset = load_processed(args.data)
    splits = split(dataset)
    scorer = PopularityScorer(splits.train_freqs)
    samples = {"valid": splits.valid, "test": splits.test}[args.split]
    report = evaluate(scorer, samples, seed=0)
    report.label = "popularity"
    print(report_table([report]))
    return 0


def _int(text: str) -> int:
    return parse_number(text, int)


def _float(text: str) -> float:
    return parse_number(text, float)


_int.__name__, _float.__name__ = "int", "float"  # argparse names the type in its errors


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line, like every other
    fault: `seqdiff synth: argument --users: invalid int value: '1_0'`. Its
    subcommand parsers are of this class too."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seqdiff",
        description="Diffusion-based sequential recommender toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    scoring = argparse.ArgumentParser(add_help=False)  # shared by infer, eval, probe
    scoring.add_argument("--ckpt", required=True)
    scoring.add_argument("--steps", type=_int, default=None)
    scoring.add_argument("--seed", type=_int, default=0)

    p = sub.add_parser("preprocess", help="filter and index raw interactions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=_int, default=5)
    p.add_argument("--max-len", type=_int, default=50)
    p.add_argument("--kcore-iterate", action="store_true",
                   help="repeat the 5-core filter to a fixed point")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=("cyclic", "markov"), default="cyclic")
    p.add_argument("--users", type=_int, default=1000)
    p.add_argument("--items", type=_int, default=50)
    p.add_argument("--len", type=_int, default=20)
    p.add_argument("--seed", type=_int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("schedule-dump", help="write a schedule/posterior CSV")
    p.add_argument("--kind", default=TrainConfig.schedule_kind)
    p.add_argument("--t", type=_int, default=TrainConfig.t)
    p.add_argument("--a", type=_float, default=TrainConfig.schedule_a)
    p.add_argument("--b", type=_float, default=TrainConfig.schedule_b)
    p.add_argument("--tau", type=_float, default=TrainConfig.schedule_tau)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_schedule_dump)

    p = sub.add_parser("train", help="train a model on a processed dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", parents=[scoring], help="rank items for one history")
    p.add_argument("--sequence", required=True, help='comma-separated, e.g. "3,17,5"')
    p.add_argument("--topk", type=_int, default=10)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", parents=[scoring],
                       help="full-ranking evaluation of a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--head-tail", action="store_true")
    p.add_argument("--length-buckets", action="store_true")
    p.add_argument("--mask-history", action="store_true",
                   help="drop already-seen items (except the target) from candidates")
    p.add_argument("--out", default=None, help="CSV report path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("probe", parents=[scoring], help="uncertainty probe: repeated reversals")
    p.add_argument("--sequence", required=True)
    p.add_argument("--n", type=_int, default=100)
    p.add_argument("--topk", type=_int, default=20)
    p.add_argument("--out", required=True, help="CSV of reversed vectors")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("baseline", help="popularity baseline on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("valid", "test"), default="test")
    p.set_defaults(func=_cmd_baseline)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValueError as exc:  # a usage error, already named by its command
        print(exc, file=sys.stderr)
        return 2
    # Overflow inside a model ends in the one-line error of the check that
    # catches it (non-finite item scores, a diverged loss), not in numpy
    # warnings; the library's own warnings print as one line each.
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(
                f"seqdiff {args.command}: warning: {message}", file=sys.stderr)
            if getattr(args, "out", None) == "":  # Path("") is the working directory
                raise ValueError("--out is empty")
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"seqdiff {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
