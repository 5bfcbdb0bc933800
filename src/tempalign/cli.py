"""Command-line surface: align, synth, train, eval.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Every command is deterministic given its flags; seeds are always flags.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import align
from . import evaluate as ev
from .core import DataError, NumericalError
from .io import dump_json, fmt9, load_dataset, load_item, write_csv
from .loss import LossConfig
from .negatives import STRATEGIES
from .synth import FewshotSynthConfig, SynthConfig, gen_corpus, gen_fewshot_corpus
from .train import ProjectionModel, TrainConfig, check_input_dim, fit, load_checkpoint, save_checkpoint
from . import io as tio

DATA_ENV = "TEMPALIGN_DATA"


def _data_dir(args) -> str:
    if args.data:
        return args.data
    env = os.environ.get(DATA_ENV)
    if env:
        return env
    raise DataError(f"--data not given and {DATA_ENV} is unset")


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DataError(f"--ks must be comma-separated integers, got {text!r}") from exc


def _emit_report(report, out_csv: str | None, dump: str | None) -> None:
    print(report.text_table())
    if out_csv:
        write_csv(out_csv, report.csv_rows())
    if dump:
        with open(dump, "w", encoding="utf-8") as fh:
            for rec in report.per_query:
                fh.write(dump_json(rec))
                fh.write("\n")


def cmd_align(args) -> int:
    pair = load_item(args.pair, "pair")
    anchors, clips = ev.pair_units([pair], None, "keep")
    a, c = anchors.stacks[0], clips.stacks[0]
    result = align.align_cosines((a @ c.T)[None], args.measure, np.array([(len(a), len(c))]))
    record = {"pair": pair.id, "measure": args.measure, "score": result.scores(args.normalize)[0],
              "distance": result.distances[0]}
    if args.emit_path:
        record["path"] = result.path(0).tolist()
    print(dump_json(record))
    return 0


def cmd_synth(args) -> int:
    raw = tio.read_json(args.config)
    if not isinstance(raw, dict):
        raise DataError(f"{args.config}: config must be a JSON object, got {type(raw).__name__}")
    kind = raw.pop("kind", "video-text")
    fmt = raw.pop("format", "json")
    try:
        if kind == "video-text":
            train, test, metadata = gen_corpus(SynthConfig(**raw))
            items = [(p, "train") for p in train] + [(p, "test") for p in test]
        elif kind == "fewshot":
            videos, metadata = gen_fewshot_corpus(FewshotSynthConfig(**raw))
            base = set(metadata["base_labels"])
            items = [(v, "base" if v.label in base else "novel") for v in videos]
        else:
            raise DataError(f"{args.config}: unknown kind {kind!r}")
    except TypeError as exc:
        raise DataError(f"{args.config}: bad config field: {exc}") from exc
    manifest = tio.save_dataset(args.out, items, kind="pairs" if kind == "video-text" else "videos", fmt=fmt)
    tio.write_json(os.path.join(args.out, "truth.json"), metadata)
    print(f"wrote {len(manifest.entries)} {manifest.kind} (dim={manifest.dim}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    manifest, by_split = load_dataset(_data_dir(args))
    mode, split = ("video-text", "train") if manifest.kind == "pairs" else ("video-only", "base")
    corpus = by_split.get(split, [])
    if not corpus:
        raise DataError(f"no training items: a {manifest.kind} dataset trains on split {split!r}")
    model = ProjectionModel.identity(manifest.dim)
    loss_cfg = LossConfig(tau=args.tau, w_unit=args.w_unit, w_seq=args.w_seq, measure=args.measure)
    cfg = TrainConfig(
        lr=args.lr,
        epochs=args.epochs,
        batch_pairs=args.batch_pairs,
        neg_strategy=args.strategy,
        neg_count=args.negatives,
        loss=loss_cfg,
        seed=args.seed,
    )
    report = fit(corpus, model, cfg)
    save_checkpoint(report.final_model, args.out, seed=args.seed)
    record = {
        "mode": mode,
        "strategy": args.strategy,
        "negatives": args.negatives,
        "tau": args.tau,
        "w_unit": args.w_unit,
        "w_seq": args.w_seq,
        "lr": args.lr,
        "epochs": args.epochs,
        "batch_pairs": args.batch_pairs,
        "measure": args.measure,
        "seed": args.seed,
        "loss_curve": report.loss_curve,
        "skipped_pairs": report.skipped_pairs,
        "final_loss": report.loss_curve[-1],
    }
    report_path = args.report or (args.out + ".report.json")
    tio.write_json(report_path, record)
    print(f"checkpoint: {args.out}")
    print(f"report: {report_path}")
    print(f"final loss: {fmt9(report.loss_curve[-1])}")
    return 0


def _eval_inputs(args, kind: str) -> tuple[list, ProjectionModel | None]:
    """The items of ``--split`` (of every split for ``all``) of a ``kind``
    dataset, and the ``--model`` checkpoint (None without one), which must
    take the dataset's dim."""
    data = _data_dir(args)
    manifest, by_split = load_dataset(data)
    if manifest.kind != kind:
        raise DataError(f"eval {args.protocol} needs a {kind} dataset, got {manifest.kind}")
    if args.split == "all":
        items = [p for split in sorted(by_split) for p in by_split[split]]
    else:
        items = by_split.get(args.split, [])
    if not items:
        raise DataError(f"no items in split {args.split!r}")
    if not args.model:
        return items, None
    model = load_checkpoint(args.model)
    check_input_dim(model, {manifest.dim}, f"eval {args.protocol}: dataset {data}", f"checkpoint {args.model}")
    return items, model


def cmd_eval_retrieval_full(args) -> int:
    report = ev.retrieval_full(*_eval_inputs(args, "pairs"), measure=args.measure,
                               background=args.background, ks=_parse_ks(args.ks))
    _emit_report(report, args.out_csv, args.dump)
    return 0


def cmd_eval_retrieval_clip(args) -> int:
    report = ev.retrieval_clip(*_eval_inputs(args, "pairs"), ks=_parse_ks(args.ks))
    _emit_report(report, args.out_csv, args.dump)
    return 0


def cmd_eval_localize(args) -> int:
    _emit_report(ev.localization(*_eval_inputs(args, "pairs")), args.out_csv, None)
    return 0


def cmd_eval_fewshot(args) -> int:
    videos, model = _eval_inputs(args, "videos")
    report = ev.fewshot_eval(
        model, videos, way=args.way, shot=args.shot,
        queries_per_class=args.queries, episodes=args.episodes,
        measure=args.measure, seed=args.seed,
    )
    _emit_report(report, args.out_csv, None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tempalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align one pair file and print score, distance, path")
    p_align.add_argument("--pair", required=True)
    p_align.add_argument("--measure", choices=align.MEASURES, default="dtw")
    p_align.add_argument("--normalize", action="store_true", help="divide the score by the path length")
    p_align.add_argument("--emit-path", action="store_true")
    p_align.set_defaults(func=cmd_align)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train the projection head: video-text on split train of a pairs dataset, "
                             "video-only on split base of a videos dataset, each video as a pair of two temporal "
                             "views (even frames against all frames)")
    p_train.add_argument("--data", default=None)
    p_train.add_argument("--strategy", choices=STRATEGIES, default="seg-unit",
                         help="negative strategy, for both dataset kinds")
    p_train.add_argument("--negatives", type=int, default=32)
    p_train.add_argument("--tau", type=float, default=1.0)
    p_train.add_argument("--w-unit", type=float, default=0.3)
    p_train.add_argument("--w-seq", type=float, default=0.7)
    p_train.add_argument("--lr", type=float, default=0.001)
    p_train.add_argument("--epochs", type=int, default=10)
    p_train.add_argument("--batch-pairs", type=int, default=8)
    p_train.add_argument("--measure", choices=align.MEASURES, default="dtw")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--report", default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="run an evaluation protocol")
    esub = p_eval.add_subparsers(dest="protocol", required=True)

    def common_eval(p, split_default: str):
        p.add_argument("--data", default=None)
        p.add_argument("--model", default=None)
        p.add_argument("--split", default=split_default)
        p.add_argument("--out-csv", default=None)

    p_rf = esub.add_parser("retrieval-full", help="paragraph -> video retrieval")
    common_eval(p_rf, "test")
    p_rf.add_argument("--measure", choices=ev.RETRIEVAL_MEASURES, default="dtw")
    p_rf.add_argument("--background", choices=("keep", "remove"), default="remove")
    p_rf.add_argument("--ks", default="1,5,10")
    p_rf.add_argument("--dump", default=None, help="per-query JSONL dump")
    p_rf.set_defaults(func=cmd_eval_retrieval_full)

    p_rc = esub.add_parser("retrieval-clip", help="caption -> clip retrieval")
    common_eval(p_rc, "test")
    p_rc.add_argument("--ks", default="1,5,10")
    p_rc.add_argument("--dump", default=None)
    p_rc.set_defaults(func=cmd_eval_retrieval_clip)

    p_loc = esub.add_parser("localize", help="action step localization recall")
    common_eval(p_loc, "test")
    p_loc.set_defaults(func=cmd_eval_localize)

    p_fs = esub.add_parser("fewshot", help="episodic N-way K-shot recognition")
    common_eval(p_fs, "novel")
    p_fs.add_argument("--way", type=int, default=5)
    p_fs.add_argument("--shot", type=int, default=1)
    p_fs.add_argument("--queries", type=int, default=15)
    p_fs.add_argument("--episodes", type=int, default=1000)
    p_fs.add_argument("--measure", choices=ev.FEWSHOT_MEASURES, default="dtw")
    p_fs.add_argument("--seed", type=int, default=0)
    p_fs.set_defaults(func=cmd_eval_fewshot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError is a ValueError, so the numerical clause comes first
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # DataError is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
