"""Command-line pipeline: synth -> train -> score -> eval / correlate.

Exit codes: 0 success, 1 runtime or data error, 2 usage error (unknown
flags, flag values outside their domain, ``eval`` on scores without a
label column).
Every command starts by echoing its fully resolved configuration,
defaults included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .data import (
    FormatError,
    iter_rows,
    keyed_table,
    load_dataset,
    load_manifest,
    stored_rows,
    write_csv_atomic,
)
from .losses import LossConfig, LossVariant
from .metrics import correlate_table, evaluate, load_covariates
from .model import load_checkpoint, save_checkpoint
from .parallel import WorkerFailed, map_chunks, worker_count
from .synth import SynthConfig, write_synth
from .training import (
    OPTIMIZERS,
    TRAINABLE_LOSSES,
    TrainConfig,
    TrainingDiverged,
    score_dataset,
    train,
    write_train_log,
)

# ValueError covers FormatError and the metrics' Undefined*Error classes.
_DATA_ERRORS = (
    TrainingDiverged,
    WorkerFailed,
    ValueError,
    FloatingPointError,
    OSError,
)


def _ranged(kind: type, in_range, rule: str):
    """An argparse type that parses ``kind`` (int or float) and requires
    ``in_range(value)``; ``rule`` says what the range is."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not in_range(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value

    return parse


_fraction_01 = _ranged(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_nonneg_float = _ranged(float, lambda v: v >= 0.0, ">= 0")
_pos_float = _ranged(float, lambda v: v > 0.0, "> 0")
_pos_int = _ranged(int, lambda v: v >= 1, ">= 1")
_nonneg_int = _ranged(int, lambda v: v >= 0, ">= 0")


def _echo_config(command: str, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config {command} {json.dumps(resolved, sort_keys=True, default=str)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmil",
        description="Ranking-based multiple instance learning over bags of feature vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic train/val dataset pair")
    p.add_argument("--out", required=True, help="output directory (train/ and val/ inside)")
    p.add_argument("--dim", type=_pos_int, default=SynthConfig.dim)
    p.add_argument("--pos", type=_nonneg_int, default=SynthConfig.n_pos,
                   help="training positive bags")
    p.add_argument("--neg", type=_nonneg_int, default=SynthConfig.n_neg,
                   help="training negative bags")
    p.add_argument("--val-pos", type=_nonneg_int, default=8, help="validation positive bags")
    p.add_argument("--val-neg", type=_nonneg_int, default=20, help="validation negative bags")
    p.add_argument("--witness-rate", type=_fraction_01, default=SynthConfig.witness_rate)
    p.add_argument("--shift", type=_nonneg_float, default=SynthConfig.shift)
    p.add_argument("--patches-min", type=_pos_int, default=SynthConfig.patches_min)
    p.add_argument("--patches-max", type=_pos_int, default=SynthConfig.patches_max)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a scorer and write a checkpoint")
    p.add_argument("--train", required=True, dest="train_manifest", metavar="MANIFEST")
    p.add_argument("--val", required=True, dest="val_manifest", metavar="MANIFEST")
    p.add_argument("--out", required=True, help="checkpoint path; log goes to <out>.log")
    losses = [v.value for v in TRAINABLE_LOSSES]
    p.add_argument("--loss", choices=losses, default=LossVariant.TRIPLET_RANKING.value)
    p.add_argument("--alpha1", type=_nonneg_float, default=LossConfig.alpha1)
    p.add_argument("--alpha2", type=_nonneg_float, default=LossConfig.alpha2)
    p.add_argument("--hidden", type=_pos_int, default=TrainConfig.hidden)
    p.add_argument("--topk", type=_fraction_01, default=TrainConfig.topk_fraction)
    p.add_argument("--lr", type=_pos_float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=_pos_int, default=TrainConfig.epochs)
    p.add_argument("--patience", type=_pos_int, default=TrainConfig.patience)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default=TrainConfig.optimizer)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score a manifest with a checkpoint")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, metavar="MANIFEST")
    p.add_argument("--out", required=True, help="score CSV path")
    p.add_argument("--topk", type=_fraction_01, default=TrainConfig.topk_fraction)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="AUC and average precision of a score CSV")
    p.add_argument("--scores", required=True, help="CSV written by the score command")
    p.add_argument("--curves", help="directory for roc.csv and pr.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("correlate", help="correlate scores against covariate columns")
    p.add_argument("--scores", required=True, help="CSV written by the score command")
    p.add_argument("--covariates", required=True, help="CSV: bag_id,<name>...")
    p.add_argument("--out", required=True, help="result CSV path")
    p.set_defaults(func=_cmd_correlate)

    return parser


def _ensure_parent(path: str) -> None:
    parent = Path(path).parent
    if parent != Path("."):
        parent.mkdir(parents=True, exist_ok=True)


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.patches_min > args.patches_max:
        print(
            f"error: --patches-min {args.patches_min} exceeds --patches-max {args.patches_max}",
            file=sys.stderr,
        )
        return 2
    out = Path(args.out)
    common = dict(
        dim=args.dim,
        patches_min=args.patches_min,
        patches_max=args.patches_max,
        witness_rate=args.witness_rate,
        shift=args.shift,
        seed=args.seed,
    )
    write_synth(SynthConfig(n_pos=args.pos, n_neg=args.neg, stream_id=0, **common), out / "train")
    print(f"train: {args.pos} pos + {args.neg} neg bags, dim {args.dim} -> {out / 'train'}")
    if args.val_pos > 0 or args.val_neg > 0:
        write_synth(
            SynthConfig(n_pos=args.val_pos, n_neg=args.val_neg, stream_id=1, **common), out / "val"
        )
        print(
            f"val: {args.val_pos} pos + {args.val_neg} neg bags, dim {args.dim} -> {out / 'val'}"
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    ds_train = load_dataset(args.train_manifest)
    ds_val = load_dataset(args.val_manifest)
    cfg = TrainConfig(
        loss=LossConfig(LossVariant(args.loss), args.alpha1, args.alpha2),
        hidden=args.hidden,
        topk_fraction=args.topk,
        learning_rate=args.lr,
        epochs=args.epochs,
        patience=args.patience,
        seed=args.seed,
        optimizer=args.optimizer,
    )
    report = train(ds_train, ds_val, cfg)
    _ensure_parent(args.out)
    save_checkpoint(report.params, args.out)
    write_train_log(report, str(args.out) + ".log")
    print(f"checkpoint -> {args.out}")
    print(f"log -> {args.out}.log")
    print(f"best val AUC {report.best_val_auc:.4f} at epoch {report.best_epoch}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    params = load_checkpoint(args.model)
    manifest = Path(args.data)
    rows = load_manifest(manifest)

    def score_chunk(chunk: Sequence[tuple[str, int, str]]) -> list[float]:
        return [bs.score for bs in score_dataset(params, iter_rows(manifest, chunk), args.topk)]

    workers = worker_count(stored_rows(manifest.parent / rel, params.dim) for _, _, rel in rows)
    scores = [s for part in map_chunks(rows, score_chunk, workers) for s in part]
    out_rows = [(bag_id, repr(s), y) for (bag_id, y, _), s in zip(rows, scores)]
    _ensure_parent(args.out)
    write_csv_atomic(args.out, [("bag_id", "score", "label"), *out_rows])
    print(f"scored {len(scores)} bags -> {args.out}")
    return 0


def _read_score_csv(path: str) -> tuple[list[str], list[float], list[int] | None]:
    """Bag ids, scores and labels of a score CSV, a keyed table (see
    :mod:`rankmil.data`); labels are None when the header has no label
    column."""
    ids: list[str] = []
    scores: list[float] = []
    labels: list[int] = []
    with keyed_table(path, "score CSV") as (header, records):
        if header[:2] != ["bag_id", "score"]:
            raise FormatError(f"{path}: header must start 'bag_id,score', got {','.join(header)!r}")
        label_col = header.index("label") if "label" in header else None
        for lineno, row in records:
            ids.append(row[0])
            try:
                score = float(row[1])
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: score is not numeric: {row[1]!r}"
                ) from None
            if not math.isfinite(score):
                raise FormatError(f"{path}: line {lineno}: score is non-finite: {row[1]!r}")
            scores.append(score)
            if label_col is not None:
                if row[label_col] not in ("0", "1"):
                    raise FormatError(
                        f"{path}: line {lineno}: label must be 0 or 1, got {row[label_col]!r}"
                    )
                labels.append(int(row[label_col]))
    return ids, scores, None if label_col is None else labels


def _cmd_eval(args: argparse.Namespace) -> int:
    ids, scores, labels = _read_score_csv(args.scores)
    if labels is None:
        print(f"error: {args.scores} has no label column, cannot evaluate", file=sys.stderr)
        return 2
    if not ids:
        raise FormatError(f"{args.scores}: score CSV has no rows")
    report = evaluate(scores, labels)
    if args.curves:
        curves = Path(args.curves)
        curves.mkdir(parents=True, exist_ok=True)
        write_csv_atomic(
            curves / "roc.csv",
            [("fpr", "tpr"), *((f"{f:.6f}", f"{t:.6f}") for f, t in report.roc)],
        )
        write_csv_atomic(
            curves / "pr.csv",
            [("recall", "precision"), *((f"{r:.6f}", f"{p:.6f}") for r, p in report.pr)],
        )
        print(f"curves -> {curves / 'roc.csv'}, {curves / 'pr.csv'}")
    print(f"AUC {report.auc:.4f} AP {report.average_precision:.4f}")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    ids, scores, _ = _read_score_csv(args.scores)
    if not ids:
        raise FormatError(f"{args.scores}: score CSV has no rows")
    covariates = load_covariates(args.covariates)
    result = correlate_table(dict(zip(ids, scores)), covariates)
    if result.n_unmatched:
        print(f"warning: dropped {result.n_unmatched} covariate rows with no score", file=sys.stderr)
    for name, reason in result.skipped:
        print(f"warning: skipped column {name!r}: {reason}", file=sys.stderr)
    rows = [(name, f"{c.rho:.6f}", f"{c.p_value:.6g}", c.n) for name, c in result.entries]
    _ensure_parent(args.out)
    write_csv_atomic(args.out, [("name", "rho", "p_value", "n"), *rows])
    print(f"correlations for {len(result.entries)} columns -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _echo_config(args.command, args)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
