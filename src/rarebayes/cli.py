"""Command-line surface: gen / train / classify / evaluate / sweep / baseline.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Human-readable
summaries go to stderr; machine output goes to files (or stdout when no
output path applies).  Identical inputs and flags produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import compress, repeat
from pathlib import Path

from . import baselines, evaluation, inference, structure, synthgen
from .dataio import MISSING, CsvDataset, missing_mask
from .errors import RareBayesError
from .schema import parse_schema


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _load_schema(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RareBayesError(f"cannot read schema file {path}: {exc}") from exc
    return parse_schema(text)


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise RareBayesError(
            f"grid must look like start:stop:step, got {spec!r}"
        ) from None
    return evaluation.default_grid(start, stop, step)


def _cmd_gen(args) -> int:
    config = synthgen.load_config(args.config)
    result = synthgen.generate(config, args.out)
    _say(
        f"gen: wrote {result.data_path} rows={config.n} "
        f"positive_rate={config.positive_rate} seed={config.seed}"
    )
    return 0


def _cmd_train(args) -> int:
    schema = _load_schema(args.schema)
    dataset = CsvDataset(args.data)
    model = structure.train(schema, dataset, seed=args.seed)
    model.save(args.out)
    edges = sum(1 for p in model.parents.values() if p)
    _say(
        f"train: wrote {args.out} passes={model.pass_stats.passes} "
        f"rows={model.pass_stats.rows} rejected={model.pass_stats.rejected} "
        f"selected={len(model.ranked_fields)} edges={edges}"
    )
    return 0


def _cmd_classify(args) -> int:
    model = structure.load_model(args.model)
    summary = inference.classify_file(
        model, args.data, args.out, args.threshold, args.positive
    )
    _say(
        f"classify: wrote {args.out} rows={summary['rows']} "
        f"flagged={summary['flagged']} positive={summary['positive']} "
        f"threshold={summary['threshold']}"
    )
    return 0


def _read_predictions(path: str) -> tuple[list[int], list[str]]:
    dataset = CsvDataset(path)
    ids: list[int] = []
    labels: list[str] = []
    for chunk in dataset.iter_chunks(["record_id", "label"]):
        for text in chunk.columns["record_id"]:
            try:
                rid = int(text)
            except ValueError:
                rid = -1
            if rid < 0:
                raise RareBayesError(
                    f"{path} row {len(ids) + 1}: record_id {text!r} "
                    "is not a non-negative integer"
                )
            ids.append(rid)
        labels += chunk.columns["label"]
    if dataset.stats.rejected:
        raise RareBayesError(
            f"{path}: {dataset.stats.rejected} row(s) rejected, "
            "their field count differs from the header"
        )
    return ids, labels


def _read_actuals(path: str, class_var: str) -> list[str]:
    chunks = CsvDataset(path).iter_chunks([class_var])
    return [label for chunk in chunks for label in chunk.columns[class_var]]


def _cmd_evaluate(args) -> int:
    ids, predictions = _read_predictions(args.pred)
    # an id past the data pairs with the MISSING cell appended last
    actuals = _read_actuals(args.data, args.class_var) + [MISSING]
    paired = list(map(actuals.__getitem__, map(min, ids, repeat(len(actuals) - 1))))
    keep = ~missing_mask(paired)
    if not keep.any():
        raise RareBayesError("no prediction/actual pairs to evaluate")
    preds = list(compress(predictions, keep))
    acts = list(compress(paired, keep))
    counts = evaluation.confusion(preds, acts, args.positive)
    row = evaluation.fcv(counts, args.threshold)
    report = evaluation.rows_to_report(
        [row],
        metadata={
            "predictions": str(args.pred),
            "dataset": str(args.data),
            "positive": args.positive,
            "records": len(acts),
        },
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    _say(
        f"evaluate: wrote {args.out} F={row.f_pct_str()}% [{row.fp}] "
        f"C={row.c_pct_str()}% [{row.tp}] V={row.volume}"
    )
    return 0


def _cmd_sweep(args) -> int:
    model = structure.load_model(args.model)
    grid = _parse_grid(args.grid)
    scores, actuals = inference.collect_scores(model, args.data, args.positive)
    positive = args.positive or model.rare_class()
    rows = evaluation.sweep(scores, actuals, positive, grid)
    report = evaluation.rows_to_report(
        rows,
        metadata={
            "model": str(args.model),
            "dataset": str(args.data),
            "positive": positive,
            "grid": grid,
            "records": len(actuals),
        },
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(evaluation.rows_to_csv_lines(rows))
    _say(
        f"sweep: wrote {args.out} thresholds={len(rows)} records={len(actuals)} "
        f"positive={positive}"
    )
    return 0


def _cmd_baseline(args) -> int:
    schema = _load_schema(args.schema)
    train_path = args.train or args.data
    model = baselines.fit_from_csv(
        schema,
        train_path,
        args.kind,
        positive=args.positive,
        ridge=args.ridge,
        one_hot=args.one_hot,
    )
    summary = baselines.score_to_csv(model, schema, args.data, args.out)
    _say(
        f"baseline: wrote {args.out} kind={args.kind} rows={summary['rows']} "
        f"flagged={summary['flagged']} unscored={summary['unscored']} "
        f"dropped_in_fit={model.dropped_rows} positive={model.label2}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rarebayes",
        description="Train, apply, and evaluate a rare-event Bayesian network classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset from a JSON config")
    p.add_argument("--config", required=True, help="generator config (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train a model in four dataset passes")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model file (JSON)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="score a CSV with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.add_argument("--positive", default=None,
                   help="positive class (default: rarest class by prior)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("evaluate", help="F/C/V row from predictions plus actuals")
    p.add_argument("--pred", required=True, help="classification CSV")
    p.add_argument("--data", required=True, help="dataset with actual labels")
    p.add_argument("--positive", required=True)
    p.add_argument("--out", required=True, help="report file (JSON)")
    p.add_argument("--class-var", default="class",
                   help="name of the class column in --data (default: class)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="threshold recorded in the report row")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="F/C/V rows over a threshold grid")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--grid", default="0.10:0.90:0.05", help="start:stop:step")
    p.add_argument("--out", required=True, help="report file (JSON)")
    p.add_argument("--csv", default=None, help="also write rows as CSV")
    p.add_argument("--positive", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("baseline", help="discriminant-analysis baseline")
    p.add_argument("--kind", required=True, choices=["linear", "quadratic"])
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True, help="data to score (and fit, without --train)")
    p.add_argument("--train", default=None, help="fit on this file instead of --data")
    p.add_argument("--out", required=True)
    p.add_argument("--positive", default=None)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--one-hot", action="store_true",
                   help="expand categorical variables into indicators")
    p.set_defaults(func=_cmd_baseline)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RareBayesError as exc:
        _say(f"error: {exc}")
        return 1
    except OSError as exc:
        _say(f"error: {exc}")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
