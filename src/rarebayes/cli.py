"""Command-line surface: gen / train / classify / evaluate / sweep / baseline.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Human-readable
summaries go to stderr; machine output goes only to the files named on the
command line, each opened by :mod:`rarebayes.dataio`.  Identical inputs and
flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import baselines, evaluation, inference, structure, synthgen
from .dataio import CsvDataset, csv_output, json_text, output, read_text, write_rows
from .errors import ConfigError, RareBayesError
from .schema import parse_schema


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise RareBayesError(
            f"grid must look like start:stop:step, got {spec!r}"
        ) from None
    grid = evaluation.default_grid(start, stop, step)
    if not grid:
        raise ConfigError(f"grid {spec!r} holds no threshold: start is past stop")
    evaluation.check_grid(grid)
    return grid


def _cmd_gen(args) -> int:
    config = synthgen.load_config(args.config)
    result = synthgen.generate(config, args.out)
    _say(
        f"gen: wrote {result.data_path} rows={config.n} "
        f"positive_rate={config.positive_rate} seed={config.seed}"
    )
    return 0


def _cmd_train(args) -> int:
    schema = parse_schema(read_text(args.schema))
    dataset = CsvDataset(args.data)
    model = structure.train(schema, dataset, seed=args.seed)
    model.save(args.out)
    edges = sum(map(len, model.parents.values()))
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


def _cmd_evaluate(args) -> int:
    inference.check_threshold(args.threshold)
    counts, records = evaluation.evaluate_files(
        args.pred, args.data, args.positive, args.class_var
    )
    row = evaluation.fcv(counts, args.threshold)
    report = evaluation.rows_to_report(
        [row],
        metadata={
            "predictions": str(args.pred),
            "dataset": str(args.data),
            "positive": args.positive,
            "records": records,
        },
    )
    with output(args.out) as fh:
        fh.write(json_text(report))
    _say(
        f"evaluate: wrote {args.out} F={row.f_pct_str()}% [{row.fp}] "
        f"C={row.c_pct_str()}% [{row.tp}] V={row.volume}"
    )
    return 0


def _cmd_sweep(args) -> int:
    # realpath, not Path.resolve, which raises on a symlink loop
    if args.csv and os.path.realpath(args.csv) == os.path.realpath(args.out):
        raise ConfigError(f"--csv {args.csv} and --out {args.out} name the same file")
    grid = _parse_grid(args.grid)
    model = structure.load_model(args.model)
    positive, _ = inference.positive_index(model, args.positive)
    table = inference.count_scores(model, args.data, grid, positive)
    rows = evaluation.sweep_rows(table, grid)
    records = int(table.sum())
    report = evaluation.rows_to_report(
        rows,
        metadata={
            "model": str(args.model),
            "dataset": str(args.data),
            "positive": positive,
            "grid": grid,
            "records": records,
        },
    )
    with output(args.out) as fh:
        fh.write(json_text(report))
        if args.csv:  # both are written in full before either replaces its path
            header, *lines = evaluation.rows_to_csv_lines(rows)
            with csv_output(args.csv, header) as csv_fh:
                write_rows(csv_fh, list(zip(*lines)))
    _say(
        f"sweep: wrote {args.out} thresholds={len(rows)} records={records} "
        f"positive={positive}"
    )
    return 0


def _cmd_baseline(args) -> int:
    schema = parse_schema(read_text(args.schema))
    train_path = args.train or args.data
    model = baselines.fit_from_csv(
        schema, train_path, args.kind, positive=args.positive, ridge=args.ridge
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
                   help="threshold recorded in the report row, in [0, 1]")
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


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
