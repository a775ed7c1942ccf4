#!/usr/bin/env python3
"""End-to-end comparison on synthetic rare-event data.

Generates a training period and a later testing period from the same
ground-truth network, trains the Bayesian network classifier, fits
linear and quadratic discriminant baselines, and prints an F/C/V table
(false-classification rate of good records, capture rate of bad
records, and their volume ratio) for each method.

Usage:
    python scripts/run_synthetic_experiment.py --out /tmp/experiment
"""

import argparse
import csv
import sys
from itertools import compress
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rarebayes import confusion, fcv, parse_schema, train
from rarebayes.baselines import fit_from_csv, score_to_csv
from rarebayes.dataio import CsvDataset, missing_mask
from rarebayes.evaluation import sweep_rows, volume_ratio
from rarebayes.inference import count_scores
from rarebayes.synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    DependentSpec,
    GenConfig,
    NoiseSpec,
    generate,
)


def experiment_config(n: int, seed: int) -> GenConfig:
    return GenConfig(
        n=n,
        seed=seed,
        positive_rate=0.1,
        categorical=(
            CategoricalSpec("plan", ("basic", "plus"),
                            {"good": (0.75, 0.25), "bad": (0.3, 0.7)},
                            missing_rate=0.03),
            CategoricalSpec("region", ("n", "s", "e", "w"),
                            {"good": (0.4, 0.3, 0.2, 0.1),
                             "bad": (0.1, 0.2, 0.3, 0.4)}),
            CategoricalSpec("pay_history", ("clean", "late", "delinquent"),
                            {"good": (0.8, 0.15, 0.05), "bad": (0.25, 0.35, 0.4)}),
        ),
        continuous=(
            ContinuousSpec("monthly_bill", {"good": 40.0, "bad": 95.0},
                           {"good": 25.0, "bad": 45.0}, missing_rate=0.05),
            ContinuousSpec("intl_minutes", {"good": 5.0, "bad": 30.0},
                           {"good": 8.0, "bad": 25.0}),
        ),
        dependent=(
            DependentSpec("autopay", "plan", ("on", "off"),
                          {c: {"basic": (0.3, 0.7), "plus": (0.7, 0.3)}
                           for c in ("good", "bad")}),
        ),
        noise=(
            NoiseSpec("area", outcomes=tuple(f"a{i}" for i in range(12)),
                      dist=tuple([1 / 12.0] * 12)),
            NoiseSpec("tenure_noise", mean=24.0, sd=12.0),
        ),
    )


def read_actuals(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row["class"] for row in csv.DictReader(fh)]


def labels_from_pred_csv(path: Path) -> dict[int, str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {int(r["record_id"]): r["label"] for r in csv.DictReader(fh)}


def fcv_cells(predictions, actuals):
    counts = confusion(predictions, actuals, positive="bad", negative="good")
    if counts.tp + counts.fn == 0 or counts.fp + counts.tn == 0:
        raise SystemExit("test period lacks one of the classes; re-seed")
    return row_cells(fcv(counts, 0.0))


def row_cells(row):
    return (
        f"{row.f_pct_str()}% [{row.fp}]",
        f"{row.c_pct_str()}% [{row.tp}]",
        row.volume,
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("experiment_out"))
    ap.add_argument("--train-rows", type=int, default=60_000)
    ap.add_argument("--test-rows", type=int, default=80_000)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    period1 = generate(experiment_config(args.train_rows, args.seed),
                       args.out / "period1")
    period2 = generate(experiment_config(args.test_rows, args.seed + 1),
                       args.out / "period2")
    schema = parse_schema(period1.schema_path.read_text(encoding="utf-8"))

    ds = CsvDataset(period1.data_path)
    model = train(schema, ds, seed=args.seed)
    model.save(args.out / "model.json")
    print(f"trained in {ds.stats.passes} passes over {ds.stats.rows} rows")
    print("selected fields (descending MI):")
    for rf in model.ranked_fields:
        parent = model.parents[rf.node]
        arrow = f"   parent: {parent}" if parent else ""
        print(f"  {rf.node:<16} {rf.mi:.4f} bits{arrow}")

    thresholds = [0.5, 0.7]
    counts = count_scores(model, period2.data_path, thresholds, "bad")
    n_good, n_bad = counts.sum(axis=0).tolist()
    if not n_good or not n_bad:
        raise SystemExit("test period lacks one of the classes; re-seed")

    table = [("ideal", "0.00% [0]", f"100.00% [{n_bad}]", "0:1"),
             ("do nothing", "0.00% [0]", "0.00% [0]", volume_ratio(0, 0))]

    all_actuals = read_actuals(period2.data_path)
    labelled = list(compress(range(len(all_actuals)), ~missing_mask(all_actuals)))
    for kind in ("linear", "quadratic"):
        baseline = fit_from_csv(schema, period1.data_path, kind)
        pred_path = args.out / f"baseline_{kind}.csv"
        score_to_csv(baseline, schema, period2.data_path, pred_path)
        by_id = labels_from_pred_csv(pred_path)
        paired = [(by_id[i], all_actuals[i]) for i in labelled if i in by_id]
        table.append((kind, *fcv_cells([p for p, _ in paired],
                                       [a for _, a in paired])))

    for threshold, row in zip(thresholds, sweep_rows(counts, thresholds)):
        table.append((f"network (>= {int(threshold * 100)}%)", *row_cells(row)))

    print(f"\ntest period: {n_good} good / {n_bad} bad records")
    print(f"{'method':<18} {'F':>18} {'C':>18} {'V':>8}")
    for name, f_cell, c_cell, v_cell in table:
        print(f"{name:<18} {f_cell:>18} {c_cell:>18} {v_cell:>8}")


if __name__ == "__main__":
    main()
