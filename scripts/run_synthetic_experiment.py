#!/usr/bin/env python3
"""End-to-end comparison on synthetic rare-event data.

Generates a training period and a later testing period from the same
ground-truth network and runs the paper's comparison through the
``rarebayes`` commands, each by ``rarebayes.cli.run``:

    gen       once per period, from a config JSON written here
    train     on period 1
    baseline  --kind linear and --kind quadratic, fit on period 1
              (--train), scoring period 2
    classify  period 2 at --threshold 0.5 and 0.7
    evaluate  --positive bad, once per prediction file

It prints an F/C/V table (false-classification rate of good records,
capture rate of bad records, and their volume ratio) for each method,
read from the ``evaluate`` reports; the header lines read the model file.
A command that fails stops the script with its name.

Usage:
    python scripts/run_synthetic_experiment.py --out /tmp/experiment
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rarebayes import cli
from rarebayes.synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    DependentSpec,
    GenConfig,
    NoiseSpec,
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


def rarebayes(command: str, *args) -> None:
    """Run one CLI command; its own ``error:`` line is already on stderr."""
    code = cli.run([command, *map(str, args)])
    if code:
        raise SystemExit(f"rarebayes {command} failed (exit {code})")


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("experiment_out"))
    ap.add_argument("--train-rows", type=int, default=60_000)
    ap.add_argument("--test-rows", type=int, default=80_000)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args(argv)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    for period, rows, seed in ((1, args.train_rows, args.seed),
                               (2, args.test_rows, args.seed + 1)):
        config = out / f"period{period}.json"
        config.write_text(json.dumps(asdict(experiment_config(rows, seed))),
                          encoding="utf-8")
        rarebayes("gen", "--config", config, "--out", out / f"period{period}")
    schema = out / "period1" / "schema.txt"
    train_data, test_data = out / "period1" / "data.csv", out / "period2" / "data.csv"

    model_path = out / "model.json"
    rarebayes("train", "--schema", schema, "--data", train_data, "--out", model_path,
              "--seed", args.seed)
    model = json.loads(model_path.read_text(encoding="utf-8"))
    stats = model["pass_stats"]
    print(f"trained in {stats['passes']} passes over {stats['rows']} rows")
    print("selected fields (descending MI):")
    for rf in model["ranked_fields"]:
        parent = model["parents"][rf["node"]]
        arrow = f"   parent: {parent}" if parent else ""
        print(f"  {rf['node']:<16} {rf['mi']:.4f} bits{arrow}")

    methods = []  # (table row, predictions file, evaluate flags)
    for kind in ("linear", "quadratic"):
        pred = out / f"baseline_{kind}.csv"
        rarebayes("baseline", "--kind", kind, "--schema", schema, "--train", train_data,
                  "--data", test_data, "--out", pred)
        methods.append((kind, pred, ()))
    for threshold in (0.5, 0.7):
        pred = out / f"network_{int(threshold * 100)}.csv"
        rarebayes("classify", "--model", model_path, "--data", test_data,
                  "--threshold", threshold, "--positive", "bad", "--out", pred)
        methods.append((f"network (>= {int(threshold * 100)}%)", pred,
                        ("--threshold", threshold)))

    table = []
    for name, pred, flags in methods:
        report = pred.with_suffix(".report.json")
        rarebayes("evaluate", "--pred", pred, "--data", test_data, "--positive", "bad",
                  *flags, "--out", report)
        r = json.loads(report.read_text(encoding="utf-8"))["rows"][0]
        table.append((name, f"{r['F_pct_str']}% [{r['FP']}]",
                      f"{r['C_pct_str']}% [{r['TP']}]", r["V"]))

    # every report pairs the same labelled test records
    n_good, n_bad = r["FP"] + r["TN"], r["TP"] + r["FN"]
    table[:0] = [("ideal", "0.00% [0]", f"100.00% [{n_bad}]", "0:1"),
                 ("do nothing", "0.00% [0]", "0.00% [0]", "0:1")]
    print(f"\ntest period: {n_good} good / {n_bad} bad records")
    print(f"{'method':<18} {'F':>18} {'C':>18} {'V':>8}")
    for name, f_cell, c_cell, v_cell in table:
        print(f"{name:<18} {f_cell:>18} {c_cell:>18} {v_cell:>8}")


if __name__ == "__main__":
    main()
