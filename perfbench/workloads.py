"""Seeded fixtures and stage lists for the benchmark workloads.

Every workload trains on one file and scores a held-out file of the same
size drawn from ``seed + 1``, the paper's train-on-one-period,
test-on-the-next protocol.  Field names carry their role: ``c*``, ``y*``
and ``d*`` are informative, while ``z*`` are class-independent noise that
structure learning must never select.

Sizes are small enough that one run repeats the whole pipeline several
times, and large enough that the plug-in mutual information of the noise
fields stays below the ``t_prime`` cut-off on every seed tried.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

from rarebayes import synthgen
from rarebayes.schema import format_schema
from rarebayes.synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    DependentSpec,
    GenConfig,
    GroupSpec,
    NoiseSpec,
)

NOISE_PREFIXES = ("z",)

# Each stage runs through ``rarebayes.cli.run`` in this order.
STAGES = ("train", "classify", "evaluate", "sweep", "baseline")


def bench_config(rows: int, seed: int) -> GenConfig:
    """The 20-variable mix: 8 categorical, 4 continuous, 2 dependent, 6 noise."""

    def flip(p):
        return {"good": (1 - p, p), "bad": (p, 1 - p)}

    cats = tuple(
        CategoricalSpec(f"c{i}", ("x", "y"), flip(0.25 + 0.03 * i),
                        missing_rate=0.02 if i % 3 == 0 else 0.0)
        for i in range(6)
    ) + (
        CategoricalSpec("c6", ("r", "s", "t"),
                        {"good": (0.5, 0.3, 0.2), "bad": (0.2, 0.3, 0.5)}),
        CategoricalSpec("c7", ("k", "l", "m", "n"),
                        {"good": (0.4, 0.3, 0.2, 0.1), "bad": (0.1, 0.2, 0.3, 0.4)}),
    )
    conts = tuple(
        ContinuousSpec(f"y{i}", {"good": 0.0, "bad": 0.5 + 0.1 * i},
                       {"good": 1.0, "bad": 1.0},
                       missing_rate=0.02 if i == 0 else 0.0)
        for i in range(4)
    )
    deps = (
        DependentSpec("d0", "c0", ("p", "q"),
                      {c: {"x": (0.8, 0.2), "y": (0.2, 0.8)} for c in ("good", "bad")}),
        DependentSpec("d1", "c6", ("p", "q"),
                      {c: {"r": (0.9, 0.1), "s": (0.5, 0.5), "t": (0.15, 0.85)}
                       for c in ("good", "bad")}),
    )
    noise = (
        NoiseSpec("z0", outcomes=("u", "v"), dist=(0.6, 0.4)),
        NoiseSpec("z1", outcomes=tuple(f"o{i}" for i in range(30)),
                  dist=tuple([1 / 30.0] * 30)),
        NoiseSpec("z2", outcomes=("a", "b", "c"), dist=(0.5, 0.3, 0.2),
                  missing_rate=0.05),
        NoiseSpec("z3", mean=0.0, sd=1.0),
        NoiseSpec("z4", mean=10.0, sd=3.0),
        NoiseSpec("z5", mean=-5.0, sd=0.5),
    )
    return GenConfig(n=rows, seed=seed, categorical=cats, continuous=conts,
                     dependent=deps, noise=noise)


def grouped_config(rows: int, seed: int) -> GenConfig:
    """``bench_config`` plus an ``acct`` group column, 8 records per group."""
    return replace(bench_config(rows, seed), group=GroupSpec("acct", 8))


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    window: int
    config: Callable[[int, int], GenConfig]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-40k", 40_000, 1, bench_config,
            "all-round mix over 20 fields, 13 selected: the cost is spread over parse, "
            "encode, pass-1 binning, the scoring kernel, formatting and the per-row QDA "
            "baseline",
        ),
        Workload(
            "grouped-w3", 30_000, 3, grouped_config,
            "window 3 over 8-record groups: 60 candidate nodes, so the per-row lag "
            "building in WindowState.lag_columns dominates; wide-40k builds no lags",
        ),
    )
}


def write_fixtures(workload: Workload, rows: int, seed: int, work: Path) -> float:
    """Write train/ (``seed``), heldout/ (``seed + 1``) and schema.txt under ``work``.

    Returns the seconds spent in ``synthgen.generate``.
    """
    generate_s = 0.0
    for sub, fixture_seed in (("train", seed), ("heldout", seed + 1)):
        t0 = perf_counter()
        synthgen.generate(workload.config(rows, fixture_seed), work / sub)
        generate_s += perf_counter() - t0
    schema = replace(workload.config(rows, seed).to_schema(), window=workload.window)
    (work / "schema.txt").write_text(format_schema(schema), encoding="utf-8")
    return generate_s
