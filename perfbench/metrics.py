"""The benchmark's metrics and the design they record.

``END_TO_END`` are what a user of the batch tool sees, measured with
tracing off and reported per workload as medians over the repetitions of
one run.  Their times are wall seconds scaled to the reference speed of
calibration.py.  ``PER_LAYER`` come from a separate traced run of one
pipeline; their times are raw wall seconds, and self times unless
``measures`` says otherwise.  For each layer metric,
``moves`` names the end-to-end metric an optimisation of that layer should
move and ``on`` the workload where it should show, so that a later change
can state its prediction by name before it is measured.

``BENCHMARK.json`` repeats names, units, directions and bounds; the smoke
test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    measures: str
    bound: float | None = None
    moves: str = "-"
    on: str = "-"


# Bounds are wide because on a 2-vCPU VM shared with other tenants the
# quartile spread of a stage time over ten seeds reached 0.17 of its median
# even after speed scaling.  Set-up is sampled only three times a run and
# keeps the largest bound.
END_TO_END = [
    Metric("setup_s", "s", "lower", "fixture generation plus schema writing", 0.25),
    Metric("train_s", "s", "lower", "the train stage", 0.24),
    Metric("classify_s", "s", "lower", "the classify stage", 0.24),
    Metric("evaluate_s", "s", "lower", "the evaluate stage", 0.24),
    Metric("sweep_s", "s", "lower", "the sweep stage", 0.24),
    Metric("baseline_s", "s", "lower", "the baseline --kind quadratic stage", 0.24),
    Metric("pipeline_s", "s", "lower", "sum of the stage times, excluding set-up", 0.24),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the process that runs the stages but did not generate "
           "the fixtures", 0.1),
]

_PARSE = "train_s, classify_s, sweep_s, baseline_s, evaluate_s"
_ALL = "both workloads"

PER_LAYER = [
    Metric("dataio.parse_s", "s", "lower",
           "self time inside CsvDataset.iter_chunks and iter_rows, all stages",
           moves=_PARSE, on=_ALL),
    Metric("dataio.parse_s.train", "s", "lower", "dataio.parse_s within train",
           moves="train_s", on=_ALL),
    Metric("dataio.parse_s.score", "s", "lower", "dataio.parse_s within classify and sweep",
           moves="classify_s, sweep_s", on=_ALL),
    Metric("dataio.parse_s.baseline", "s", "lower", "dataio.parse_s within baseline",
           moves="baseline_s", on=_ALL),
    Metric("dataio.rows_per_s", "1/s", "higher", "rows yielded / dataio.parse_s"),
    Metric("dataio.passes", "count", "lower", "complete file passes in train; must be 4"),
    Metric("dataio.rows_rejected", "count", "lower", "rows rejected while reading"),
    Metric("outcomes.collect_s", "s", "lower", "self time of collect_outcomes (pass 1)",
           moves="train_s", on=_ALL),
    Metric("outcomes.entropy_bins_s", "s", "lower", "time in entropy_bins",
           moves="train_s", on=_ALL),
    Metric("outcomes.entropy_bins_calls", "count", "lower", "entropy_bins calls"),
    Metric("outcomes.bins", "count", "lower", "bins produced by entropy_bins"),
    Metric("structure.encode_s", "s", "lower", "self time of Encoder.encode_chunk",
           moves="train_s, classify_s, sweep_s", on="wide-40k"),
    Metric("structure.encode_s.train", "s", "lower", "structure.encode_s within train",
           moves="train_s", on="wide-40k"),
    Metric("structure.encode_s.score", "s", "lower",
           "structure.encode_s within classify and sweep",
           moves="classify_s, sweep_s", on="wide-40k"),
    Metric("structure.encode_useful_ratio", "ratio", "higher",
           "variable columns a count table or scoring node consumes / variable "
           "columns encoded, from the model's selected nodes and parents",
           moves="rises toward 1 when encoding is narrowed",
           on="both workloads, about 0.72 today"),
    Metric("structure.count_s", "s", "lower",
           "self time of structure.train: the mask-and-bincount loops",
           moves="train_s", on="grouped-w3"),
    Metric("structure.model_io_s", "s", "lower", "time in NetworkModel.save and load_model"),
    Metric("structure.selected", "count", "lower", "selected fields"),
    Metric("structure.edges", "count", "lower", "field-to-field edges"),
    Metric("structure.model_cells", "count", "lower", "CPT and fallback cells"),
    Metric("windows.lag_s", "s", "lower", "self time of WindowState.lag_columns",
           moves="train_s, classify_s, sweep_s", on="grouped-w3; about 0 on wide-40k"),
    Metric("windows.lag_rows", "count", "lower", "rows given lag columns (window > 1)"),
    Metric("infometrics.score_s", "s", "lower",
           "time in mutual_information, conditional_mutual_information and "
           "select_by_cumulative",
           moves="train_s", on="under 0.01 s today; shows a change that plans more pairs"),
    Metric("infometrics.mi_calls", "count", "lower", "mutual_information calls"),
    Metric("infometrics.cmi_calls", "count", "lower", "conditional_mutual_information calls"),
    Metric("inference.kernel_s", "s", "lower", "self time of iter_scored",
           moves="classify_s, sweep_s", on=_ALL),
    Metric("inference.kernel_s.classify", "s", "lower", "inference.kernel_s within classify",
           moves="classify_s", on=_ALL),
    Metric("inference.kernel_s.sweep", "s", "lower", "inference.kernel_s within sweep",
           moves="sweep_s", on=_ALL),
    Metric("inference.format_s", "s", "lower",
           "self time of classify_file: row formatting and writing",
           moves="classify_s", on="wide-40k"),
    Metric("inference.skips.missing", "count", "lower",
           "skips for a missing value, from the prediction file"),
    Metric("inference.skips.unseen-config", "count", "lower",
           "skips for an unseen parent configuration, from the prediction file"),
    Metric("inference.skips.pruned", "count", "lower",
           "skips by degeneracy pruning, from the prediction file"),
    Metric("inference.flagged", "count", "lower", "rows labelled positive at 0.5"),
    Metric("evaluation.confusion_s", "s", "lower", "time in evaluation.confusion",
           moves="evaluate_s", on="wide-40k"),
    Metric("evaluation.sweep_s", "s", "lower", "time in evaluation.sweep",
           moves="sweep_s", on=_ALL),
    Metric("baselines.fit_s", "s", "lower", "time in fit_from_csv",
           moves="baseline_s", on="wide-40k"),
    Metric("baselines.score_s", "s", "lower", "self time of score_to_csv",
           moves="baseline_s", on="wide-40k"),
    Metric("baselines.row_score_s", "s", "lower", "time in score_label, one call per row",
           moves="baseline_s", on="wide-40k"),
    Metric("baselines.row_score_calls", "count", "lower", "score_label calls"),
    Metric("synthgen.generate_s", "s", "lower", "fixture generation time (median set-up)",
           moves="setup_s", on=_ALL),
    Metric("trace.overhead_s", "s", "lower",
           "traced minus untraced pipeline_s, both at reference speed; noise on a "
           "shared machine can make it negative"),
]
