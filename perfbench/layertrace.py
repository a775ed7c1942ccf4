"""Outside-in layer trace for the benchmark.

The trace wraps public entry points of the program by replacing module and
class attributes, so nothing under ``src/`` changes.  Spans are kept in
memory with parent links and written out when the run ends.  A layer's
self time is its span's duration minus the time its child spans cover;
the program is single-threaded, so children never overlap.

Calls made once per row (``score_label``, ``iter_rows``) would swamp the
span list, so they are aggregated per (name, parent span) instead.  They
never call another wrapped function, so they have no children and their
self time is their whole time.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

from rarebayes import baselines, dataio, evaluation, inference, outcomes, structure, windows


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, parent index, start, end, stage]
        self.stack: list[int] = []
        self.leaves: dict[tuple[str, int], list] = {}   # (name, parent) -> [seconds, calls]
        self.stage = ""
        self.counts: dict[tuple[str, str], float] = {}  # (stage, counter) -> value
        self.encode_calls: list[tuple[str, int, int]] = []  # (stage, pass number, rows)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, perf_counter(), None, self.stage])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self.stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        key = (self.stage, name)
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def stage_span(self, stage: str):
        """Root span of one CLI stage; spans opened inside carry its name."""
        self.stage = stage
        idx = self._open(f"stage.{stage}")
        try:
            yield
        finally:
            self._close(idx)

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is one span; ``after(result, args)`` counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def timed_leaf(self, name: str, fn):
        """Wrap a per-row call: time it, aggregated under its parent span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add_leaf(name, perf_counter() - t0)

        return wrapper

    def _add_leaf(self, name: str, seconds: float) -> None:
        acc = self.leaves.setdefault((name, self.stack[-1] if self.stack else -1), [0.0, 0])
        acc[0] += seconds
        acc[1] += 1

    def timed_gen(self, name: str, fn, on_item=None, on_done=None, leaf=False):
        """Wrap a generator function so that every ``next()`` is timed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = None if leaf else self._open(name)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    break
                finally:
                    if leaf:
                        self._add_leaf(name, perf_counter() - t0)
                    else:
                        self._close(idx)
                if on_item is not None:
                    on_item(item)
                yield item
            if on_done is not None:
                on_done(args)

        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], list]:
        """(name, stage) -> [self seconds, inclusive seconds, calls]."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], list] = {}
        for (name, parent), (seconds, calls) in self.leaves.items():
            if parent >= 0:
                child[parent] += seconds
            stage = self.spans[parent][4] if parent >= 0 else ""
            acc = out.setdefault((name, stage), [0.0, 0.0, 0])
            acc[0] += seconds
            acc[1] += seconds
            acc[2] += calls
        for i, (name, _, start, end, stage) in enumerate(self.spans):
            acc = out.setdefault((name, stage), [0.0, 0.0, 0])
            acc[0] += end - start - child[i]
            acc[1] += end - start
            acc[2] += 1
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e, "stage": st}
                for n, p, s, e, st in self.spans
            ],
            "leaves": [
                {"name": n, "parent": p, "seconds": s, "calls": c}
                for (n, p), (s, c) in self.leaves.items()
            ],
            "counts": [
                {"stage": st, "name": n, "value": v} for (st, n), v in self.counts.items()
            ],
        }


# (owner, attribute, span name, kind); kind is "call", "leaf" or "gen".
_SIMPLE = [
    (structure, "train", "structure.train", "call"),
    (structure, "collect_outcomes", "outcomes.collect", "call"),
    (structure, "load_model", "structure.model_io", "call"),
    (structure.NetworkModel, "save", "structure.model_io", "call"),
    (structure, "mutual_information", "infometrics.mi", "leaf"),
    (structure, "conditional_mutual_information", "infometrics.cmi", "leaf"),
    (structure, "select_by_cumulative", "infometrics.select", "leaf"),
    (inference, "iter_scored", "inference.kernel", "gen"),
    (inference, "classify_file", "inference.format", "call"),
    (evaluation, "confusion", "evaluation.confusion", "call"),
    (evaluation, "sweep", "evaluation.sweep", "call"),
    (baselines, "fit_from_csv", "baselines.fit", "call"),
    (baselines, "score_to_csv", "baselines.score", "call"),
    (baselines, "score_label", "baselines.row_score", "leaf"),
]


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced entry point for the duration of the block."""
    passes: dict[str, int] = {}

    def count_rows(chunk):
        tracer.count("rows", chunk.size)

    def count_row(_row):
        tracer.count("rows", 1)

    def pass_done(args):
        tracer.count("passes", 1)
        tracer.count("rows_rejected", args[0].stats.rejected)

    def start_pass(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            passes[tracer.stage] = passes.get(tracer.stage, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def count_bins(edges, _args):
        tracer.count("entropy_bins_calls", 1)
        tracer.count("bins", len(edges) + 1)

    def count_encode(result, args):
        rows = len(next(iter(result[0].values()), ()))
        tracer.encode_calls.append((tracer.stage, passes.get(tracer.stage, 0), rows))

    def count_lags(_result, args):
        if args[0].schema.window > 1:
            tracer.count("lag_rows", len(next(iter(args[1].values()))))

    wrap = {"call": tracer.timed, "leaf": tracer.timed_leaf, "gen": tracer.timed_gen}
    targets = [(owner, attr, wrap[kind](span, getattr(owner, attr)))
               for owner, attr, span, kind in _SIMPLE]
    targets += [
        (dataio.CsvDataset, "iter_chunks", start_pass(tracer.timed_gen(
            "dataio.parse", dataio.CsvDataset.iter_chunks, count_rows, pass_done))),
        (dataio.CsvDataset, "iter_rows", start_pass(tracer.timed_gen(
            "dataio.parse", dataio.CsvDataset.iter_rows, count_row, pass_done, leaf=True))),
        (outcomes, "entropy_bins", tracer.timed(
            "outcomes.entropy_bins", outcomes.entropy_bins, count_bins)),
        (structure.Encoder, "encode_chunk", tracer.timed(
            "structure.encode", structure.Encoder.encode_chunk, count_encode)),
        (windows.WindowState, "lag_columns", tracer.timed(
            "windows.lag", windows.WindowState.lag_columns, count_lags)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
