"""Run one workload's stages in a fresh process and check every output.

``run.py`` starts this script after it has generated the fixtures, so
that the peak RSS it reports belongs to a process that ran the stages and
nothing else.  Each stage goes through ``rarebayes.cli.run``, so it pays
for the schema parse, model save/load and output writing that users pay
for.  Paths handed to the CLI are relative to the work directory, which
keeps the output files, and so their digests, independent of where the
checkout lives.

Usage (``run.py`` starts it with the checkout's ``src`` on PYTHONPATH and
the work directory as its current directory):
    python3 perfbench/pipeline.py --workdir DIR --rows N --seed S --seconds T \
        --trace 0|1 --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np
from rarebayes import cli

import calibration
from workloads import NOISE_PREFIXES, STAGES

POSITIVE = "bad"
# Output files whose sha256 must repeat across every repetition of one run.
DIGESTED = {"train": "out/model.json", "classify": "out/pred.csv",
            "sweep": "out/sweep.json", "baseline": "out/baseline.csv"}


def stage_argv(stage: str, seed: int) -> list[str]:
    return {
        "train": ["train", "--schema", "schema.txt", "--data", "train/data.csv",
                  "--out", "out/model.json", "--seed", str(seed)],
        "classify": ["classify", "--model", "out/model.json",
                     "--data", "heldout/data.csv", "--out", "out/pred.csv"],
        "evaluate": ["evaluate", "--pred", "out/pred.csv", "--data", "heldout/data.csv",
                     "--positive", POSITIVE, "--out", "out/eval.json"],
        "sweep": ["sweep", "--model", "out/model.json", "--data", "heldout/data.csv",
                  "--out", "out/sweep.json"],
        "baseline": ["baseline", "--kind", "quadratic", "--schema", "schema.txt",
                     "--train", "train/data.csv", "--data", "heldout/data.csv",
                     "--out", "out/baseline.csv"],
    }[stage]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- output checks -----------------------------------------------------------
# Each check returns a list of problems; an empty list means the stage passed.
# ``facts`` carries what earlier stages established to later checks.


def _read_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _cells(row: dict) -> int:
    return row["TP"] + row["FP"] + row["TN"] + row["FN"]


def check_train(work: Path, rows: int, summary: str, facts: dict) -> list[str]:
    problems = []
    if "passes=4" not in summary.split():
        problems.append(f"train summary lacks passes=4: {summary.strip()!r}")
    doc = _read_report(work / "out/model.json")
    if doc["pass_stats"]["passes"] != 4 or doc["pass_stats"]["rows"] != rows:
        problems.append(f"model pass_stats {doc['pass_stats']} != 4 passes of {rows} rows")
    noise = sorted(rf["node"] for rf in doc["ranked_fields"]
                   if rf["var"].startswith(NOISE_PREFIXES))
    if noise:
        problems.append(f"noise fields selected: {noise}")
    if not doc["ranked_fields"]:
        problems.append("no field selected")
    facts["model"] = doc
    return problems


def check_classify(work: Path, rows: int, summary: str, facts: dict) -> list[str]:
    skips = {"missing": 0, "unseen-config": 0, "pruned": 0}
    n = flagged = 0
    with open(work / "out/pred.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        width = len(header)
        for rec in reader:
            if len(rec) != width or int(rec[0]) != n:
                return [f"prediction row {n} is malformed: {rec!r}"]
            n += 1
            flagged += rec[-2] == POSITIVE
            if rec[-1]:
                for entry in rec[-1].split(";"):
                    reason = entry.rsplit(":", 1)[1]
                    skips[reason] = skips.get(reason, 0) + 1
    facts["flagged"] = flagged
    facts["skips"] = skips
    problems = []
    if n != rows:
        problems.append(f"prediction file has {n} rows, fixture has {rows}")
    if f"flagged={flagged}" not in summary.split():
        problems.append(f"classify summary disagrees with {flagged} flagged rows")
    return problems


def check_evaluate(work: Path, rows: int, summary: str, facts: dict) -> list[str]:
    report = _read_report(work / "out/eval.json")
    row = report["rows"][0]
    facts["evaluate"] = row
    problems = []
    if report["metadata"]["records"] != rows or _cells(row) != rows:
        problems.append(f"evaluate covers {_cells(row)} records, fixture has {rows}")
    if row["TP"] + row["FP"] != facts.get("flagged"):
        problems.append("evaluate's flagged count disagrees with the prediction file")
    return problems


def check_sweep(work: Path, rows: int, summary: str, facts: dict) -> list[str]:
    report = _read_report(work / "out/sweep.json")
    problems = []
    if report["metadata"]["records"] != rows or any(_cells(r) != rows for r in report["rows"]):
        problems.append(f"sweep rows do not cover the fixture's {rows} records")
    flagged = [r["TP"] + r["FP"] for r in report["rows"]]
    if flagged != sorted(flagged, reverse=True):
        problems.append("sweep flags more rows at a higher threshold")
    at_half = [r for r in report["rows"] if r["threshold"] == 0.5]
    if not at_half or {k: at_half[0][k] for k in ("TP", "FP", "TN", "FN")} != {
            k: facts.get("evaluate", {}).get(k) for k in ("TP", "FP", "TN", "FN")}:
        problems.append("sweep at 0.5 disagrees with classify + evaluate")
    return problems


def check_baseline(work: Path, rows: int, summary: str, facts: dict) -> list[str]:
    with open(work / "out/baseline.csv", newline="", encoding="utf-8") as fh:
        n = sum(1 for _ in fh) - 1
    if n != rows:
        return [f"baseline file has {n} rows, fixture has {rows}"]
    return []


CHECKS = {"train": check_train, "classify": check_classify, "evaluate": check_evaluate,
          "sweep": check_sweep, "baseline": check_baseline}


# -- running -----------------------------------------------------------------


def run_stage(stage: str, argv: list[str], tracer=None) -> tuple[int, float, float, tuple, str]:
    """Invoke one CLI stage between two speed probes.

    Returns (exit code, wall seconds, scaled seconds, probes, stderr text).
    """
    def invoke():
        with contextlib.nullcontext() if tracer is None else tracer.stage_span(stage):
            return cli.run(argv)

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, wall, scaled, probes = calibration.timed(invoke)
    return code, wall, scaled, probes, err.getvalue()


def run_pipeline(work: Path, rows: int, seed: int, tracer=None) -> dict:
    """Run every stage once; time, check and digest each.

    ``times`` holds seconds at reference speed (see calibration.py) and
    ``wall`` the raw wall seconds.
    """
    # A stage that exits 0 without writing must not pass on a stale file.
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()
    times: dict[str, float] = {}
    failures: dict[str, list[str]] = {}
    digests: dict[str, str] = {}
    facts: dict = {}
    wall: dict[str, float] = {}
    probes: dict[str, tuple] = {}
    for stage in STAGES:
        code, wall[stage], times[stage], probes[stage], err = run_stage(
            stage, stage_argv(stage, seed), tracer)
        if code != 0:
            failures[stage] = [f"exit {code}: {err.strip()[-300:]}"]
            continue
        try:
            problems = CHECKS[stage](work, rows, err, facts)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failures[stage] = problems
        if stage in DIGESTED and (work / DIGESTED[stage]).is_file():
            digests[stage] = sha256(work / DIGESTED[stage])
    return {"times": times, "wall": wall, "probes": probes, "failures": failures,
            "digests": digests, "facts": facts}


def tally(runs: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every stage of every repetition.

    A stage also fails when its output digest differs from the first
    repetition's: the same inputs must give byte-identical outputs.
    """
    attempted = failed = 0
    problems: list[str] = []
    first = runs[0]["digests"] if runs else {}
    for i, rep in enumerate(runs):
        for stage in rep["times"]:
            attempted += 1
            found = list(rep["failures"].get(stage, []))
            if stage in rep["digests"] and rep["digests"][stage] != first.get(stage):
                found.append(f"digest differs from repetition 0: {rep['digests'][stage]}")
            if found:
                failed += 1
                problems += [f"rep {i} {stage}: {p}" for p in found]
    return attempted, failed, problems


def layer_metrics(tracer, facts: dict) -> dict[str, float]:
    """Per-layer metrics from one traced pipeline, less those ``run.py`` adds."""
    st = tracer.self_times()

    def self_s(name, stages=None):
        return sum(v[0] for (n, s), v in st.items()
                   if n == name and (stages is None or s in stages))

    def incl_s(name):
        return sum(v[1] for (n, _), v in st.items() if n == name)

    def calls(name):
        return sum(v[2] for (n, _), v in st.items() if n == name)

    def counted(name, stages=None):
        return sum(v for (s, n), v in tracer.counts.items()
                   if n == name and (stages is None or s in stages))

    model = facts["model"]
    used_vars = {rf["var"] for rf in model["ranked_fields"]}
    used_vars |= {p.split("@")[0] for p in model["parents"].values() if p}
    all_vars = len(model["schema"]["field_vars"])
    encoded = useful = 0
    for stage, pass_no, rows in tracer.encode_calls:
        encoded += all_vars * rows
        # Pass 2 scores every candidate node; pass 3 counts selected pairs
        # (there are none with fewer than two selected nodes); pass 4 and
        # scoring read the selected nodes and their parents.
        if stage == "train" and pass_no == 2:
            useful += all_vars * rows
        elif not (stage == "train" and pass_no == 3 and len(model["ranked_fields"]) < 2):
            useful += len(used_vars) * rows
    parse_s = self_s("dataio.parse")
    cells = sum(np.asarray(table["probs"]).size
                for group in ("cpts", "fallbacks") for table in model[group].values())
    return {
        "dataio.parse_s": parse_s,
        "dataio.parse_s.train": self_s("dataio.parse", {"train"}),
        "dataio.parse_s.score": self_s("dataio.parse", {"classify", "sweep"}),
        "dataio.parse_s.baseline": self_s("dataio.parse", {"baseline"}),
        "dataio.rows_per_s": counted("rows") / parse_s,
        "dataio.passes": counted("passes", {"train"}),
        "dataio.rows_rejected": counted("rows_rejected"),
        "outcomes.collect_s": self_s("outcomes.collect"),
        "outcomes.entropy_bins_s": incl_s("outcomes.entropy_bins"),
        "outcomes.entropy_bins_calls": counted("entropy_bins_calls"),
        "outcomes.bins": counted("bins"),
        "structure.encode_s": self_s("structure.encode"),
        "structure.encode_s.train": self_s("structure.encode", {"train"}),
        "structure.encode_s.score": self_s("structure.encode", {"classify", "sweep"}),
        "structure.encode_useful_ratio": useful / encoded,
        "structure.count_s": self_s("structure.train"),
        "structure.model_io_s": incl_s("structure.model_io"),
        "structure.selected": len(model["ranked_fields"]),
        "structure.edges": sum(1 for p in model["parents"].values() if p),
        "structure.model_cells": cells,
        "windows.lag_s": self_s("windows.lag"),
        "windows.lag_rows": counted("lag_rows"),
        "infometrics.score_s": sum(incl_s(n) for n in
                                   ("infometrics.mi", "infometrics.cmi", "infometrics.select")),
        "infometrics.mi_calls": calls("infometrics.mi"),
        "infometrics.cmi_calls": calls("infometrics.cmi"),
        "inference.kernel_s": self_s("inference.kernel"),
        "inference.kernel_s.classify": self_s("inference.kernel", {"classify"}),
        "inference.kernel_s.sweep": self_s("inference.kernel", {"sweep"}),
        "inference.format_s": self_s("inference.format"),
        "inference.skips.missing": facts["skips"]["missing"],
        "inference.skips.unseen-config": facts["skips"]["unseen-config"],
        "inference.skips.pruned": facts["skips"]["pruned"],
        "inference.flagged": facts["flagged"],
        "evaluation.confusion_s": incl_s("evaluation.confusion"),
        "evaluation.sweep_s": incl_s("evaluation.sweep"),
        "baselines.fit_s": incl_s("baselines.fit"),
        "baselines.score_s": self_s("baselines.score"),
        "baselines.row_score_s": incl_s("baselines.row_score"),
        "baselines.row_score_calls": calls("baselines.row_score"),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--rows", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    work = args.workdir.resolve()

    if args.trace:
        from layertrace import Tracer, installed

        tracer = Tracer()
        with installed(tracer):
            reps = [run_pipeline(work, args.rows, args.seed, tracer)]
        facts = reps[0]["facts"]
        # Layers are measured even when a check failed; run.py reports the
        # failure.  Without a model or predictions there is nothing to measure.
        result = {"layers": layer_metrics(tracer, facts)
                  if "model" in facts and "skips" in facts else {},
                  "spans": tracer.dump()}
    else:
        reps, result = [], {}
        start = perf_counter()
        while not reps or perf_counter() - start < args.seconds:
            reps.append(run_pipeline(work, args.rows, args.seed))
    result["reps"] = reps
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for rep in reps:
        rep.pop("facts")
    args.out.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
