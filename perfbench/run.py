#!/usr/bin/env python3
"""rarebayes benchmark: seeded batch workloads timed stage by stage.

One run generates the workload's fixtures from ``--seed`` (training file)
and ``--seed + 1`` (held-out file), then runs train, classify, evaluate,
sweep and the QDA baseline through ``rarebayes.cli.run`` in a separate
process: one client, a closed loop, one thread, pinned to one CPU.  It
repeats the pipeline until ``--seconds`` have passed and reports medians,
in seconds at the reference speed of calibration.py.  With ``--trace 1``
it also runs one traced pipeline and reports per-layer metrics instead.

Every stage's output is checked; a non-zero exit or a failed check counts
as a failed stage.  The last stdout line is the JSON result; the full
record (provenance, digests, every repetition, spans) goes to
``.bench_results/`` in the checkout.

Usage:
    python3 perfbench/run.py --workload wide-40k --seed 1 --seconds 20 --trace 0
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_REPS = 3
# Set before numpy loads and inherited by the stage process, so that the
# baseline's linear algebra cannot start threads of its own.
BLAS_THREADS = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Whole-run budget: every run must end within 180 s.
DEADLINE_S = 170.0


def file_facts(path: Path) -> dict:
    data = path.read_bytes()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    src = hashlib.sha256()
    for path in sorted((SRC / "rarebayes").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "heldout_seed": seed + 1,
        "git_revision": rev or None,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def run_stages(work: Path, rows: int, seed: int, seconds: float, trace: int,
               deadline: float) -> dict | None:
    """Run pipeline.py in its own process; None if it crashed or timed out."""
    out = work / f"stages-{trace}.json"
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workdir", str(work),
           "--rows", str(rows), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        print("error: stage process timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"error: stage process exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def e2e_metrics(setups: list[dict], reps: list[dict], peak_rss_mb: float) -> dict[str, float]:
    """Medians over the repetitions, in seconds at reference speed."""
    metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
    for stage in reps[0]["times"]:
        metrics[f"{stage}_s"] = statistics.median(r["times"][stage] for r in reps)
    metrics["pipeline_s"] = statistics.median(sum(r["times"].values()) for r in reps)
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the untraced repetitions run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=None,
                    help="override the workload's row count (smoke tests)")
    args = ap.parse_args()
    deadline = perf_counter() + DEADLINE_S
    # One CPU for this process and the stage process it starts, so that the
    # speed probes run on the CPU whose speed they stand for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "rarebayes" / "__init__.py").is_file():
        print(f"error: no rarebayes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_THREADS)
    import calibration
    from metrics import END_TO_END, PER_LAYER
    from pipeline import tally
    from workloads import WORKLOADS, write_fixtures

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rows = args.rows or workload.rows
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups, fixtures = [], []
        for _ in range(SETUP_REPS):
            generate_s, wall, scaled, probes = calibration.timed(
                write_fixtures, workload, rows, args.seed, work)
            setups.append({"setup_s": scaled, "wall_s": wall, "probes": probes,
                           "generate_s": generate_s})
            fixtures.append({sub: file_facts(work / sub / "data.csv")
                             for sub in ("train", "heldout")})
        problems = [] if all(f == fixtures[0] for f in fixtures) else [
            "fixture generation is not deterministic"]
        untraced = run_stages(work, rows, args.seed, args.seconds, 0, deadline)
        traced = (run_stages(work, rows, args.seed, args.seconds, 1, deadline)
                  if args.trace and untraced else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": workload.name, "rows": rows, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(args.seed),
              "fixtures": fixtures[0], "setup": setups}
    if untraced is None or (args.trace and traced is None):
        attempted, failed = 1, 1
        problems.append("stage process failed")
        metrics = {}
    else:
        runs = untraced["reps"] + (traced["reps"] if traced else [])
        attempted, failed, stage_problems = tally(runs)
        problems += stage_problems
        metrics = e2e_metrics(setups, untraced["reps"], untraced["peak_rss_mb"])
        record["digests"] = runs[0]["digests"]
        record["reps"] = runs
        record["end_to_end"] = metrics
        if traced:
            layers = dict(traced["layers"])
            if layers:
                layers["synthgen.generate_s"] = statistics.median(
                    s["generate_s"] for s in setups)
                layers["trace.overhead_s"] = (sum(traced["reps"][0]["times"].values())
                                              - metrics["pipeline_s"])
            record["per_layer"] = metrics = layers
            record["spans"] = traced["spans"]
    missing = [m.name for m in (PER_LAYER if args.trace else END_TO_END)
               if m.name not in metrics]
    if missing:
        problems.append(f"metrics missing: {missing}")
    record["problems"] = problems
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "fixtures": record["fixtures"],
                      "digests": record.get("digests")}))
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
