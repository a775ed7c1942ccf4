#!/usr/bin/env python3
"""Wall time and peak RSS of every command at scale, one process each.

Generates the twenty-variable ``big_config`` fixture of
``tests/fixture_configs.py`` at ``--rows`` rows, then runs each command
on it through ``rarebayes.cli``:

    gen                      the fixture itself
    train                    model.json
    classify                 pred.csv, of the training file
    evaluate                 eval.json, from pred.csv
    sweep                    sweep.json
    baseline --kind KIND     quadratic.csv and linear.csv, fit on the same file

Every step runs in a child process of its own, and its peak RSS is that
child's ``ru_maxrss`` as ``os.wait4`` reports it.  On Linux a child's
``ru_maxrss`` starts from this process's memory when it is started, so
this process imports neither numpy nor the package.  Everything runs on
one CPU with one BLAS thread.  The table gives each step's wall time,
peak RSS and the SHA-256 of what it wrote, so two source trees' runs can
be compared for byte identity; the ``evaluate`` and ``sweep`` reports
name their input files, so compare runs made with the same ``--out``.

Usage:
    python scripts/scale_record.py --rows 1000000 --out /tmp/scale
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
           OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
GEN = ("import sys; from fixture_configs import big_config; "
       "from rarebayes.synthgen import generate; "
       "generate(big_config(int(sys.argv[1])), sys.argv[2])")
CLI = "from rarebayes.cli import main; main()"


def run_child(name: str, code: str, args: list[str]) -> tuple[float, float]:
    """Run step ``name`` as ``python -c code args``; its wall seconds and
    peak RSS in MB."""
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code, *args], ENV)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"{name} exited {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_maxrss / 1024  # Linux reports kilobytes


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=1_000_000)
    ap.add_argument("--out", type=Path, default=Path("scale_record_out"))
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    out = args.out.resolve()
    fixture = out / "fixture"
    data, schema = str(fixture / "data.csv"), str(fixture / "schema.txt")
    steps = [
        ("gen", GEN, [str(args.rows), str(fixture)], fixture / "data.csv"),
        ("train", CLI, ["train", "--schema", schema, "--data", data,
                        "--out", str(out / "model.json")], out / "model.json"),
        ("classify", CLI, ["classify", "--model", str(out / "model.json"), "--data", data,
                           "--out", str(out / "pred.csv")], out / "pred.csv"),
        ("evaluate", CLI, ["evaluate", "--pred", str(out / "pred.csv"), "--data", data,
                           "--positive", "bad", "--out", str(out / "eval.json")],
         out / "eval.json"),
        ("sweep", CLI, ["sweep", "--model", str(out / "model.json"), "--data", data,
                        "--out", str(out / "sweep.json")], out / "sweep.json"),
    ] + [
        (f"baseline --kind {kind}", CLI,
         ["baseline", "--kind", kind, "--schema", schema, "--data", data,
          "--out", str(out / f"{kind}.csv")], out / f"{kind}.csv")
        for kind in ("quadratic", "linear")
    ]
    out.mkdir(parents=True, exist_ok=True)
    print(f"| command ({args.rows} rows) | wall | peak RSS | output SHA-256 |")
    print("|---|---|---|---|")
    for name, code, child_args, output in steps:
        wall, rss = run_child(name, code, child_args)
        print(f"| `{name}` | {wall:.2f} s | {rss:.1f} MB | `{sha256(output)[:12]}` |",
              flush=True)


if __name__ == "__main__":
    main()
