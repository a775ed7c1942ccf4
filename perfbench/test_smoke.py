"""Smoke test of the benchmark on tiny fixtures.

Run from the root of the checkout:
    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pipeline  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import STAGES, WORKLOADS, write_fixtures  # noqa: E402

ROWS = 2000
SEED = 5


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--rows", str(ROWS)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # One untraced repetition, plus one traced repetition with --trace 1.
    assert result["attempted"] == len(STAGES) * (1 + trace)
    if trace:
        assert result["metrics"]["dataio.passes"]["value"] == 4


def test_corrupted_output_counts_as_a_failure(tmp_path, monkeypatch):
    write_fixtures(WORKLOADS["wide-40k"], ROWS, SEED, tmp_path)
    monkeypatch.chdir(tmp_path)
    clean = pipeline.run_pipeline(tmp_path, ROWS, SEED)

    real_run = pipeline.cli.run

    def run_then_truncate(argv):
        code = real_run(argv)
        if argv[0] == "classify":
            pred = tmp_path / "out/pred.csv"
            pred.write_text("".join(pred.read_text().splitlines(keepends=True)[:-1]))
        return code

    monkeypatch.setattr(pipeline.cli, "run", run_then_truncate)
    corrupted = pipeline.run_pipeline(tmp_path, ROWS, SEED)

    assert "classify" not in clean["failures"]
    assert "classify" in corrupted["failures"]
    _, failed_clean, _ = pipeline.tally([clean, clean])
    attempted, failed, problems = pipeline.tally([clean, corrupted])
    assert attempted == 2 * len(STAGES)
    assert failed > failed_clean
    assert any("classify" in p and "digest" in p for p in problems)


def test_benchmark_json_matches_metrics_and_workloads():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
