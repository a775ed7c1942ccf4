import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"

# What the script prints for these arguments; a refactor must not change it.
TABLE = """\
test period: 4531 good / 469 bad records
method                              F                  C        V
ideal                       0.00% [0]      100.00% [469]      0:1
do nothing                  0.00% [0]          0.00% [0]      0:1
linear                      0.20% [9]       62.26% [292]    0.0:1
quadratic                18.27% [828]       86.78% [407]    2.0:1
network (>= 50%)           0.51% [23]       33.48% [157]    0.1:1
network (>= 70%)           0.24% [11]       25.59% [120]    0.1:1
"""

# The same at the script's defaults (60,000 training and 80,000 test rows,
# seed 2024): the paper-sized comparison.
DEFAULT_TABLE = """\
test period: 71856 good / 8144 bad records
method                              F                  C        V
ideal                       0.00% [0]     100.00% [8144]      0:1
do nothing                  0.00% [0]          0.00% [0]      0:1
linear                    0.24% [176]      62.12% [5059]    0.0:1
quadratic              16.12% [11580]      87.82% [7152]    1.6:1
network (>= 50%)          0.58% [417]      78.66% [6406]    0.1:1
network (>= 70%)          0.23% [167]      73.34% [5973]    0.0:1
"""


def load_script():
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def check_table(tmp_path, capsys, args, train_rows, table):
    load_script().main(["--out", str(tmp_path), *args])
    out = capsys.readouterr().out
    assert out.startswith(f"trained in 4 passes over {train_rows} rows\n")
    assert out.endswith("\n\n" + table)


def test_experiment_script_prints_pinned_table(tmp_path, capsys):
    check_table(tmp_path, capsys,
                ["--train-rows", "5000", "--test-rows", "5000", "--seed", "2024"], 5000, TABLE)


def test_experiment_script_prints_pinned_table_at_defaults(tmp_path, capsys):
    check_table(tmp_path, capsys, [], 60000, DEFAULT_TABLE)


def test_experiment_script_stops_at_the_failing_command(tmp_path, capsys):
    # one training row holds one class, so train fails before any table
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--out", str(tmp_path), "--train-rows", "1",
                            "--test-rows", "100"])
    assert exc.value.code == "rarebayes train failed (exit 1)"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error: ") for line in captured.err.splitlines())
