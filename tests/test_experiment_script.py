import importlib.util
from pathlib import Path

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


def test_experiment_script_prints_pinned_table(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--out", str(tmp_path), "--train-rows", "5000", "--test-rows", "5000",
                 "--seed", "2024"])
    out = capsys.readouterr().out
    assert out.startswith("trained in 4 passes over 5000 rows\n")
    assert out.endswith("\n\n" + TABLE)
