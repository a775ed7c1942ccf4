import hashlib
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale_record.py"


def test_scale_record_times_every_command_in_its_own_process(tmp_path):
    """One table row per step, each with its wall time, its own peak RSS and
    the digest of what it wrote."""
    proc = subprocess.run([sys.executable, str(SCRIPT), "--rows", "2000", "--out",
                           str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["| command (2000 rows) | wall | peak RSS | output SHA-256 |",
                         "|---|---|---|---|"]
    rows = [line.strip("|").split(" | ") for line in lines[2:]]
    assert [row[0].strip() for row in rows] == [
        "`gen`", "`train`", "`classify`", "`evaluate`", "`sweep`",
        "`baseline --kind quadratic`", "`baseline --kind linear`"]
    assert all(float(row[1].removesuffix(" s")) > 0 for row in rows)
    assert all(float(row[2].removesuffix(" MB")) > 0 for row in rows)
    model = hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
    assert rows[1][3].strip(" `") == model[:12]
    assert "train: wrote" in proc.stderr and "passes=4" in proc.stderr
