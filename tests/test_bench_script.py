import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def test_plain_copy_without_commit_is_refused_before_any_run(tmp_path):
    # tmp_path lies in no git work tree, like a `git archive` copy
    proc = subprocess.run([sys.executable, str(BENCH), "--root", str(tmp_path), "--tag", "t",
                           "--out-dir", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "is not a git work tree" in proc.stderr and "--commit" in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "BENCH_t.json").exists()
