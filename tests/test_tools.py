from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_compare_outputs_quick_finds_one_tree_identical_to_itself():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "compare_outputs.py"),
         str(REPO), str(REPO), "--quick"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(" files: 0 differences\n"), proc.stdout
