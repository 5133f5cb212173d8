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



def test_src_lines_counts_code_apart_from_docstrings_and_comments(tmp_path):
    # 13 lines: 4 of docstrings, 2 comments, 2 blank and 5 of code, two of
    # them a string that is assigned, so not a docstring
    module = tmp_path / "src" / "pkg" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        '"""Module\ndocstring."""\n\n'
        "# a comment\n"
        "def f():\n"
        '    """One line."""\n'
        "    # another\n"
        '    x = """not a\n'
        '    docstring"""\n'
        "\n"
        "    return x\n"
        "class C:\n"
        '    "doc"\n'
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "src_lines.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "    13      5 src/pkg/m.py", "    13      5 total",
    ]
