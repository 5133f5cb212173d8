"""Run one fixed list of twistsurvey commands on two source trees and
compare everything they print and write.

    python tools/compare_outputs.py PARENT_DIR CHANGE_DIR [--quick]

Each tree is a checkout with the package under src/.  Its commands run
as `python -m twistsurvey.cli ARGS`, with that src/ alone on PYTHONPATH,
one after another in one fresh temporary directory per tree, so a later
command reads what an earlier one wrote (fit reads a survey's class CSV);
each directory starts with the files of INPUTS: the overrides file, which
the abort and verify-failure commands read, and a class CSV that fit
refuses.
For each command the exit codes, stdout and stderr are compared, stderr
with its elapsed times ("1.2s") masked; then every file written, byte
for byte, and the set of directories left, empty ones too.  Each
difference is printed.  Exit status: 0 when both trees
agree on everything, 1 when anything differs, 2 when a tree's src/ does
not provide the package.  --quick runs the short list only (seconds per
tree); the full list adds the 10^6-10^7 runs and both verify depths.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_C3 = ["--classes", "23,3", "--step", "20000", "--bound", "300000"]
OVERRIDES = "anchors.ov"
HUGE_CSV = "huge_bound.csv"
INPUTS = {
    # forged anchors: 17a1 class 7's k is then no square (exit 4), and
    # 34a1 class 53's is four times the frozen one (exit 3 in verify)
    OVERRIDES: "17a1.7.k0 = 2\n34a1.53.k0 = 36\n",
    # two rows under a surveyed bound that no survey writes
    HUGE_CSV: "# schema_version 1\n# curve 11a1\n# n0 3\n"
              f"# bound {10**20}\nn,a_n,k,selmer,L\n"
              "3,1,1,1,1\n47,1,1,1,1\n",
}
QUICK = [
    *(["expand", "--curve", "11a1", "--bound", str(b), "--out", f"an_{b}.csv"]
      for b in (1, 2, 43, 44, 45, 100, 3000)),
    ["survey", "--curve", "11a1", *_C3, "--out", "c3"],
    ["tables", "--curve", "11a1", *_C3],
    ["fit", "--survey-csv", "c3/11a1_class3.csv", "--k", "4",
     "--out", "fit_c3.json"],
    # the fit's JSON on stdout
    ["fit", "--survey-csv", "c3/11a1_class3.csv", "--k", "4"],
    *(["plot-data", "--curve", "11a1", "--n0", "3", "--k", "4", "--bound",
       "300000", "--step", "20000", *flags, "--out", out]
      for flags, out in (([], "pd.dat"), (["--alpha", "0.3"], "pd_a.dat"))),
    # a 2-torsion curve: its Tamagawa rows come from Euler's criterion
    ["survey", "--curve", "34a1", "--classes", "53", "--step", "20000",
     "--bound", "300000", "--out", "c34"],
    # 10^5 off the checkpoint grid; then a bound below every table bound
    ["survey", "--curve", "17a1", "--classes", "3,7", "--step", "30000",
     "--bound", "300000", "--out", "c17"],
    ["tables", "--curve", "14a1", "--step", "10000", "--bound", "60000"],
    # refused: exit 2 with a message, nothing written
    ["expand", "--curve", "11a1", "--bound", "0", "--out", "an_0.csv"],
    ["survey", "--curve", "11a1", "--bound", str(10**15), "--out", "huge"],
    ["expand", "--curve", "11a1", "--bound", str(10**15), "--out", "an_huge.csv"],
    ["survey", "--curve", "17a1", "--classes", "3,4", "--bound", "100000",
     "--out", "c17_class4"],
    ["plot-data", "--curve", "17a1", "--n0", "4", "--k", "1", "--bound",
     "100000", "--out", "pd_class4.dat"],
    ["fit", "--survey-csv", HUGE_CSV, "--k", "1", "--out", "fit_huge.json"],
    # aborted: exit 4 once class 3 is staged, nothing left
    ["survey", "--curve", "17a1", "--classes", "3,7", "--bound", "100000",
     "--overrides", OVERRIDES, "--out", "c17_abort"],
]
FULL = QUICK + [
    ["expand", "--curve", "11a1", "--bound", "8090677",
     "--out", "an_8090677.csv"],
    *(["expand", "--curve", c, "--bound", "300000", "--out", f"{c}_an.csv"]
      for c in ("14a1", "17a1", "20a1", "34a1")),
    ["survey", "--curve", "11a1", "--bound", str(10**7), "--out", "s11"],
    ["survey", "--curve", "34a1", "--bound", str(10**6), "--out", "s34"],
    ["fit", "--survey-csv", "s11/11a1_class3.csv", "--k", "4",
     "--out", "fit_s11.json"],
    ["tables", "--curve", "20a1", "--bound", "1000000"],
    ["verify", "--depth", "quick", "--out", "verify_quick.json"],
    ["verify", "--depth", "extended", "--out", "verify_extended.json"],
    ["verify", "--curve", "34a1", "--depth", "quick", "--overrides",
     OVERRIDES, "--out", "verify_34a1_forged.json"],
]
_ELAPSED = re.compile(rb"\d+\.\ds\b")


def _env(tree):
    return dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))


def _check_tree(tree):
    """The package a tree's src/ provides must be its own."""
    src = Path(tree).resolve() / "src"
    probe = "import twistsurvey; print(twistsurvey.__file__)"
    got = subprocess.run(
        [sys.executable, "-c", probe], env=_env(tree), capture_output=True,
        text=True,
    ).stdout.strip()
    return bool(got) and Path(got).resolve().is_relative_to(src)


def run_tree(tree, commands):
    """[(exit code, stdout, masked stderr)] per command, and {relative
    path: bytes} of every file the commands wrote and {relative path + '/':
    None} of every directory they left."""
    results = []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
        for name, text in INPUTS.items():
            Path(work, name).write_text(text)
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "twistsurvey.cli", *argv],
                cwd=work, env=_env(tree), capture_output=True,
            )
            err = _ELAPSED.sub(b"<t>s", proc.stderr)
            results.append((proc.returncode, proc.stdout, err))
        files = {}
        for p in sorted(Path(work).rglob("*")):
            name = str(p.relative_to(work))
            if p.is_dir():
                files[f"{name}/"] = None
            else:
                files[name] = p.read_bytes()
    return results, files


def compare(parent, change, commands):
    """Every difference between the two trees' runs, as text lines."""
    diffs = []
    (pres, pfiles), (cres, cfiles) = (
        run_tree(tree, commands) for tree in (parent, change)
    )
    for argv, p, c in zip(commands, pres, cres):
        for name, pv, cv in zip(("exit code", "stdout", "stderr"), p, c):
            if pv != cv:
                diffs.append(f"{' '.join(argv)}: {name} differs: "
                             f"{pv!r:.200} vs {cv!r:.200}")
    for path in sorted(set(pfiles) | set(cfiles)):
        if path not in cfiles or path not in pfiles:
            side = "change" if path not in cfiles else "parent"
            verb = "left" if path.endswith("/") else "written"
            diffs.append(f"{path}: not {verb} by the {side}")
        elif pfiles[path] != cfiles[path]:
            diffs.append(f"{path}: contents differ "
                         f"({len(pfiles[path])} vs {len(cfiles[path])} bytes)")
    return diffs, sum(data is not None for data in pfiles.values())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    for tree in (args.parent_dir, args.change_dir):
        if not _check_tree(tree):
            print(f"{tree}: src/ does not provide twistsurvey", file=sys.stderr)
            return 2
    commands = QUICK if args.quick else FULL
    diffs, nfiles = compare(args.parent_dir, args.change_dir, commands)
    for line in diffs:
        print(line)
    print(f"{len(commands)} commands, {nfiles} files: "
          f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
