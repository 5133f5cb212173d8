"""Tests of the benchmark itself.

    python3 twistbench/selftest.py

1. Smoke: every workload once at a reduced size (one untraced and one
   traced run), through the same harness as the full runs; each must pass
   its checks.
2. The checks can fail: copies of real output with one a_n changed, one
   row dropped, one summary count off, one non-square k, one failed verify
   suite and one wrong weight-2 coefficient must each be caught, while the
   untouched copy passes.
3. BENCHMARK.json names only workloads the harness has, and exactly the
   per-layer metrics it reports.

Exit status 0 when all of that holds.
"""

import json
import os
import shutil
import sys

import checks
import run
import spans

SMALL = {
    "survey-11a1-1e7": run.survey_workload(("11a1",), 300000, 2),
    "survey-five-1e6": run.survey_workload(tuple(checks.CURVES), 100000, 1),
    "verify-quick": run.verify_workload("--curve", "11a1"),
    "expand-11a1-worked": run.expand_workload("11a1", 300000, 4),
}
SEED = 7


def smoke():
    fails = []
    for name, wl in SMALL.items():
        for trace in (0, 1):
            result = run.run_workload(f"selftest-{name}", wl, SEED, 1, trace)
            ok = result is not None and result["correct"] and result["failed"] == 0
            print(f"smoke {name} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                fails.append(f"smoke {name} trace={trace}")
    return fails


def _rewrite_row(path, pick, change):
    """Apply change(fields) -> fields or None (drop) to the first row pick accepts."""
    with open(path) as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        if not line[0].isdigit():
            continue
        fields = line.rstrip("\n").split(",")
        if pick(fields):
            new = change(fields)
            lines[i] = "" if new is None else ",".join(new) + "\n"
            break
    else:
        raise RuntimeError(f"no row to change in {path}")
    with open(path, "w") as fh:
        fh.writelines(lines)


def _summary_off(path):
    with open(path) as fh:
        summary = json.load(fh)
    summary["classes"]["3"]["members"] += 1
    with open(path, "w") as fh:
        json.dump(summary, fh)


def _verify_failed(path):
    with open(path) as fh:
        report = json.load(fh)
    report["suites"][0]["passed"] = False
    report["suites"][0]["failures"] = ["forged"]
    with open(path, "w") as fh:
        json.dump(report, fh)


def mutations():
    """Each mutation of real output must be caught; the copy itself must pass."""
    base = os.path.join(run.OUT, "selftest-mutations")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    sys.path.insert(0, run.SRC)
    from twistsurvey import cli

    survey_dir = os.path.join(base, "survey")
    bound = 300000
    cli.main(["survey", "--curve", "11a1", "--bound", str(bound), "--out", survey_dir])
    dump = os.path.join(base, "11a1_an.csv")
    cli.main(["expand", "--curve", "11a1", "--bound", str(bound), "--out", dump])
    report = os.path.join(base, "verify.json")
    cli.main(["verify", "--curve", "11a1", "--out", report])

    def survey_check(d):
        return checks.check_survey(d, ("11a1",), bound, SEED, 2)

    cls3 = "11a1_class3.csv"
    cases = {
        "clean survey": (survey_dir, None, survey_check),
        "a_n changed": (survey_dir, lambda d: _rewrite_row(
            os.path.join(d, cls3), lambda f: int(f[0]) > 1000 and f[1] != "0",
            lambda f: [f[0], str(2 * int(f[1])), *f[2:]]), survey_check),
        "row dropped": (survey_dir, lambda d: _rewrite_row(
            os.path.join(d, cls3), lambda f: int(f[0]) > 1000, lambda f: None),
            survey_check),
        "summary count off": (survey_dir, lambda d: _summary_off(
            os.path.join(d, "11a1_summary.json")), survey_check),
        "non-square k": (survey_dir, lambda d: _rewrite_row(
            os.path.join(d, cls3), lambda f: f[2] == "1",
            lambda f: [f[0], f[1], "2", "2", f[4]]), survey_check),
        "clean dump": (dump, None,
                       lambda p: checks.check_expand(p, "11a1", bound, SEED, 4)),
        "dump a_n changed": (dump, lambda p: _rewrite_row(
            p, lambda f: f[0] == "3", lambda f: [f[0], str(int(f[1]) + 2)]),
            lambda p: checks.check_expand(p, "11a1", bound, SEED, 4)),
        "dump row dropped": (dump, lambda p: _rewrite_row(
            p, lambda f: int(f[0]) > 1000, lambda f: None),
            lambda p: checks.check_expand(p, "11a1", bound, SEED, 4)),
        "clean verify": (report, None, checks.check_verify),
        "verify suite failed": (report, _verify_failed, checks.check_verify),
    }
    fails = []
    for label, (src, mutate, check) in cases.items():
        copy = os.path.join(base, label.replace(" ", "_"))
        if os.path.isdir(src):
            shutil.copytree(src, copy)
        else:
            os.makedirs(copy)
            copy = os.path.join(copy, os.path.basename(src))
            shutil.copy(src, copy)
        if mutate is not None:
            mutate(copy)
        found = check(copy)
        caught = bool(found) == (mutate is not None)
        print(f"mutation {label}: {'ok' if caught else 'FAILED'}"
              f"{' (' + found[0] + ')' if found else ''}")
        if not caught:
            fails.append(f"mutation {label}")

    from twistsurvey import bsd_oracle, catalog

    b = bsd_oracle.expand_b(catalog.curve("11a1"), 2500).b.copy()
    clean = checks.check_weight_two_11a1(b, 2500)
    b[1999] += 1
    forged = checks.check_weight_two_11a1(b, 2500)
    ok = not clean and bool(forged)
    print(f"mutation weight-2 coefficient: {'ok' if ok else 'FAILED'}")
    if not ok:
        fails.append("mutation weight-2 coefficient")
    return fails


def manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    fails = []
    if not {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS):
        fails.append("BENCHMARK.json names a workload run.py does not have")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
            != list(spans.PER_LAYER):
        fails.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    if {m["name"] for m in bench["end_to_end"]} != {"wall_s", "setup_s", "peak_rss_mb"}:
        fails.append("BENCHMARK.json end_to_end metrics")
    print(f"manifest: {'ok' if not fails else 'FAILED'}")
    return fails


def main():
    fails = manifest() + mutations() + smoke()
    print("selftest:", "passed" if not fails else f"FAILED {fails}")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
