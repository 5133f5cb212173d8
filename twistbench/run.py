"""twistsurvey benchmark: runs one workload, checks its outputs, prints metrics.

    python3 twistbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 twistbench/run.py --workload all ...   # every workload in turn

Each round of a workload runs in a fresh interpreter (child.py), one at a
time, so at most two processes (this one and the round) are alive. The
round's commands go through twistsurvey's own entry point; the time is
taken around them from outside the program. Rounds repeat until the next
one would end past --seconds (at least one round). Several set-up-only
interpreters start before the rounds, so set-up time is a median too.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics wall_s, setup_s and peak_rss_mb (medians over the run). With
--trace 1 rounds alternate untraced and traced, and the JSON carries the
per-layer metrics of spans.PER_LAYER, tracing overhead included.

After the timed rounds every output is checked by checks.py, which shares
no code with twistsurvey. Exit status: 0 when every check passes, 1 when
a check fails (the JSON line still says correct: false), 2 when the
program cannot be started at all (no JSON line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(BENCH, "out")

SETUP_PROBES = 5  # set-up-only interpreters per run, before the rounds
ROUND_DEADLINE_S = 150.0  # a round still running then is killed and failed
# BLAS pools held to one thread: the program computes on one core
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


@dataclass(frozen=True)
class Workload:
    commands: tuple  # argument lists; "{out}" stands for the round's output dir
    check: Callable  # (out_dir, seed) -> list of failures


def survey_workload(curves, bound, samples):
    commands = tuple(("survey", "--curve", c, "--bound", str(bound), "--out", "{out}")
                     for c in curves)
    return Workload(commands,
                    lambda out, seed: checks.check_survey(out, curves, bound, seed,
                                                          samples))


def expand_workload(curve, bound, samples):
    commands = (("expand", "--curve", curve, "--bound", str(bound),
                 "--out", f"{{out}}/{curve}_an.csv"),)
    return Workload(commands,
                    lambda out, seed: checks.check_expand(
                        os.path.join(out, f"{curve}_an.csv"), curve, bound, seed,
                        samples))


def _check_verify(out, seed):
    fails = checks.check_verify(os.path.join(out, "verify.json"))
    terms = random.Random(f"{seed}:eta").randrange(2000, 4001)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from twistsurvey import bsd_oracle, catalog

    b = bsd_oracle.expand_b(catalog.curve("11a1"), terms).b
    return fails + checks.check_weight_two_11a1(b, terms)


def verify_workload(*extra):
    return Workload((("verify", "--depth", "quick", *extra,
                      "--out", "{out}/verify.json"),), _check_verify)


# why each workload is here: BENCHMARK.json and README.md
WORKLOADS = {
    "survey-11a1-1e7": survey_workload(("11a1",), 10**7, 2),
    "survey-five-1e6": survey_workload(tuple(checks.CURVES), 10**6, 2),
    "verify-quick": verify_workload(),
    "expand-11a1-worked": expand_workload("11a1", 8090677, 12),
}


def _spawn(commands, run, spans_path, result_path, log_path, deadline):
    """Start one child interpreter, wait for it, return its record."""
    spec = json.dumps({"commands": [list(c) for c in commands], "run": run,
                       "spans": spans_path})
    with open(log_path, "w") as log:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, ROOT, spec, result_path],
                                stdout=log, stderr=subprocess.STDOUT,
                                env=CHILD_ENV, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:  # interrupted or terminated: end the round too
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"exit": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0:
        with open(result_path) as fh:
            result = json.load(fh)
        record["setup_s"] = result["ready"] - started
        record.update({k: result[k] for k in ("codes", "wall_s", "trace")
                       if k in result})
    return record


def _digest(out_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _written(out_dir):
    """(CSV data rows, dump rows, bytes) of a round's output files."""
    rows = dump_rows = nbytes = 0
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        nbytes += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                data = sum(1 for line in fh if line[:1].isdigit())
            rows += data
            if name.endswith("_an.csv"):
                dump_rows += data
    return rows, dump_rows, nbytes


def run_workload(name, wl, seed, seconds, trace, log=sys.stderr):
    """Set-up probes, timed rounds, output checks. Returns the result dict,
    or None when the program could not be started."""
    work = os.path.join(OUT, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + ROUND_DEADLINE_S

    setups = []
    for i in range(SETUP_PROBES):
        rec = _spawn(wl.commands, False, None, os.path.join(work, f"probe{i}.json.result"),
                     os.path.join(work, f"probe{i}.log"), deadline)
        if rec["exit"] != 0:
            with open(os.path.join(work, f"probe{i}.log")) as fh:
                print(fh.read(), file=log)
            return None
        setups.append(rec["setup_s"])

    rounds, digests = [], {}
    start = time.monotonic()
    while True:
        i = len(rounds)
        traced = bool(trace) and i % 2 == 1
        out = os.path.join(work, f"round{i}")
        os.makedirs(out)
        commands = [[arg.replace("{out}", out) for arg in c] for c in wl.commands]
        rec = _spawn(commands, True,
                     os.path.join(work, f"round{i}.spans") if traced else None,
                     os.path.join(work, f"round{i}.json.result"),
                     os.path.join(work, f"round{i}.log"),
                     time.monotonic() + ROUND_DEADLINE_S)
        rec["traced"], rec["out"] = traced, out
        rec["ok"] = rec["exit"] == 0 and all(c == 0 for c in rec.get("codes", [1]))
        rounds.append(rec)
        if rec["ok"]:
            digests[i] = _digest(out)
            # keep one round's outputs on disk: the last good one
            for prev in rounds[:-1]:
                if prev["ok"]:
                    shutil.rmtree(prev["out"], ignore_errors=True)
        elapsed = time.monotonic() - start
        kinds = {r["traced"] for r in rounds}
        if elapsed > ROUND_DEADLINE_S / 2:
            break
        if (not trace or kinds == {False, True}) and \
                elapsed + elapsed / len(rounds) > seconds:
            break

    attempted = len(rounds) * len(wl.commands)
    failed = sum(
        len(wl.commands) if "codes" not in r else sum(c != 0 for c in r["codes"])
        for r in rounds
    )
    good = [r for r in rounds if r["ok"]]
    failures = []
    if not good:
        failures.append("no round finished without error")
    else:
        if len(set(digests.values())) != 1:
            failures.append("rounds wrote different bytes")
        failures += wl.check(good[-1]["out"], seed)
    for msg in failures:
        print(f"CHECK FAILED [{name}]: {msg}", file=log)

    untraced = [r for r in good if not r["traced"]]
    metrics = {}
    if not trace:
        if untraced:
            metrics = {
                "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
                "setup_s": (statistics.median(setups + [r["setup_s"] for r in rounds
                                                        if "setup_s" in r]), "s"),
                "peak_rss_mb": (statistics.median(r["rss_mb"] for r in untraced), "MB"),
            }
    else:
        traced = [r["trace"] for r in good if r["traced"]]
        if traced and untraced:
            rows, dump_rows, nbytes = _written(good[-1]["out"])
            values = spans.layer_metrics(traced, [r["wall_s"] for r in untraced],
                                         rows, nbytes, dump_rows)
            metrics = {n: (values[n], unit) for n, unit, _ in spans.PER_LAYER}
    if not metrics:
        failures.append("no metric could be measured")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": len(rounds),
    }


def _report(name, result, out=sys.stdout):
    for key, m in result["metrics"].items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}", file=out)
    print(f"{name} rounds = {result['rounds']}, attempted = {result['attempted']}, "
          f"failed = {result['failed']}, correct = {result['correct']}", file=out)


def _run_all(args):
    """Every workload in its own run.py process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode == 2:
            return 2  # the program could not be started: no result at all
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None):
    # SIGTERM unwinds like Ctrl-C, so a running round is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return _run_all(args)
    if not os.path.isfile(os.path.join(SRC, "twistsurvey", "cli.py")):
        print(f"no twistsurvey sources under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                          args.seconds, args.trace)
    if result is None:
        print("the program could not be started", file=sys.stderr)
        return 2
    _report(args.workload, result)
    result.pop("rounds")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
