"""Spans and counts around calls into each twistsurvey layer (traced run).

`install` replaces every public function of the seven layer modules with a
wrapper that records a span (name, start, end, parent) and a call count.
Names a module imported from another (`from .qseries import build_F` in
cli, `from .sieve import primes_upto` in waldspurger, ...) are rebound to
the same wrapper, so those calls are traced too. Spans stay in memory and
are written out once the round has ended.

A span's self time is its duration minus the time of its child spans.
Count hooks run after the wrapped call returns; their time is charged to
the pseudo-layer `trace.hook_s`, not to the calling span.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("qseries", "sieve", "catalog", "waldspurger", "stats", "bsd_oracle",
          "cli")


def _hook_build_f(rec, args, kw, result):
    rec.counts["qseries.coeffs_computed"] += result.bound + 1


def _hook_series_mul(rec, args, kw, result):
    # the shorter factor is streamed as shifted adds over the longer one,
    # one add per output index i..bound for each of its nonzeros i
    lhs, rhs = args[0].coeffs, args[1].coeffs
    sparse = lhs if np.count_nonzero(lhs) <= np.count_nonzero(rhs) else rhs
    idx = np.flatnonzero(sparse)
    rec.counts["qseries.mul_adds"] += int(idx.size * sparse.size - idx.sum())


def _hook_survey_class(rec, args, kw, result):
    rec.counts["waldspurger.twists"] += int(result.members.size)


def _hook_count_ap(rec, args, kw, result):
    rec.ap_seen.add((args[0].label, int(args[1])))


def _hook_expand_b(rec, args, kw, result):
    rec.counts["bsd_oracle.expand_b_terms"] += int(result.bound)


HOOKS = {
    "qseries.build_F": _hook_build_f,
    "qseries.series_mul": _hook_series_mul,
    "waldspurger.survey_class": _hook_survey_class,
    "bsd_oracle.count_ap": _hook_count_ap,
    "bsd_oracle.expand_b": _hook_expand_b,
}


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []  # indices of open spans
        self._layers = []  # layer of each open span
        self._child = []  # child time of each open span
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.ap_seen = set()
        self.hook_s = 0.0

    def wrap(self, layer, name, fn, hook):
        rec = self
        key = f"{layer}.{name}"
        # a call inside its own layer gets no span of its own unless a metric
        # names the function; its time stays with the caller's span
        own_span = key in NAMED

        @functools.wraps(fn)
        def traced(*args, **kw):
            if not own_span and rec._open and rec._layers[-1] == layer:
                return fn(*args, **kw)
            idx = len(rec.spans)
            span = [key, 0.0, 0.0, rec._open[-1] if rec._open else -1]
            rec.spans.append(span)
            rec._open.append(idx)
            rec._layers.append(layer)
            rec._child.append(0.0)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                span[2] = time.perf_counter()
                rec._open.pop()
                rec._layers.pop()
                child = rec._child.pop()
                duration = span[2] - span[1]
                rec.self_s[key] += duration - child
                rec.calls[key] += 1
                if rec._child:
                    rec._child[-1] += duration
            if hook is not None:
                h0 = time.perf_counter()
                hook(rec, args, kw, result)
                spent = time.perf_counter() - h0
                rec.hook_s += spent
                if rec._child:
                    rec._child[-1] += spent
            return result

        return traced

    def install(self, package):
        """Wrap the layers' public functions wherever the package binds them."""
        import importlib

        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    hook = HOOKS.get(f"{layer}.{name}")
                    wrappers[id(obj)] = (obj, self.wrap(layer, name, obj, hook))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def summary(self):
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "ap_distinct": len(self.ap_seen),
            "hook_s": self.hook_s,
            "spans": len(self.spans),
        }

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


# (name, unit, better) of every per-layer metric the traced run reports
PER_LAYER = (
    ("qseries.build_F_s", "s", "lower"),
    ("qseries.build_F_calls", "count", "lower"),
    ("qseries.theta_binary_s", "s", "lower"),
    ("qseries.theta_binary_calls", "count", "lower"),
    ("qseries.series_mul_s", "s", "lower"),
    ("qseries.coeffs_computed", "count", "lower"),
    ("qseries.coeffs_used", "count", "higher"),
    ("qseries.used_ratio", "ratio", "higher"),
    ("qseries.mul_adds", "count", "lower"),
    ("qseries.mul_bytes", "bytes", "lower"),
    ("qseries.self_s", "s", "lower"),
    ("sieve.build_sieve_s", "s", "lower"),
    ("sieve.build_sieve_calls", "count", "lower"),
    ("sieve.class_members_s", "s", "lower"),
    ("sieve.primes_upto_s", "s", "lower"),
    ("sieve.primes_upto_calls", "count", "lower"),
    ("sieve.self_s", "s", "lower"),
    ("catalog.baseline_calls", "count", "lower"),
    ("catalog.self_s", "s", "lower"),
    ("waldspurger.build_tamagawa_s", "s", "lower"),
    ("waldspurger.build_tamagawa_calls", "count", "lower"),
    ("waldspurger.survey_class_s", "s", "lower"),
    ("waldspurger.twists", "count", "higher"),
    ("waldspurger.self_s", "s", "lower"),
    ("stats.tally_s", "s", "lower"),
    ("stats.tally_calls", "count", "lower"),
    ("stats.fit_s", "s", "lower"),
    ("stats.fit_calls", "count", "lower"),
    ("stats.self_s", "s", "lower"),
    ("bsd_oracle.count_ap_s", "s", "lower"),
    ("bsd_oracle.count_ap_calls", "count", "lower"),
    ("bsd_oracle.ap_distinct", "count", "higher"),
    ("bsd_oracle.ap_useful_ratio", "ratio", "higher"),
    ("bsd_oracle.expand_b_s", "s", "lower"),
    ("bsd_oracle.expand_b_calls", "count", "lower"),
    ("bsd_oracle.expand_b_terms", "count", "lower"),
    ("bsd_oracle.twisted_l1_s", "s", "lower"),
    ("bsd_oracle.twisted_l1_calls", "count", "lower"),
    ("bsd_oracle.baseline_selmer_s", "s", "lower"),
    ("bsd_oracle.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.rows_written", "count", "higher"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.layer_sum_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.hook_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# functions that get a span on every call: those a per-layer metric names
NAMED = {
    name[: -len(suffix)]
    for name, _unit, _better in PER_LAYER
    for suffix in ("_s", "_calls")
    if name.endswith(suffix)
}

# bytes one shifted add moves in series_mul: read dense[j] and out[i + j],
# write out[i + j], all int64
MUL_BYTES_PER_ADD = 24


def layer_metrics(traced, untraced_walls, rows_written, bytes_written, expand_rows):
    """Per-layer metrics from the traced rounds' summaries.

    Times are medians over the traced rounds; counts come from the last
    traced round (they repeat exactly from round to round).
    """
    last = traced[-1]
    calls, counts = last["calls"], last["counts"]

    def self_time(key):
        return statistics.median(r["self_s"].get(key, 0.0) for r in traced)

    def layer_time(layer):
        return statistics.median(
            sum((v for k, v in r["self_s"].items() if k.startswith(layer + ".")), 0.0)
            for r in traced
        )

    wall = statistics.median(r["wall_s"] for r in traced)
    untraced = statistics.median(untraced_walls)
    layer_sum = statistics.median(sum(r["self_s"].values()) for r in traced)
    coeffs_computed = counts.get("qseries.coeffs_computed", 0)
    coeffs_used = counts.get("waldspurger.twists", 0) + expand_rows
    ap_calls = calls.get("bsd_oracle.count_ap", 0)
    mul_adds = counts.get("qseries.mul_adds", 0)
    values = {
        "qseries.coeffs_computed": coeffs_computed,
        "qseries.coeffs_used": coeffs_used,
        "qseries.used_ratio": coeffs_used / coeffs_computed if coeffs_computed else 0.0,
        "qseries.mul_adds": mul_adds,
        "qseries.mul_bytes": MUL_BYTES_PER_ADD * mul_adds,
        "waldspurger.twists": counts.get("waldspurger.twists", 0),
        "bsd_oracle.ap_distinct": last["ap_distinct"],
        "bsd_oracle.ap_useful_ratio": last["ap_distinct"] / ap_calls if ap_calls else 0.0,
        "bsd_oracle.expand_b_terms": counts.get("bsd_oracle.expand_b_terms", 0),
        "cli.rows_written": rows_written,
        "cli.bytes_written": bytes_written,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.layer_sum_s": layer_sum,
        "trace.coverage": layer_sum / wall if wall else 0.0,
        "trace.hook_s": statistics.median(r["hook_s"] for r in traced),
        "trace.spans": last["spans"],
    }
    for name, _unit, _better in PER_LAYER:
        if name in values:
            continue
        layer, metric = name.split(".", 1)
        if metric == "self_s":
            values[name] = layer_time(layer)
        elif metric.endswith("_calls"):
            values[name] = calls.get(f"{layer}.{metric[:-6]}", 0)
        else:
            values[name] = self_time(f"{layer}.{metric[:-2]}")
    return values
