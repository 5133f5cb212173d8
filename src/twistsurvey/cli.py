"""Command-line driver: coefficient dumps, class surveys, fits,
verification suites, and plottable distribution data.

All commands are deterministic for a given configuration; --threads is
accepted for interface stability but the heavy paths are single
vectorized passes, so outputs are byte-identical at any thread count.
Exit codes: 0 ok, 2 bad configuration, 3 verification failure,
4 integrality/normalization abort.
"""

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import catalog, stats
from .bsd_oracle import (
    baseline_selmer,
    bsd_selmer,
    reference_series,
    twisted_l1,
    weight_two_table,
)
from .errors import (
    CasselsViolationError,
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    IntegralityError,
    InvalidClassError,
    NormalizationError,
    NotInCatalogError,
    NumericError,
    OverflowGuardError,
    RangeError,
)
from .qseries import coefficient_rows, theta_difference
from .sieve import squarefree_rows
from .waldspurger import MEMBER_LIMIT, build_tamagawa, propagate_l, survey_class

SCHEMA_VERSION = 1
CSV_HEADER = "n,a_n,k,selmer,L"
# standard checkpoint grid rendered in summary tables
TABLE_BOUNDS = (100000, 1000000, 2500000, 5000000, 7500000, 10000000,
                25000000, 50000000, 75000000, 100000000)
# rows encoded per block handed to the file: bounds the bytes in memory
_ROWS_PER_WRITE = 65536
# encoder pieces joined per chunk of a JSON file; streamed, as the whole
# text (0.79 MB for survey --curve 11a1 --bound 10^7) took that run's
# peak RSS from 70.3-70.5 to 73.4-73.6 MB (six alternating runs each)
_JSON_PARTS = 4096
# 10^j for j <= 15: exact in int64, and in float64 since 10^15 < 2^53
_POW10 = 10 ** np.arange(16, dtype=np.int64)
_POW10F = _POW10.astype(np.float64)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_ABORT = 4
# faults that abort a run with EXIT_ABORT; the cassels suite records them
ABORT_ERRORS = (
    IntegralityError,
    NormalizationError,
    CasselsViolationError,
    OverflowGuardError,
)


def _status(msg):
    print(msg, file=sys.stderr, flush=True)


def _parse_classes(value):
    """Comma-separated class reps, each at most once."""
    value = value.strip()
    if not value:
        return ()
    try:
        reps = tuple(int(part) for part in value.split(","))
    except ValueError:
        raise DomainError(f"bad class list {value!r}")
    if len(set(reps)) != len(reps):
        raise DomainError(f"repeated class in {value!r}")
    return reps


def _parse_threads(value):
    value = value.strip()
    if value == "auto":
        return 0
    try:
        n = int(value)
    except ValueError:
        raise DomainError(f"bad thread count {value!r}")
    if n < 1:
        raise DomainError("thread count must be positive or auto")
    return n


# each settings key of survey and tables: (parse, default)
_CONFIG_PARSERS = {
    "curve": (str, ""),
    "bound": (int, 10**7),
    "classes": (_parse_classes, ()),
    "checkpoint_step": (int, stats.CHECKPOINT_STEP),
    "output_dir": (str, "."),
    "threads": (_parse_threads, 0),  # 0 = auto
    "overrides": (str, ""),
}


def parse_config(text):
    """{key: parsed value} of flat key = value lines, each key one of
    _CONFIG_PARSERS' and at most once; # starts a comment."""
    out = {}
    for idx, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise DomainError(f"config line {idx}: expected key = value")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_PARSERS:
            raise DomainError(f"config line {idx}: unknown key {key!r}")
        if key in out:
            raise DomainError(f"config line {idx}: repeated key {key!r}")
        try:
            out[key] = _CONFIG_PARSERS[key][0](val)
        except DomainError:
            raise
        except ValueError:
            raise DomainError(f"config line {idx}: bad value for {key}")
    return out


def make_config(args):
    """(cfg, spec, checkpoints, overrides) of a configured run: cfg is a
    Namespace of every _CONFIG_PARSERS key, its default overlaid by the
    config file's value and that by the explicit flag's; then the
    catalogue entry of its curve, its checkpoint grid and its overrides,
    checked in that order before any class is surveyed."""
    vals = {key: default for key, (_, default) in _CONFIG_PARSERS.items()}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            vals.update(parse_config(fh.read()))
    for key, (parse, _) in _CONFIG_PARSERS.items():
        val = getattr(args, key, None)
        if val is not None:
            vals[key] = parse(val)
    cfg = argparse.Namespace(**vals)
    if not cfg.curve:
        raise DomainError("no curve given")
    spec = catalog.curve(cfg.curve)
    extra = set(cfg.classes) - set(spec.class_reps)
    if extra:
        raise InvalidClassError(
            f"classes {sorted(extra)} not in {spec.label} catalog"
        )
    checkpoints = stats.default_checkpoints(cfg.bound, cfg.checkpoint_step)
    return cfg, spec, checkpoints, catalog.load_overrides(cfg.overrides)


def _check_bound(bound):
    """survey's and expand's refusal, before anything is allocated: class
    members are int32, and expand's D there would be gigabytes mapped
    lazily, not refused."""
    if bound >= MEMBER_LIMIT:
        raise DomainError(f"bound {bound} is not below 2^31")


def survey_classes(spec, bound, reps=None, overrides=None):
    """(rep, ClassSurvey) for each rep of reps in turn (default: every
    class), surveyed as the sequence is read.  The rows are built by the
    call, so a bound that survey_class would refuse is refused before
    anything is built or read.  The squarefree rows mod M come first; the
    Tamagawa rows, built on them, then the rows of F are built from D's
    reached rows mod M, which then go, as no row of F is a view of them, so
    the Tamagawa transients never stand beside the rows of F.  Each class's
    three rows are let go as its survey is made, so a reader that drops each
    survey before taking the next holds one at a time."""
    _check_bound(bound)
    reps = reps or spec.class_reps
    modulus = spec.table_modulus
    flags = squarefree_rows(bound, modulus, reps)
    table = theta_difference(spec.recipe, bound, modulus)
    tama = build_tamagawa(spec, table, bound, flags)
    a_rows = coefficient_rows(spec.recipe, bound, modulus, reps, table)
    del table
    return (
        (rep, survey_class(
            spec, catalog.baseline(spec, rep, overrides=overrides),
            a_rows.pop(rep), flags.pop(rep), tama.pop(rep), bound,
        ))
        for rep in reps
    )


def survey_curve(spec, bound, reps=None, overrides=None):
    """{rep: ClassSurvey} of survey_classes, every class held at once."""
    return dict(survey_classes(spec, bound, reps, overrides))


@contextlib.contextmanager
def _staging(directory="."):
    """A list for _write_file to stage its temp files in.  When the block
    ends, each is renamed onto its path, so no path holds part of a file,
    nor one file of a run that failed later; if anything raises, every
    staged file goes instead, and so does each directory of directory's
    path (made here when missing) that this made."""
    made = []
    head = os.path.abspath(directory)
    while not os.path.isdir(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(directory, exist_ok=True)
    tmps = []
    try:
        yield tmps
        for tmp in tmps:
            os.replace(tmp, tmp.removesuffix(".tmp"))
        made.clear()
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)
        for path in made:
            os.rmdir(path)


def _write_file(path, chunks, staged=None):
    """Write the bytes of chunks to path.tmp, renamed onto path by its own
    _staging, or by staged's when given."""
    own = _staging() if staged is None else contextlib.nullcontext(staged)
    with own as tmps:
        tmps.append(f"{path}.tmp")
        with open(tmps[-1], "wb") as fh:
            fh.writelines(chunks)


def _write_json(path, doc, staged=None):
    """doc and its schema_version as JSON to path (stdout if path is empty),
    staged as _write_file stages it.  The text is streamed from the encoder,
    _JSON_PARTS pieces a chunk, so it is never held whole; it is json.dumps'
    text, since dumps is the same encoder's pieces joined."""
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    parts = json.JSONEncoder(indent=1, sort_keys=True).iterencode(doc)

    def chunks():
        while chunk := "".join(itertools.islice(parts, _JSON_PARTS)):
            yield chunk
        yield "\n"

    if path:
        _write_file(path, (chunk.encode() for chunk in chunks()), staged)
    else:
        sys.stdout.writelines(chunks())


def _header(**meta):
    """The '# schema_version' line, then one '# key value' line per item."""
    items = {"schema_version": SCHEMA_VERSION, **meta}.items()
    return "".join(f"# {key} {val}\n" for key, val in items)


def _class_chunks(surv):
    """The class CSV of surv as bytes: its header, then its rows,
    _ROWS_PER_WRITE a chunk, with selmer and L formed per chunk.  Where
    a_n = 0, k and selmer are 0 and L nan, so the row reads n,0,0,0, with
    an empty L."""
    head = _header(curve=surv.base.curve, n0=surv.base.n0, bound=surv.bound)
    yield f"{head}{CSV_HEADER}\n".encode()
    for lo in range(0, surv.members.size, _ROWS_PER_WRITE):
        hi = lo + _ROWS_PER_WRITE
        k = surv.k[lo:hi]
        yield _encode_rows([
            surv.members[lo:hi], surv.a[lo:hi], k, surv.torsion * k,
            surv.l_rows(lo, hi),
        ])


def _encode_rows(columns):
    """The CSV text of one block of rows, as bytes: the columns' values
    joined by ',' and each row ended by a newline.  An integer column is
    written as str(int(v)) and a float column as '{:.12g}'.format(v), except
    that nan is an empty field.

    Each value is written into its column's slot of a (rows, width) uint8
    buffer, with 0 bytes as padding, and the row is the buffer's nonzero
    bytes.  Since the padding drops out, each slot is a fixed set of
    character columns and a character that is absent is simply 0.
    """
    rows = columns[0].size
    comma = np.full(rows, ord(","), dtype=np.uint8)
    chars = []
    for col in columns:
        chars += _float_chars(col) if col.dtype.kind == "f" else _int_chars(col)
        chars.append(comma)
    chars[-1] = np.full(rows, ord("\n"), dtype=np.uint8)
    buf = np.stack(chars, axis=1)
    return buf[buf != 0].tobytes()


def _int_chars(v):
    """str(int(x)) for each x of the integer array v, as uint8 character
    columns from left to right: '-' where x < 0, then the digits of |x|,
    each taken by one division of the whole column by 10, with the
    leading zeros left 0."""
    neg = v < 0
    u = v.astype(np.uint64)
    # |x| modulo 2^64, which is exact for every int64 x, -2^63 included
    u = np.where(neg, np.uint64(0) - u, u)
    cols = []
    for i in range(len(str(int(u.max(initial=0))))):
        q = u // 10
        digit = (u - q * 10).astype(np.uint8) + ord("0")
        cols.append(digit if i == 0 else digit * (u > 0))
        u = q
    if neg.any():
        cols.append(neg.astype(np.uint8) * ord("-"))
    return cols[::-1]


def _float_chars(x):
    """'{:.12g}'.format(v) for each v of the float64 array x, and '' for
    nan, as uint8 character columns (see _int_chars).

    Fast path, for finite v > 0 with e = floor(log10 v) in [-4, 10]: the
    power P = 10^(11-e) is exact, and prod = fl(v*P) lies within ulp(prod)/2
    of the exact v*P.  When prod is more than 2 ulp(prod) from every
    half-integer, v*P lies strictly on the same side of each, so
    m = rint(prod) is v*P rounded to the nearest integer, with no tie.
    When moreover 10^11 < m < 10^12, then 10^11 < v*P < 10^12 - 1/2, so e
    is v's true decimal exponent, whatever e log10 gave, and m is v's
    correctly rounded 12-digit significand, whose exponent stays e: the
    digits '{:.12g}' prints, as CPython's formatting rounds correctly
    (D. M. Gay, "Correctly rounded binary-decimal and decimal-binary
    conversions", 1990).  '{:.12g}' writes such a v in fixed notation
    (-4 <= e < 12): the integer part m // 10^(11-e), then '.' and the
    11 - e fraction digits of m % 10^(11-e) with trailing zeros removed,
    and no '.' when none remain.  Every other value (a near-tie, m = 10^11,
    another exponent, v <= 0, inf) is formatted by '{:.12g}' itself.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
    fast = (e >= -4) & (e <= 10)
    e = np.where(fast, e, 0).astype(np.int64)
    prod = np.where(fast, x, 1.0) * _POW10F[11 - e]
    m = np.rint(prod)
    gap = np.abs(prod - np.floor(prod) - 0.5)
    fast &= (gap > 2 * np.spacing(prod)) & (m > 1e11) & (m < 1e12)
    m = np.where(fast, m, 0).astype(np.int64)
    whole, frac = np.divmod(m, _POW10[11 - e])
    # the 11 - e fraction digits moved to the left of a 15-digit field, so
    # every fraction is taken 15 digits by the scalar 10
    frac *= _POW10[4 + e]
    cols = []
    stripped = np.ones(x.size, dtype=bool)
    for _ in range(15):
        q = frac // 10
        digit = (frac - q * 10).astype(np.uint8)
        stripped &= digit == 0
        cols.append((digit + ord("0")) * ~stripped)
        frac = q
    cols.append(~stripped * np.uint8(ord(".")))
    cols = _int_chars(whole) + cols[::-1]
    for col in cols:
        col[~fast] = 0
    slow = ~fast & ~np.isnan(x)
    if slow.any():
        text = np.array(
            ["{:.12g}".format(v) for v in x[slow].tolist()], dtype=bytes
        )
        width = text.dtype.itemsize
        cols += [np.zeros(x.size, np.uint8) for _ in range(width - len(cols))]
        for col, char in zip(cols, text.view(np.uint8).reshape(-1, width).T):
            col[slow] = char
    return cols


def _fit_dicts(fits):
    """stats.fit's arrays as one JSON-ready dict per row."""
    keys = ("alpha", "epsilon", "residual", "degenerate")
    return [dict(zip(keys, cell)) for cell in zip(*(f.tolist() for f in fits))]


def _check_k(k):
    """fit and plot-data reject a negative --k before reading or surveying."""
    if k < 0:
        raise DomainError("k must be nonnegative")


def _k_row(ks, s, k):
    """Row of the count matrix s for k (all zeros when no member has k)."""
    hit = ks == k
    return s[hit] if hit.any() else np.zeros((1, s.shape[1]), dtype=s.dtype)


def _summarize(spec, surveys, checkpoints, bound, step, each=None):
    """The survey's summary of surveys, (rep, ClassSurvey) pairs taken one
    at a time: each class's member count and anchor, and the fits and
    TABLE_BOUNDS rows of each k, both read from the one count matrix
    tallied on the checkpoints and table bounds together.  each(rep, surv),
    when given, is called on every class once it is summarized; the class
    is then let go before the next is asked for, so survey_classes is never
    held whole."""
    bounds = [b for b in TABLE_BOUNDS if b <= bound]
    # not np.union1d or a plain np.unique: in numpy 2.4 their first call
    # imports numpy.ma, which took survey --bound 10^7 from 69.1 to 69.7 MB
    grid = np.array(sorted({*checkpoints, *bounds}), dtype=np.int64)
    at_fit = np.searchsorted(grid, checkpoints)
    at_row = np.searchsorted(grid, bounds)
    classes = {}
    for rep, surv in surveys:
        ks, x, s = stats.tally(surv.members, surv.k, grid, surv.bound)
        fitted = _fit_dicts(stats.fit(x[at_fit], s[:, at_fit]))
        tq = stats.ratios(x[at_row], s[:, at_row]).tolist()
        tx = x[at_row].tolist()
        fits, rows = {}, {}
        # one pass over the fitted rows, only to lay out the JSON
        for k, fr, qs in zip(ks.tolist(), fitted, tq):
            live = not fr["degenerate"]
            fits[str(k)] = fr
            rows[str(k)] = [
                [m, xm, q, stats.sigma(xm, fr["alpha"], fr["epsilon"])
                 if live and xm >= stats.MODEL_FLOOR else 0.0]
                for m, xm, q in zip(bounds, tx, qs)
            ]
        classes[str(rep)] = {
            "members": int(surv.members.size), "fits": fits,
            "table_rows": rows, "n0_effective": surv.base.n0_effective,
        }
        if each is not None:
            each(rep, surv)
        del surv
    return {"curve": spec.label, "bound": bound, "checkpoint_step": step,
            "classes": classes}


def cmd_expand(args):
    """n, a_n for every squarefree n <= bound.

    F is read from its rows n = r (mod M), M the table modulus, for the r
    whose gcd(r, M) the modulus-1 squarefree flags to M mark: if p^2
    divides gcd(r, M), it divides every n of row r, so that row holds no
    squarefree n.  The file is written in blocks of n whose length is a
    multiple of M (at most _ROWS_PER_WRITE values of n when that is >= M):
    each block's a_n are assembled in one reused int32 array by one
    strided copy per kept row, the other rows' entries are never read,
    and the block's squarefree n come from the modulus-1 flags to bound.
    """
    spec = catalog.curve(args.curve)
    bound = args.bound
    if bound < 1:
        raise DomainError("bound must be positive")
    _check_bound(bound)
    if args.threads is not None:
        _parse_threads(args.threads)
    out = args.out or f"{spec.label}_an.csv"
    modulus = spec.table_modulus
    free = squarefree_rows(modulus, 1, (0,))[0]
    keep = [
        r for r in range(min(modulus, bound + 1)) if free[math.gcd(r, modulus)]
    ]
    rows = coefficient_rows(spec.recipe, bound, modulus, keep)
    # n = 0 is False in the row, so its indices are the squarefree n
    flags = squarefree_rows(bound, 1, (0,))[0]
    step = modulus * max(1, _ROWS_PER_WRITE // modulus)
    block = np.zeros(step, dtype=np.int32)

    def chunks():
        yield (_header() + "n,a_n\n").encode()
        for lo in range(0, bound + 1, step):
            hi = min(lo + step, bound + 1)
            # lo is a multiple of M, so entry i is n = lo + i, in row i mod M
            j = lo // modulus
            for r in keep:
                part = block[r : hi - lo : modulus]
                part[:] = rows[r][j : j + part.size]
            i = np.flatnonzero(flags[lo:hi])
            yield _encode_rows([lo + i, block[i]])

    _write_file(out, chunks())
    _status(f"wrote {out} ({np.count_nonzero(flags)} rows)")
    return EXIT_OK


def cmd_survey(args):
    """Survey the configured classes one at a time: each is summarized and
    its CSV staged, then let go before the next class is built.  The files
    are renamed onto their paths, and the summary written, only once every
    class has succeeded; a survey that is refused, aborts or cannot be
    fitted leaves no file, and no directory that it made (_staging)."""
    cfg, spec, checkpoints, overrides = make_config(args)
    t0 = time.time()
    with _staging(cfg.output_dir) as staged:

        def write(rep, surv):
            path = os.path.join(cfg.output_dir, f"{spec.label}_class{rep}.csv")
            _write_file(path, _class_chunks(surv), staged)

        summary = _summarize(
            spec, survey_classes(spec, cfg.bound, cfg.classes, overrides),
            checkpoints, cfg.bound, cfg.checkpoint_step, write,
        )
        spath = os.path.join(cfg.output_dir, f"{spec.label}_summary.json")
        _write_json(spath, summary, staged)
    count = len(summary["classes"])
    _status(f"{spec.label}: surveyed {count} classes in {time.time()-t0:.1f}s")
    _status(f"wrote {count} class files and {spath}")
    return EXIT_OK


def _read_class_csv(path):
    """Metadata and the n, k columns of a class CSV, as cmd_survey
    writes it: '# key value' lines (integer n0 and bound), each key once,
    with '# schema_version 1' before the header, then rows of 5 fields with
    integer n >= 1 and k and strictly ascending n, none above the '# bound'.
    Any other line ('#' after the header too) raises DomainError naming it."""
    meta = {}
    ns = []
    ks = []
    header = False
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            where = f"{path} line {lineno}"
            if not line:
                continue
            if line.startswith("#"):
                if header:
                    raise DomainError(f"{where}: '#' line after the header")
                parts = line[1:].split()
                if len(parts) >= 2:
                    if parts[0] in meta:
                        raise DomainError(f"{where}: repeated key {parts[0]!r}")
                    meta[parts[0]] = parts[1]
                    if parts[0] in ("n0", "bound") and not parts[1].isdigit():
                        raise DomainError(
                            f"{where}: {parts[0]} must be an integer"
                        )
                continue
            if not header:
                if line != CSV_HEADER:
                    raise DomainError(
                        f"{where}: expected header {CSV_HEADER!r}"
                    )
                if meta.get("schema_version") != str(SCHEMA_VERSION):
                    raise DomainError(
                        f"{where}: header without '# schema_version "
                        f"{SCHEMA_VERSION}' before it"
                    )
                header = True
                limit = int(meta["bound"]) if "bound" in meta else None
                continue
            fields = line.split(",")
            if len(fields) != 5:
                raise DomainError(f"{where}: {len(fields)} fields, want 5")
            try:
                n, k = int(fields[0]), int(fields[2])
            except ValueError:
                raise DomainError(f"{where}: n and k must be integers")
            if n < 1:
                raise DomainError(f"{where}: n = {n} is not positive")
            if ns and n <= ns[-1]:
                raise DomainError(f"{where}: n = {n} after n = {ns[-1]}")
            if limit is not None and n > limit:
                raise DomainError(f"{where}: n = {n} above bound {limit}")
            ns.append(n)
            ks.append(k)
    return meta, np.asarray(ns, dtype=np.int64), np.asarray(ks, dtype=np.int64)


def cmd_fit(args):
    _check_k(args.k)
    meta, ns, ks = _read_class_csv(args.survey_csv)
    if ns.size == 0:
        raise DomainError(f"{args.survey_csv}: no data rows")
    surveyed = int(meta.get("bound", ns[-1]))
    bound = surveyed if args.bound is None else args.bound
    checkpoints = stats.default_checkpoints(bound, args.step)
    kv, x, s = stats.tally(ns, ks, checkpoints, surveyed)
    doc = {
        "curve": meta.get("curve", ""),
        "n0": int(meta.get("n0", 0)),
        "k": args.k,
    }
    doc.update(_fit_dicts(stats.fit(x, _k_row(kv, s, args.k)))[0])
    _write_json(args.out, doc)
    return EXIT_OK


def cmd_plot_data(args):
    _check_k(args.k)
    spec = catalog.curve(args.curve)
    if args.n0 not in spec.class_reps:
        raise InvalidClassError(f"{args.n0} not a {spec.label} class")
    checkpoints = stats.default_checkpoints(args.bound, args.step)
    surv = survey_curve(spec, args.bound, (args.n0,))[args.n0]
    ks, x, s = stats.tally(surv.members, surv.k, checkpoints, surv.bound)
    row = _k_row(ks, s, args.k)
    out = args.out or f"{spec.label}_n{args.n0}_k{args.k}.dat"
    lines = [_header(curve=spec.label, n0=args.n0, k=args.k), "x ratio sigma\n"]
    if row[0, -1] > 0:
        # each flag replaces only its own fitted value
        alpha, eps = args.alpha, args.epsilon
        if alpha is None or eps is None:
            fr = _fit_dicts(stats.fit(x, row))[0]
            alpha = fr["alpha"] if alpha is None else alpha
            eps = fr["epsilon"] if eps is None else eps
        lines += [
            f"{xm} {q:.12g} {stats.sigma(xm, alpha, eps):.12g}\n"
            for xm, q in zip(x.tolist(), stats.ratios(x, row[0]).tolist())
            if xm >= stats.MODEL_FLOOR
        ]
    _write_file(out, ["".join(lines).encode()])
    _status(f"wrote {out}")
    return EXIT_OK


def cmd_tables(args):
    cfg, spec, checkpoints, overrides = make_config(args)
    kcols = tuple(j * j for j in range(20))
    entries = _summarize(
        spec, survey_classes(spec, cfg.bound, cfg.classes, overrides),
        checkpoints, cfg.bound, cfg.checkpoint_step,
    )["classes"]
    width = 9
    print(f"fitted alpha by class and k ({spec.label}, M = {cfg.bound})")
    header = "class".rjust(6) + "".join(str(k).rjust(width) for k in kcols)
    print(header)
    for rep in entries:
        fits = entries[rep]["fits"]
        cells = []
        for k in kcols:
            fr = fits.get(str(k))
            cells.append(
                f"{fr['alpha']:.6f}".rjust(width) if fr is not None else "-".rjust(width)
            )
        print(rep.rjust(6) + "".join(cells))
    for rep in entries:
        fits = entries[rep]["fits"]
        for k in sorted(fits, key=int):
            fr = fits[k]
            rows = entries[rep]["table_rows"][k]
            if fr["degenerate"] or not rows:
                continue
            print()
            print(
                f"{spec.label} n0={rep} k={k} "
                f"alpha={fr['alpha']:.6f} eps={fr['epsilon']:+.3f}"
            )
            print("M".rjust(10) + "ratio".rjust(12) + "sigma".rjust(12))
            for m, _, ratio, model in rows:
                print(f"{m:10d}{ratio:12.6f}{model:12.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def run_theta_suite(labels, bound):
    fails = []
    for label in labels:
        spec = catalog.curve(label)
        fast = coefficient_rows(spec.recipe, bound, 1, (0,))[0]
        ref = reference_series(spec.recipe, bound)
        if not np.array_equal(fast, ref):
            first = int(np.nonzero(fast != ref)[0][0])
            fails.append(f"theta {label}: first mismatch at n = {first}")
    return fails


def run_cassels_suite(labels, bound, overrides, surveys):
    """Surveys each curve once, to bound under the overrides, into surveys.
    survey_class's own checks are the suite's (integral and square k, the
    int64 guard); an abort is the curve's one failure and leaves it out."""
    fails = []
    for label in labels:
        try:
            spec = catalog.curve(label)
            surveys[label] = survey_curve(spec, bound, None, overrides)
        except ABORT_ERRORS as exc:
            fails.append(f"cassels {label}: {exc}")
    return fails


# the suites' fixed settings: series precisions (the anchors' is
# baseline_selmer's own), the relative-defect threshold and the number of
# vanishing twists per curve
_PAIR_PRECISION, _ZERO_PRECISION, _ANCHOR_PRECISION = 1e-7, 1e-8, 1e-9
_ZERO_PICKS = 2
_DEFECT_THRESHOLD = 1e-5


def _pair_picks(surv, pairs):
    """Indices of the first `pairs` members after the class anchor with
    a_n != 0."""
    later = (surv.a != 0) & (surv.members > surv.base.n0_effective)
    return np.flatnonzero(later)[:pairs]


def _zero_picks(per_class):
    """The first _ZERO_PICKS twists in the k = 0 rows of a curve's
    classes, where a_n = 0."""
    zeros = np.concatenate([s.members[s.k == 0] for s in per_class.values()])
    return np.sort(zeros)[:_ZERO_PICKS].tolist()


def weight_two_tables(surveys, pairs, reps_by_label):
    """{label: weight_two_table(spec, needs)} for each curve of
    reps_by_label, where needs are the (n, precision) pairs of every L(1)
    that the three suites below evaluate on it: the pair picks at
    _PAIR_PRECISION and the zero picks at _ZERO_PRECISION of its survey in
    surveys, if it has one, and the frozen anchors' n0_effective (without
    the overrides) at _ANCHOR_PRECISION.  weight_two_table sizes the table
    for all of them; b[m] does not depend on the table's length, so each
    suite reads the values a table of its own would hold."""
    tables = {}
    for label, reps in reps_by_label.items():
        spec = catalog.curve(label)
        needs = [(catalog.baseline(spec, rep).n0_effective, _ANCHOR_PRECISION)
                 for rep in reps]
        per_class = surveys.get(label)
        if per_class:
            for surv in per_class.values():
                picks = surv.members[_pair_picks(surv, pairs)].tolist()
                needs += [(n, _PAIR_PRECISION) for n in picks]
            needs += [(n, _ZERO_PRECISION) for n in _zero_picks(per_class)]
        tables[label] = weight_two_table(spec, needs)
    return tables


def run_waldspurger_suite(surveys, pairs, tables):
    """Each class's L and k in surveys ({label: survey_curve result}),
    which the production transfer forms from the class anchor, at the
    first `pairs` later members with a_n != 0: L against the direct
    series twisted_l1 on the curve's table in tables (weight_two_tables),
    and k against #S / t assembled by BSD from that direct L(1)
    (bsd_selmer), which reads c(n) from its own root counts."""
    fails = []
    for label, per_class in surveys.items():
        spec = catalog.curve(label)
        coeffs = tables[label]
        for rep, surv in per_class.items():
            picks = _pair_picks(surv, pairs)
            if not picks.size:
                fails.append(f"waldspurger {label}/{rep}: not enough members")
                continue
            ns = surv.members[picks]
            cols = ns, propagate_l(ns, surv.a[picks], surv.base), surv.k[picks]
            for n, prop, k in zip(*(col.tolist() for col in cols)):
                where = f"waldspurger {label}/{rep} n={n}"
                direct = twisted_l1(spec, n, coeffs, _PAIR_PRECISION).l1
                rel = abs(direct - prop) / abs(direct)
                if not rel < _DEFECT_THRESHOLD:
                    fails.append(
                        f"{where}: direct {direct:.9f} vs propagated "
                        f"{prop:.9f} (rel {rel:.2e})"
                    )
                try:
                    bsd_k = bsd_selmer(spec, n, direct) // spec.family_torsion
                except NormalizationError as exc:
                    fails.append(f"{where}: {exc}")
                    continue
                if k != bsd_k:
                    fails.append(f"{where}: k {k} vs BSD {bsd_k}")
    return fails


def run_zero_suite(surveys, tables):
    """L(1) consistent with 0 at each curve's first twists in its
    survey's k = 0 rows, where a_n = 0, on the curve's table in tables."""
    fails = []
    for label, per_class in surveys.items():
        spec = catalog.curve(label)
        picks = _zero_picks(per_class)
        if not picks:
            fails.append(f"zero {label}: no vanishing coefficient found")
            continue
        for n in picks:
            data = twisted_l1(spec, n, tables[label], _ZERO_PRECISION)
            if not data.zero_consistent:
                fails.append(
                    f"zero {label} n={n}: |L| = {abs(data.l1):.2e} above "
                    f"threshold {data.zero_threshold:.2e}"
                )
    return fails


def run_baseline_suite(reps_by_label, tables, overrides=None):
    """Every field of each frozen anchor against a fresh derivation:
    l_n0 to 1e-9 relative, the rest exactly, on the curve's table in
    tables (weight_two_tables, sized for the frozen anchors' n0_effective
    at least); one too short for the oracle's own anchor is that anchor's
    failure."""
    fails = []
    for label in sorted(reps_by_label):
        spec = catalog.curve(label)
        for rep in reps_by_label[label]:
            want = catalog.baseline(spec, rep, overrides=overrides)
            try:
                got = baseline_selmer(spec, rep, tables[label])
            except (NormalizationError, ConvergenceError, NumericError) as exc:
                fails.append(f"baseline {label}/{rep}: {exc}")
                continue
            for field in dataclasses.fields(want):
                g, w = getattr(got, field.name), getattr(want, field.name)
                if field.name == "l_n0":
                    same = abs(g - w) <= 1e-9 * abs(w)
                else:
                    same = g == w
                if not same:
                    fails.append(
                        f"baseline {label}/{rep}: {field.name} oracle {g!r} "
                        f"!= catalog {w!r}"
                    )
    return fails


# verify --depth: theta bound, survey bound, pairs, anchors (None: all)
_DEPTHS = {"quick": (2000, 10**5, 3, 2), "extended": (10000, 10**6, 20, None)}

# frozen regression anchor for the propagation path: a large class-1 twist
# of 11a1 whose direct series evaluation is far out of reach
_BIG_N = 8090677
_BIG_A = -128
_BIG_L = 2.100720230610905


def run_propagation_suite(overrides=None):
    """The frozen 11a1 anchor a(8090677) = -128 and its L-value propagated
    from its class anchor, overrides applied."""
    spec = catalog.curve("11a1")
    modulus = spec.table_modulus
    rep = _BIG_N % modulus
    row = coefficient_rows(spec.recipe, _BIG_N, modulus, (rep,))[rep]
    a_big = int(row[(_BIG_N - rep) // modulus])
    if a_big != _BIG_A:
        return [f"propagation 11a1: a({_BIG_N}) = {a_big} != {_BIG_A}"]
    base = catalog.baseline(spec, rep, overrides)
    prop = float(propagate_l(_BIG_N, a_big, base))
    if abs(prop - _BIG_L) > 1e-9 * _BIG_L:
        return [f"propagation 11a1 n={_BIG_N}: {prop!r} != {_BIG_L!r}"]
    return []


def cmd_verify(args):
    labels = (args.curve,) if args.curve else catalog.LABELS
    theta_bound, survey_bound, pairs, anchors = _DEPTHS[args.depth]
    # resolving every label first refuses an unknown curve before the
    # overrides are read
    baseline_reps = {
        label: catalog.curve(label).class_reps[:anchors] for label in labels
    }
    overrides = catalog.load_overrides(args.overrides)
    suites = []
    # each status line's seconds run from the one before, so they add up
    # to the run and waldspurger_pairs' include building the tables
    t0 = time.time()

    def run(name, fn, *fargs):
        nonlocal t0
        failures = fn(*fargs)
        t1 = time.time()
        _status(f"verify {name}: {len(failures)} failures ({t1 - t0:.1f}s)")
        t0 = t1
        suites.append(
            {"name": name, "passed": not failures, "failures": failures}
        )

    # each curve is surveyed once, by cassels; the next two suites read it,
    # and the three L(1) suites read one weight-two table per curve
    surveys = {}
    run("theta_reference", run_theta_suite, labels, theta_bound)
    run("cassels", run_cassels_suite, labels, survey_bound, overrides, surveys)
    tables = weight_two_tables(surveys, pairs, baseline_reps)
    run("waldspurger_pairs", run_waldspurger_suite, surveys, pairs, tables)
    run("zero_consistency", run_zero_suite, surveys, tables)
    run("baseline_reproduction", run_baseline_suite, baseline_reps, tables,
        overrides)
    if args.depth == "extended" and "11a1" in labels:
        run("propagation", run_propagation_suite, overrides)
    passed = all(s["passed"] for s in suites)
    report = {
        "depth": args.depth,
        "curves": list(labels),
        "suites": suites,
        "passed": passed,
    }
    _write_json(args.out, report)
    return EXIT_OK if passed else EXIT_VERIFY


def build_parser():
    ap = argparse.ArgumentParser(
        prog="twistsurvey",
        description="Selmer-order surveys over quadratic twist families",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("expand", help="dump squarefree coefficients as CSV")
    pe.add_argument("--curve", required=True)
    pe.add_argument("--bound", type=int, default=10**7)
    pe.add_argument("--out")
    pe.add_argument("--threads")
    pe.set_defaults(func=cmd_expand)

    # the flags survey and tables share, each a _CONFIG_PARSERS key
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--curve")
    shared.add_argument("--bound", type=int)
    shared.add_argument("--classes")
    shared.add_argument("--step", type=int, dest="checkpoint_step")
    shared.add_argument("--threads")
    shared.add_argument("--config")

    ps = sub.add_parser("survey", parents=[shared],
                        help="full per-class survey with fits")
    ps.add_argument("--out", dest="output_dir")
    ps.add_argument("--overrides")
    ps.set_defaults(func=cmd_survey)

    pf = sub.add_parser("fit", help="fit sigma to a survey CSV")
    pf.add_argument("--survey-csv", required=True)
    pf.add_argument("--k", type=int, required=True)
    pf.add_argument("--bound", type=int)
    pf.add_argument("--step", type=int, default=stats.CHECKPOINT_STEP)
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_fit)

    pv = sub.add_parser("verify", help="run the verification suites")
    pv.add_argument("--curve")
    pv.add_argument("--depth", choices=tuple(_DEPTHS), default="quick")
    pv.add_argument("--overrides")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    pp = sub.add_parser("plot-data", help="x/ratio/sigma columns for a class")
    pp.add_argument("--curve", required=True)
    pp.add_argument("--n0", type=int, required=True)
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--bound", type=int, default=10**7)
    pp.add_argument("--step", type=int, default=stats.CHECKPOINT_STEP)
    pp.add_argument("--alpha", type=float)
    pp.add_argument("--epsilon", type=float)
    pp.add_argument("--out")
    pp.set_defaults(func=cmd_plot_data)

    pt = sub.add_parser("tables", parents=[shared],
                        help="render fitted-alpha and ratio tables")
    pt.set_defaults(func=cmd_tables)
    return ap


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_OK if code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except (
        NotInCatalogError,
        InvalidClassError,
        DomainError,
        RangeError,
        InsufficientDataError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # an allocation refused inside the interpreter carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except ABORT_ERRORS as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
