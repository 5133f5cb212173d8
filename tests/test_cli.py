from __future__ import annotations

import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistsurvey import bsd_oracle, catalog, cli, qseries, sieve, stats, waldspurger
from twistsurvey.errors import DomainError

from oracles import is_squarefree_trial, naive_recipe_series


def run(argv):
    return cli.main(argv)


def test_expand_golden_rows(tmp_path):
    out = tmp_path / "an.csv"
    assert run(["expand", "--curve", "11a1", "--bound", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema_version 1"
    assert lines[1] == "n,a_n"
    assert lines[2:] == ["1,2", "2,0", "3,-2"]


def test_expand_deterministic_across_thread_flags(tmp_path):
    one = tmp_path / "one.csv"
    four = tmp_path / "four.csv"
    run(["expand", "--curve", "17a1", "--bound", "50000", "--out", str(one),
         "--threads", "1"])
    run(["expand", "--curve", "17a1", "--bound", "50000", "--out", str(four),
         "--threads", "4"])
    assert one.read_bytes() == four.read_bytes()


@pytest.mark.parametrize("label", catalog.LABELS)
def test_expand_matches_naive_series_around_the_modulus(tmp_path, label):
    # expand reads F from the table-modulus rows, so the bounds that end
    # inside the first row of each residue are checked too
    spec = catalog.curve(label)
    modulus = spec.table_modulus
    coeffs = naive_recipe_series(
        [(sign, (f.a, f.b, f.c)) for sign, f in spec.recipe.terms],
        spec.recipe.unary_t, 3000,
    )
    for bound in (1, 2, modulus - 1, modulus, modulus + 1, 3000):
        out = tmp_path / f"{bound}.csv"
        assert run(["expand", "--curve", label, "--bound", str(bound),
                    "--out", str(out)]) == 0
        want = "# schema_version 1\nn,a_n\n" + "".join(
            f"{n},{coeffs[n]}\n" for n in range(1, bound + 1)
            if is_squarefree_trial(n)
        )
        assert out.read_text() == want, bound


@pytest.mark.parametrize("label", catalog.LABELS)
def test_expand_peak_memory_per_coefficient(tmp_path, label):
    # the int16 D and the kept int32 rows of F, then those rows beside the
    # bool flags; each block's a_n are assembled from the rows, so F is
    # never held as one array, and no full-length column of n or a_n is
    # ever gathered
    bound = 10**6
    tracemalloc.start()
    try:
        assert run(["expand", "--curve", label, "--bound", str(bound),
                    "--out", str(tmp_path / "an.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * (bound + 1), peak / (bound + 1)


def test_survey_curve_peak_memory_per_coefficient():
    # the int16 D with the int8 Tamagawa rows and their transients, then D
    # with the int32 class rows; the transients once stood beside both
    # (5.54 bytes per n, and 5.25 with an int32 D)
    bound = 10**6
    tracemalloc.start()
    try:
        cli.survey_curve(catalog.curve("11a1"), bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * (bound + 1), peak / (bound + 1)


@pytest.mark.parametrize("label, limit", [("11a1", 5.2), ("34a1", 3.0)])
def test_survey_holds_one_class_survey_at_a_time(tmp_path, label, limit):
    # each class is summarized and staged, then let go before the next is
    # built: 4.63 and 2.17 bytes per n; holding every class survey until
    # the summary and the writers ran took 5.89 and 3.84
    bound = 10**6
    tracemalloc.start()
    try:
        assert run(["survey", "--curve", label, "--bound", str(bound),
                    "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * (bound + 1), peak / (bound + 1)


@pytest.mark.parametrize("out, old", [
    (os.path.join("d", "e"), False), ("d", True),
], ids=["new-dirs", "old-file"])
def test_later_class_abort_leaves_nothing(tmp_path, monkeypatch, capsys, out,
                                          old):
    # class 3 is staged as its .tmp before class 7 aborts; that .tmp goes,
    # and so does every directory the run made, while an older class file
    # is left as it was
    monkeypatch.chdir(tmp_path)
    Path("k0.ov").write_text("17a1.7.k0 = 2\n")
    if old:
        Path(out).mkdir()
        Path(out, "17a1_class3.csv").write_bytes(b"old\n")
    staged = []
    real = cli._write_file

    def recorded(path, chunks, into=None):
        real(path, chunks, into)
        staged.append((path, os.path.exists(f"{path}.tmp")))

    monkeypatch.setattr(cli, "_write_file", recorded)
    assert run(["survey", "--curve", "17a1", "--classes", "3,7",
                "--bound", "100000", "--overrides", "k0.ov",
                "--out", out]) == 4
    assert capsys.readouterr().err == (
        "abort: 17a1: k = 2 at n = 7 is not a perfect square\n"
    )
    assert staged == [(os.path.join(out, "17a1_class3.csv"), True)]
    if old:
        assert [p.name for p in Path(out).iterdir()] == ["17a1_class3.csv"]
        assert Path(out, "17a1_class3.csv").read_bytes() == b"old\n"
    else:
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k0.ov"]


@pytest.mark.parametrize("bound, rows", [(10**8, 10), (10**7, 6)])
def test_summary_table_rows_reach_1e8(bound, rows):
    members = np.arange(1, bound, 997, dtype=np.int32)
    base = catalog.ClassBaseline("11a1", 1, 1, 1, 1, 1, 1.0)
    surv = waldspurger.ClassSurvey(
        base, bound, members, np.ones_like(members),
        np.arange(members.size, dtype=np.int64) % 2, 1,
    )
    step = bound // 20
    checkpoints = stats.default_checkpoints(bound, step)
    entry = cli._summarize(
        catalog.curve("11a1"), [(1, surv)], checkpoints, bound, step
    )["classes"]["1"]
    want = [10**5, 10**6, 25 * 10**5, 5 * 10**6, 75 * 10**5, 10**7,
            25 * 10**6, 5 * 10**7, 75 * 10**6, 10**8][:rows]
    for k in ("0", "1"):
        assert [row[0] for row in entry["table_rows"][k]] == want
    # the anchor each class summary carries
    assert entry["n0_effective"] == 1


@pytest.fixture(scope="module")
def surveys_11a1():
    # step 30000 leaves 10^5 and 10^6 off the checkpoint grid
    return cli.survey_curve(catalog.curve("11a1"), 10**6, (3, 23))


def test_summary_table_rows_count_the_members(surveys_11a1):
    # every row [M, x, ratio, sigma] against a count made from the
    # survey's own arrays, not from stats
    spec = catalog.curve("11a1")
    checkpoints = stats.default_checkpoints(10**6, 30000)
    assert not {10**5, 10**6} & set(checkpoints)
    summary = cli._summarize(
        spec, surveys_11a1.items(), checkpoints, 10**6, 30000
    )
    for rep, surv in surveys_11a1.items():
        rows = summary["classes"][str(rep)]["table_rows"]
        assert set(rows) == {str(k) for k in set(surv.k.tolist())}
        for kk, table in rows.items():
            assert [row[0] for row in table] == [10**5, 10**6]
            for m, x, ratio, _ in table:
                upto = surv.members <= m
                assert x == int(upto.sum())
                assert ratio == int((upto & (surv.k == int(kk))).sum()) / x
    # below the first table bound every class has its fits and no rows
    low = cli.survey_classes(spec, 60000, (3, 23))
    summary = cli._summarize(
        spec, low, stats.default_checkpoints(60000, 20000), 60000, 20000
    )
    for entry in summary["classes"].values():
        assert entry["fits"]
        assert all(rows == [] for rows in entry["table_rows"].values())


def test_summarize_tallies_each_class_once(surveys_11a1, monkeypatch):
    # the fits and the table rows read one count matrix, on one int64
    # grid of the checkpoints and the table bounds
    grids = []
    tally = stats.tally

    def counted(members, k, checkpoints, bound):
        grids.append(checkpoints)
        return tally(members, k, checkpoints, bound)

    monkeypatch.setattr(stats, "tally", counted)
    checkpoints = stats.default_checkpoints(10**6, 30000)
    cli._summarize(
        catalog.curve("11a1"), surveys_11a1.items(), checkpoints, 10**6, 30000
    )
    assert len(grids) == 2
    want = sorted({*checkpoints, 10**5, 10**6})
    for grid in grids:
        assert grid.dtype == np.int64 and grid.tolist() == want


def test_survey_leaves_numpy_ma_unimported(tmp_path):
    # np.union1d and a plain np.unique import numpy.ma on their first call,
    # which costs a survey's peak RSS; the summary path calls neither
    probe = (
        "import sys\n"
        "from twistsurvey import cli\n"
        "assert cli.main(['survey', '--curve', '11a1', '--bound', '300000',"
        " '--step', '30000', '--out', 'out']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    got = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "False"


@pytest.fixture(scope="module")
def survey_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("survey")
    code = run([
        "survey", "--curve", "17a1", "--bound", "150000",
        "--classes", "3,7", "--out", str(out),
    ])
    assert code == 0
    return out


def test_survey_class_csv_schema(survey_dir):
    lines = (survey_dir / "17a1_class3.csv").read_text().splitlines()
    assert lines[0] == "# schema_version 1"
    assert lines[1] == "# curve 17a1"
    assert lines[2] == "# n0 3"
    assert lines[3] == "# bound 150000"
    assert lines[4] == "n,a_n,k,selmer,L"
    rows = [line.split(",") for line in lines[5:]]
    assert len(rows) > 1000
    prev = 0
    for n, a, k, selmer, l in rows:
        n, a, k, selmer = int(n), int(a), int(k), int(selmer)
        assert n > prev and n % 68 == 3
        prev = n
        if a == 0:
            assert k == 0 and selmer == 0 and l == ""
        else:
            assert selmer == 2 * k
            r = math.isqrt(k)
            assert r * r == k
            assert float(l) > 0


def test_survey_summary_schema(survey_dir):
    doc = json.loads((survey_dir / "17a1_summary.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["curve"] == "17a1"
    assert doc["bound"] == 150000
    assert doc["checkpoint_step"] == 50000
    assert set(doc["classes"]) == {"3", "7"}
    cls = doc["classes"]["3"]
    assert cls["n0_effective"] == 3
    assert cls["members"] > 1000
    assert set(cls["fits"]) == set(cls["table_rows"])
    assert "0" in cls["fits"] and "1" in cls["fits"]
    fit1 = cls["fits"]["1"]
    assert 0 < fit1["alpha"] < 1
    assert abs(fit1["epsilon"]) <= 0.02
    assert not fit1["degenerate"]
    rows = cls["table_rows"]["1"]
    assert [r[0] for r in rows] == [100000]
    m, x, ratio, model = rows[0]
    assert 0 < ratio < 1 and 0 < model < 1


def test_fit_command_roundtrip(survey_dir, capsys):
    code = run([
        "fit", "--survey-csv", str(survey_dir / "17a1_class3.csv"), "--k", "1",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["curve"] == "17a1" and doc["n0"] == 3 and doc["k"] == 1
    assert 0 < doc["alpha"] < 1
    assert doc["schema_version"] == 1


def test_fit_rejects_bound_beyond_survey(survey_dir, capsys):
    csv = str(survey_dir / "17a1_class3.csv")
    assert run(["fit", "--survey-csv", csv, "--k", "1", "--bound", "300000",
                "--step", "50000"]) == 2
    err = capsys.readouterr().err
    assert "300000" in err and "150000" in err, err
    # a bound inside the surveyed range still fits
    assert run(["fit", "--survey-csv", csv, "--k", "1", "--bound", "100000"]) == 0
    # a zero bound is a bound below the first checkpoint, not a missing one
    for bound in ("0", "-5"):
        capsys.readouterr()
        assert run(["fit", "--survey-csv", csv, "--k", "1",
                    "--bound", bound]) == 2
        assert "bound below first checkpoint" in capsys.readouterr().err


def test_fit_matches_survey_summary(survey_dir, tmp_path, capsys):
    # fit, plot-data and the summary share one count and fit rule
    csv = str(survey_dir / "17a1_class3.csv")
    fits = json.loads(
        (survey_dir / "17a1_summary.json").read_text()
    )["classes"]["3"]["fits"]
    keys = ("alpha", "epsilon", "residual", "degenerate")
    for k, want in fits.items():
        assert run(["fit", "--survey-csv", csv, "--k", k]) == 0
        got = json.loads(capsys.readouterr().out)
        assert {key: got[key] for key in keys} == want, k
    # a k no member has is a degenerate fit, not an error
    assert run(["fit", "--survey-csv", csv, "--k", "2"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert (got["alpha"], got["epsilon"], got["degenerate"]) == (0.0, 0.0, True)

    live = [k for k, fr in fits.items() if not fr["degenerate"]]
    assert len(live) > 3
    for k in live:
        out = tmp_path / f"k{k}.dat"
        assert run(["plot-data", "--curve", "17a1", "--n0", "3", "--k", k,
                    "--bound", "150000", "--out", str(out)]) == 0
        rows = [line.split() for line in out.read_text().splitlines()[5:]]
        assert rows
        for x, _, model in rows:
            want = stats.sigma(int(x), fits[k]["alpha"], fits[k]["epsilon"])
            assert model == f"{want:.12g}", (k, x)


def test_plot_data_columns(tmp_path):
    out = tmp_path / "pd.dat"
    code = run([
        "plot-data", "--curve", "17a1", "--n0", "3", "--k", "1",
        "--bound", "150000", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[4] == "x ratio sigma"
    data = [line.split() for line in lines[5:]]
    assert len(data) == 3  # checkpoints at 50000, 100000, 150000
    for x, ratio, model in data:
        assert int(x) >= 16
        assert 0 < float(ratio) < 1
        assert 0 < float(model) < 1


def test_plot_data_empty_combination(tmp_path):
    # k = 2 is not a square, so no member ever lands there
    out = tmp_path / "empty.dat"
    code = run([
        "plot-data", "--curve", "17a1", "--n0", "3", "--k", "2",
        "--bound", "100000", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[-1] == "x ratio sigma"


def test_plot_data_bound_below_class_rep(tmp_path):
    # class 37 of 11a1 has no member <= 20: its rows are empty, and the
    # run writes the header with no checkpoint rows
    out = tmp_path / "low.dat"
    code = run([
        "plot-data", "--curve", "11a1", "--n0", "37", "--k", "1",
        "--bound", "20", "--step", "10", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().splitlines()[-1] == "x ratio sigma"


def test_tables_smoke(capsys):
    code = run([
        "tables", "--curve", "17a1", "--bound", "150000", "--classes", "3",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "fitted alpha by class and k" in text
    assert "17a1 n0=3 k=1" in text
    assert "ratio" in text and "sigma" in text


def assert_tables_match_summary(lines, doc, label, reps):
    """tables stdout shows the alpha, eps, ratio and sigma of the summary."""
    kcols = lines[1].split()[1:]
    blocks = []
    for line, rep in zip(lines[2:2 + len(reps)], reps):
        cls = doc["classes"][rep]
        fits = cls["fits"]
        assert line.split() == [rep] + [
            f"{fits[k]['alpha']:.6f}" if k in fits else "-" for k in kcols
        ]
        for k in sorted(fits, key=int):
            if fits[k]["degenerate"]:
                continue
            blocks.append(
                f"{label} n0={rep} k={k} alpha={fits[k]['alpha']:.6f} "
                f"eps={fits[k]['epsilon']:+.3f}"
            )
            blocks += [
                f"{m:10d}{ratio:12.6f}{model:12.6f}"
                for m, _, ratio, model in cls["table_rows"][k]
            ]
    shown = [
        line for line in lines[2 + len(reps):] if line and line.split()[0] != "M"
    ]
    assert len(blocks) > 4
    assert shown == blocks


def test_tables_match_survey_summary(survey_dir, tmp_path, capsys):
    # same config as the survey fixture: both commands must print one rule
    code = run([
        "tables", "--curve", "17a1", "--bound", "150000", "--classes", "3,7",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    doc = json.loads((survey_dir / "17a1_summary.json").read_text())
    assert_tables_match_summary(lines, doc, "17a1", ("3", "7"))

    # a config whose overrides file scales class 3's anchor order by 4
    ov = tmp_path / "anchor.ov"
    ov.write_text("11a1.3.k0 = 4\n")
    cfg = tmp_path / "tables.cfg"
    cfg.write_text(
        f"curve = 11a1\nbound = 200000\nclasses = 3\noverrides = {ov}\n"
    )
    out = tmp_path / "survey"
    assert run(["survey", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["tables", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    doc = json.loads((out / "11a1_summary.json").read_text())
    fits = doc["classes"]["3"]["fits"]
    assert "4" in fits and "16" in fits and "1" not in fits
    assert_tables_match_summary(lines, doc, "11a1", ("3",))


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "survey.cfg"
    cfg.write_text(
        "curve = 17a1\nbound = 100000\nclasses = 3\n"
        "# comment\ncheckpoint_step = 50000\n"
    )
    out = tmp_path / "out"
    code = run([
        "survey", "--config", str(cfg), "--bound", "150000", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "17a1_summary.json").read_text())
    assert doc["bound"] == 150000  # flag beats config file
    assert set(doc["classes"]) == {"3"}


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("curve = 17a1\nrank = 2\n")
    assert run(["survey", "--config", str(cfg)]) == 2


def test_exit_codes_config_errors(tmp_path):
    assert run(["expand", "--curve", "37a1", "--bound", "10",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["survey", "--curve", "17a1", "--bound", "100000",
                "--classes", "4", "--out", str(tmp_path)]) == 2
    assert run(["survey", "--bound", "100000"]) == 2  # curve is required
    assert run(["nonsense"]) == 2
    # a repeated class would be surveyed, written and tabulated twice
    assert run(["survey", "--curve", "17a1", "--bound", "100000",
                "--classes", "3,3", "--out", str(tmp_path)]) == 2
    assert run(["tables", "--curve", "17a1", "--bound", "100000",
                "--classes", "3,3"]) == 2
    # every command that takes --threads checks it the same way
    for argv in (["expand", "--curve", "17a1", "--bound", "10",
                  "--out", str(tmp_path / "x.csv")],
                 ["survey", "--curve", "17a1", "--bound", "100000",
                  "--out", str(tmp_path)],
                 ["tables", "--curve", "17a1", "--bound", "100000"]):
        assert run(argv + ["--threads", "banana"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_malformed_overrides_exit_2(tmp_path, capsys):
    ov = tmp_path / "garbage.ov"
    ov.write_text("garbage line\n")
    assert run(["survey", "--curve", "17a1", "--bound", "100000",
                "--classes", "3", "--out", str(tmp_path),
                "--overrides", str(ov)]) == 2
    assert "override line 1" in capsys.readouterr().err
    ov.write_text("# anchors\n11a1.3.k0 = 4.5\n")
    assert run(["verify", "--curve", "11a1", "--depth", "quick",
                "--overrides", str(ov), "--out", str(tmp_path / "r.json")]) == 2
    assert "override line 2" in capsys.readouterr().err


_CONFIG_KEYS = sorted(cli._CONFIG_PARSERS) + ["epsilon_grid_step", "rank"]
_OVERRIDE_FIELDS = ["k0", "selmer_n0", "l_n0", "a_n0", "rank"]
_line_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                     max_size=12)
_config_lines = st.one_of(
    _line_text,
    st.builds("{} = {}".format, st.sampled_from(_CONFIG_KEYS), _line_text),
)
_override_lines = st.one_of(
    _line_text,
    st.builds(
        "{}.{}.{} = {}".format,
        st.sampled_from(list(catalog.LABELS) + ["37a1"]),
        st.one_of(st.integers(-5, 130).map(str), _line_text),
        st.sampled_from(_OVERRIDE_FIELDS),
        st.one_of(st.integers().map(str), st.floats().map(str), _line_text),
    ),
)


@given(st.lists(_config_lines, max_size=6), st.lists(_override_lines, max_size=6))
@settings(max_examples=300, deadline=None)
def test_config_and_override_parsers_fail_only_with_domain_error(cfg, ov):
    for parse, lines in ((cli.parse_config, cfg), (catalog.parse_overrides, ov)):
        try:
            parse("\n".join(lines))
        except DomainError:
            pass


@pytest.mark.parametrize("field", ["selmer_n0", "bsd_local_factor"])
def test_derived_anchor_values_are_not_override_fields(tmp_path, capsys, field):
    # t * k0 and the parity constant follow from the frozen facts; a line
    # naming either would set a value the survey never reads
    ov = tmp_path / "derived.ov"
    ov.write_text(f"# anchors\n17a1.3.{field} = 8\n")
    assert run(["survey", "--curve", "17a1", "--bound", "100000",
                "--classes", "3", "--out", str(tmp_path / "out"),
                "--overrides", str(ov)]) == 2
    assert f"override line 2: unknown field {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_key_exits_2_naming_the_line(tmp_path, capsys):
    cfg = tmp_path / "survey.cfg"
    cfg.write_text("curve = 17a1\nbound = 100000\n\nbound = 200000\n")
    assert run(["survey", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 2
    assert "config line 4: repeated key 'bound'" in capsys.readouterr().err
    ov = tmp_path / "twice.ov"
    ov.write_text("17a1.3.k0 = 4\n17a1.3.l_n0 = 3.0\n17a1.3.k0 = 9\n")
    assert run(["survey", "--curve", "17a1", "--bound", "100000",
                "--classes", "3", "--out", str(tmp_path / "out"),
                "--overrides", str(ov)]) == 2
    assert "override line 3: repeated 17a1.3.k0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_of_range_override_exits_2_writing_nothing(tmp_path, capsys):
    # a_n0 = 0 once surveyed L = inf on every row of the class
    ov = tmp_path / "zero.ov"
    ov.write_text("# anchors\n17a1.3.a_n0 = 0\n")
    assert run(["survey", "--curve", "17a1", "--bound", "100000",
                "--classes", "3", "--out", str(tmp_path / "out"),
                "--overrides", str(ov)]) == 2
    assert "override line 2: a_n0 out of range" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_k0_override_scales_the_class(survey_dir, tmp_path):
    # the transfer carries k0: a fourfold k0 gives fourfold k and selmer
    # on every member and leaves a_n and L as they were
    ov = tmp_path / "k0.ov"
    ov.write_text("17a1.3.k0 = 4\n")
    out = tmp_path / "out"
    assert run(["survey", "--curve", "17a1", "--bound", "150000",
                "--classes", "3,7", "--out", str(out),
                "--overrides", str(ov)]) == 0

    def rows(path):
        lines = path.read_text().splitlines()
        head = lines.index(cli.CSV_HEADER)
        return [line.split(",") for line in lines[head + 1:]]

    base, scaled = (rows(d / "17a1_class3.csv") for d in (survey_dir, out))
    assert len(base) == len(scaled) > 1000
    assert any(row[2] != "0" for row in base)
    for (n, a, k, selmer, l), got in zip(base, scaled):
        assert got == [n, a, str(4 * int(k)), str(4 * int(selmer)), l]
    other = "17a1_class7.csv"
    assert (out / other).read_bytes() == (survey_dir / other).read_bytes()


def test_survey_aborts_on_forged_baseline(tmp_path):
    ov = tmp_path / "forged.cfg"
    ov.write_text("17a1.3.k0 = 3\n")
    code = run([
        "survey", "--curve", "17a1", "--bound", "100000", "--classes", "3",
        "--out", str(tmp_path), "--overrides", str(ov),
    ])
    assert code == 4


def test_verify_quick_clean(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--curve", "17a1", "--depth", "quick",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["depth"] == "quick"
    names = {s["name"] for s in doc["suites"]}
    assert "theta_reference" in names
    assert "cassels" in names
    assert "baseline_reproduction" in names
    assert all(s["passed"] for s in doc["suites"])


def test_verify_catches_square_consistent_forgery(tmp_path):
    # k0 = 4 keeps every transferred order a perfect square, so only the
    # from-scratch baseline re-derivation can notice
    ov = tmp_path / "forged.cfg"
    ov.write_text("17a1.3.k0 = 4\n")
    out = tmp_path / "report.json"
    code = run(["verify", "--curve", "17a1", "--depth", "quick",
                "--overrides", str(ov), "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    bad = {s["name"]: s for s in doc["suites"]}["baseline_reproduction"]
    assert not bad["passed"]
    assert bad["failures"]


def test_waldspurger_pairs_checks_the_production_transfer(monkeypatch):
    # a transfer off by 1e-4 relative must show against the direct series;
    # the suite forms L at its picks with propagate_l, the transfer that
    # ClassSurvey.l_rows writes to the class CSV, so the skew is put there
    spec = catalog.curve("17a1")
    surveys = {"17a1": cli.survey_curve(spec, 20000)}
    tables = cli.weight_two_tables(surveys, 3, {"17a1": ()})
    assert cli.run_waldspurger_suite(surveys, 3, tables) == []
    real = waldspurger.propagate_l
    assert cli.propagate_l is real

    def skewed(n, a_n, baseline):
        return real(n, a_n, baseline) * (1 + 1e-4)

    monkeypatch.setattr(cli, "propagate_l", skewed)
    failures = cli.run_waldspurger_suite(surveys, 3, tables)
    assert len(failures) == 3 * len(catalog.curve("17a1").class_reps)
    assert all(f.startswith("waldspurger 17a1/") for f in failures)


def test_verify_quick_checks_k_by_bsd(tmp_path, monkeypatch):
    # c_p = 4 read as 1 for p > 1000 multiplies k by 4 at the members it
    # touches, so k stays an integral square and the L column is
    # untouched; only the BSD assembly of the direct L(1) sees it
    real = waldspurger.tamagawa_exponents

    def forged(spec, ps, table):
        e = real(spec, ps, table).copy()
        e[(ps > 1000) & (e == 2)] = 0
        return e

    monkeypatch.setattr(waldspurger, "tamagawa_exponents", forged)
    out = tmp_path / "report.json"
    assert run(["verify", "--curve", "34a1", "--out", str(out)]) == 3
    suites = {s["name"]: s for s in json.loads(out.read_text())["suites"]}
    assert suites["waldspurger_pairs"]["failures"] == [
        "waldspurger 34a1/117 n=1069: k 36 vs BSD 9"
    ]
    assert all(s["passed"] for name, s in suites.items()
               if name != "waldspurger_pairs")


def test_propagation_suite_checks_the_worked_example(monkeypatch):
    assert cli.run_propagation_suite() == []
    monkeypatch.setattr(cli, "_BIG_A", -127)
    assert cli.run_propagation_suite() == [
        "propagation 11a1: a(8090677) = -128 != -127"
    ]


def test_propagation_suite_reads_the_overrides():
    # 8090677 lies in 11a1's class 1, so its L-value moves with that anchor
    overrides = catalog.parse_overrides("11a1.1.l_n0 = 1.5\n")
    failures = cli.run_propagation_suite(overrides)
    assert len(failures) == 1
    assert failures[0].startswith("propagation 11a1 n=8090677: ")
    assert failures[0].endswith(f" != {cli._BIG_L!r}")


@pytest.mark.parametrize("label, runs", [("20a1", False), ("11a1", True)])
def test_extended_verify_runs_propagation_only_for_11a1(tmp_path, monkeypatch,
                                                        label, runs):
    # the suite's one check is an 11a1 anchor; for another curve it would
    # make no check and so is not reported at all
    for name in ("run_theta_suite", "run_cassels_suite",
                 "run_waldspurger_suite", "run_zero_suite",
                 "run_baseline_suite", "run_propagation_suite"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: [])
    out = tmp_path / "report.json"
    assert run(["verify", "--curve", label, "--depth", "extended",
                "--out", str(out)]) == 0
    names = [s["name"] for s in json.loads(out.read_text())["suites"]]
    assert ("propagation" in names) == runs
    assert len(names) == 5 + runs


@pytest.mark.parametrize("suite, prefix", [
    ("run_waldspurger_suite", "waldspurger"), ("run_zero_suite", "zero"),
])
def test_survey_reading_suites_record_an_abort(monkeypatch, suite, prefix):
    # a frozen anchor with k0 = 2 makes 17a1's survey raise
    # CasselsViolationError; cassels records it once and leaves 17a1 out of
    # the surveys, so the reading suite runs, adds nothing of 17a1, and
    # still checks the curve whose survey went through
    row = catalog._BASELINE_ROWS["17a1"][3]
    monkeypatch.setitem(catalog._BASELINE_ROWS["17a1"], 3, row[:3] + (2, row[4]))
    surveys = {}
    aborts = cli.run_cassels_suite(("17a1", "11a1"), 20000, None, surveys)
    assert len(aborts) == 1 and aborts[0].startswith("cassels 17a1: ")
    assert list(surveys) == ["11a1"]
    tables = cli.weight_two_tables(surveys, 3, {"11a1": ()})
    args = (surveys, 3) if prefix == "waldspurger" else (surveys,)
    assert getattr(cli, suite)(*args, tables) == []
    # the surviving curve is still read: a skewed anchor L-value, which
    # the L column is computed from, or no k = 0 row left, shows on it
    per_class = surveys["11a1"]
    for rep, surv in per_class.items():
        if prefix == "waldspurger":
            base = dataclasses.replace(surv.base, l_n0=surv.base.l_n0 * 1.0001)
            per_class[rep] = dataclasses.replace(surv, base=base)
        else:
            surv.k[surv.k == 0] = 1
    failures = getattr(cli, suite)(*args, tables)
    assert failures and all(f.startswith(f"{prefix} 11a1") for f in failures)


def test_survey_abort_is_one_cassels_failure(tmp_path, monkeypatch):
    # a frozen anchor with k0 = 2 makes survey_curve raise
    # CasselsViolationError; cassels records it once instead of aborting
    # verify, and the suites that read the survey check nothing of 17a1
    row = catalog._BASELINE_ROWS["17a1"][3]
    monkeypatch.setitem(catalog._BASELINE_ROWS["17a1"], 3, row[:3] + (2, row[4]))
    out = tmp_path / "report.json"
    assert run(["verify", "--curve", "17a1", "--depth", "quick",
                "--out", str(out)]) == 3
    suites = {s["name"]: s for s in json.loads(out.read_text())["suites"]}
    failures = suites["cassels"]["failures"]
    assert len(failures) == 1 and failures[0].startswith("cassels 17a1: ")
    assert suites["waldspurger_pairs"]["failures"] == []
    assert suites["zero_consistency"]["failures"] == []
    # the re-derived anchor still names the forged field
    assert [f.split(" oracle")[0] for f in
            suites["baseline_reproduction"]["failures"]] == [
        "baseline 17a1/3: k0"
    ]


def test_verify_surveys_each_curve_once_under_the_overrides(tmp_path,
                                                          monkeypatch):
    calls = []
    real = cli.survey_curve

    def counted(spec, bound, reps=None, overrides=None):
        calls.append((spec.label, bound, reps, overrides))
        return real(spec, bound, reps, overrides)

    monkeypatch.setattr(cli, "survey_curve", counted)
    # the frozen value itself: every suite still passes
    l_n0 = catalog.baseline(catalog.curve("17a1"), 3).l_n0
    ov = tmp_path / "same.ov"
    ov.write_text(f"17a1.3.l_n0 = {l_n0!r}\n")
    assert run(["verify", "--curve", "17a1", "--depth", "quick",
                "--overrides", str(ov),
                "--out", str(tmp_path / "report.json")]) == 0
    assert calls == [("17a1", 10 ** 5, None, {("17a1", 3, "l_n0"): l_n0})]


@pytest.mark.parametrize("label", catalog.LABELS)
def test_survey_sieves_primes_no_further_than_the_root_of_its_bound(
        monkeypatch, label):
    # the Tamagawa rows once sieved every prime to the bound itself; the
    # class rows need only the primes up to its square root
    asked = []
    real = sieve.primes_upto

    def recorded(bound):
        asked.append(bound)
        return real(bound)

    monkeypatch.setattr(sieve, "primes_upto", recorded)
    monkeypatch.setattr(waldspurger, "primes_upto", recorded)
    cli.survey_curve(catalog.curve(label), 10 ** 5)
    assert asked and max(asked) <= math.isqrt(10 ** 5), asked


def test_verify_quick_catches_forged_l_value_override(tmp_path):
    # quick verify does not re-derive 34a1's class 53; a forged L-value
    # override there shows through the transfer against the series
    ov = tmp_path / "forged.ov"
    ov.write_text("34a1.53.l_n0 = 2.75\n")
    out = tmp_path / "report.json"
    assert run(["verify", "--curve", "34a1", "--depth", "quick",
                "--overrides", str(ov), "--out", str(out)]) == 3
    suites = {s["name"]: s for s in json.loads(out.read_text())["suites"]}
    failed = sorted(name for name, s in suites.items() if not s["passed"])
    assert failed == ["waldspurger_pairs"]
    assert all(
        f.startswith("waldspurger 34a1/53 ")
        for f in suites["waldspurger_pairs"]["failures"]
    )


def test_verify_quick_rederives_the_first_two_anchors(tmp_path):
    ov = tmp_path / "forged.ov"
    ov.write_text("34a1.13.l_n0 = 2.0\n")
    out = tmp_path / "report.json"
    assert run(["verify", "--curve", "34a1", "--depth", "quick",
                "--overrides", str(ov), "--out", str(out)]) == 3
    suites = {s["name"]: s for s in json.loads(out.read_text())["suites"]}
    failures = suites["baseline_reproduction"]["failures"]
    assert any(f.startswith("baseline 34a1/13: l_n0 ") for f in failures)


def test_verify_quick_catches_forged_catalogue_l_value(tmp_path, monkeypatch):
    # quick verify re-derives only classes 1 and 13 of 34a1; a wrong frozen
    # L-value on class 53 shows only through the transfer against the series
    row = catalog._BASELINE_ROWS["34a1"][53]
    monkeypatch.setitem(
        catalog._BASELINE_ROWS["34a1"], 53, row[:4] + (row[4] * 1.001,)
    )
    out = tmp_path / "report.json"
    code = run(["verify", "--curve", "34a1", "--depth", "quick",
                "--out", str(out)])
    assert code == 3
    suites = {s["name"]: s for s in json.loads(out.read_text())["suites"]}
    failed = sorted(name for name, s in suites.items() if not s["passed"])
    assert failed == ["waldspurger_pairs"]
    assert all(
        f.startswith("waldspurger 34a1/53 ")
        for f in suites["waldspurger_pairs"]["failures"]
    )


@pytest.mark.parametrize("argv, labels", [
    (["--depth", "quick"], catalog.LABELS),
    (["--curve", "20a1", "--depth", "extended"], ("20a1",)),
], ids=["quick", "extended-20a1"])
def test_verify_builds_one_table_per_curve(tmp_path, monkeypatch, argv,
                                           labels):
    # waldspurger_pairs, zero_consistency and baseline_reproduction read
    # one weight-two table per curve, whatever the number of anchors and
    # picks; each expand_b call, however imported, makes one
    # WeightTwoCoefficients
    built = []
    real = bsd_oracle.WeightTwoCoefficients

    def counted(bound, b):
        built.append(bound)
        return real(bound, b)

    monkeypatch.setattr(bsd_oracle, "WeightTwoCoefficients", counted)
    assert run(["verify", *argv, "--out", str(tmp_path / "report.json")]) == 0
    assert len(built) == len(labels)


def test_baseline_table_too_short_for_the_oracle_anchor_fails(monkeypatch):
    # the table is sized from the frozen n0_effective; a frozen 23 where
    # the oracle derives 79 leaves it short, which fails, never passes
    row = catalog._BASELINE_ROWS["14a1"][23]
    assert row[0] == 79
    monkeypatch.setitem(catalog._BASELINE_ROWS["14a1"], 23, (23,) + row[1:])
    reps = {"14a1": (23,)}
    tables = cli.weight_two_tables({}, 0, reps)
    assert cli.run_baseline_suite(reps, tables) == [
        "baseline 14a1/23: need coefficients to 1509, have 484"
    ]


# one forged value per anchor field, on classes that quick verify
# re-derives; c_n0 = 4 keeps every transferred k a square, and the
# n0_effective and l_n0 forgeries only rescale the class's L column
_FORGED_FIELDS = {
    "n0_effective": ("11a1", "47"),
    "a_n0": ("17a1", "-2"),
    "c_n0": ("11a1", "4"),
    "k0": ("17a1", "4"),
    "l_n0": ("17a1", "3.0"),
}


@pytest.mark.parametrize("field", sorted(catalog._OVERRIDE_TYPES))
def test_verify_catches_each_forged_anchor_field(tmp_path, field):
    label, value = _FORGED_FIELDS[field]
    ov = tmp_path / "forged.cfg"
    ov.write_text(f"{label}.3.{field} = {value}\n")
    out = tmp_path / "report.json"
    code = run(["verify", "--curve", label, "--depth", "quick",
                "--overrides", str(ov), "--out", str(out)])
    assert code == 3
    suites = {s["name"]: s for s in json.loads(out.read_text())["suites"]}
    failures = suites["baseline_reproduction"]["failures"]
    head = f"baseline {label}/3: {field} oracle "
    tail = f" != catalog {catalog._OVERRIDE_TYPES[field](value)!r}"
    assert any(f.startswith(head) and f.endswith(tail) for f in failures), (
        failures
    )


@pytest.mark.parametrize("command", ["fit", "plot-data"])
def test_zero_checkpoint_step_exits_2(survey_dir, tmp_path, capsys, command):
    if command == "fit":
        argv = ["fit", "--survey-csv", str(survey_dir / "17a1_class3.csv"),
                "--k", "1"]
    else:
        argv = ["plot-data", "--curve", "17a1", "--n0", "3", "--k", "1",
                "--bound", "150000", "--out", str(tmp_path / "p.dat")]
    assert run(argv + ["--step", "0"]) == 2
    assert "checkpoint step must be positive" in capsys.readouterr().err
    assert not (tmp_path / "p.dat").exists()


@pytest.mark.parametrize("command", ["survey", "tables"])
def test_survey_grid_checked_before_any_work(tmp_path, capsys, monkeypatch,
                                             command):
    # the checkpoint grid is checked once, by stats.default_checkpoints,
    # before the output directory is made and before the survey
    def no_survey(*args, **kwargs):
        raise AssertionError("surveyed before checking the checkpoint grid")

    monkeypatch.setattr(cli, "survey_classes", no_survey)
    argv = [command, "--curve", "17a1"]
    if command == "survey":
        argv += ["--out", str(tmp_path / "out")]
    assert run(argv + ["--bound", "100000", "--step", "0"]) == 2
    assert "checkpoint step must be positive" in capsys.readouterr().err
    assert run(argv + ["--bound", "1000"]) == 2
    assert "bound below first checkpoint" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_negative_k_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    # k is refused before the survey, the costly step, and before any read
    def no_survey(*args, **kwargs):
        raise AssertionError("surveyed before checking k")

    monkeypatch.setattr(cli, "survey_curve", no_survey)
    assert run(["plot-data", "--curve", "17a1", "--n0", "3", "--k", "-1",
                "--bound", "150000", "--out", str(tmp_path / "p.dat")]) == 2
    assert "k must be nonnegative" in capsys.readouterr().err
    # fit refuses k before it opens the CSV
    assert run(["fit", "--survey-csv", str(tmp_path / "missing.csv"),
                "--k", "-1"]) == 2
    assert "k must be nonnegative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k0", [2 ** 52, 2 ** 60])
def test_oversized_anchor_exits_cleanly(tmp_path, capsys, k0):
    # k0 = 2^60 once wrapped around in int64 and surveyed k = 0 everywhere
    ov = tmp_path / "big.ov"
    ov.write_text(f"17a1.3.k0 = {k0}\n")
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        f"curve = 17a1\nbound = 100000\nclasses = 3\noverrides = {ov}\n"
    )
    assert run(["survey", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    assert run(["tables", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.count("abort:") == 2
    out = tmp_path / "report.json"
    code = run(["verify", "--curve", "17a1", "--depth", "quick",
                "--overrides", str(ov), "--out", str(out)])
    assert code == 3
    suites = {s["name"]: s for s in json.loads(out.read_text())["suites"]}
    assert suites["cassels"]["failures"][0].startswith("cassels 17a1:")


def _bad_csv(lines, case):
    """Put one defect into a class CSV.  Returns the lines and the index
    of the line the reader must name."""
    lines = list(lines)
    h = lines.index(cli.CSV_HEADER)
    r = h + 4  # a data row inside the file
    if case == "foreign_line_before_header":
        lines.insert(h, "foo,bar")
        return lines, h
    if case == "foreign_row":
        lines.insert(r, "foo,bar")
        return lines, r
    if case == "short_row":
        lines[r] = ",".join(lines[r].split(",")[:3])
        return lines, r
    if case == "non_integer_n":
        lines[r] = "x" + lines[r]
        return lines, r
    if case == "non_integer_k":
        fields = lines[r].split(",")
        fields[2] = "1.5"
        lines[r] = ",".join(fields)
        return lines, r
    if case == "duplicate_n":
        lines.insert(r, lines[r])
        return lines, r + 1
    if case == "descending_n":
        lines[r], lines[r + 1] = lines[r + 1], lines[r]
        return lines, r + 1
    if case == "schema_version_2":
        lines[0] = "# schema_version 2"
        return lines, h
    if case == "non_integer_bound":
        b = lines.index("# bound 150000")
        lines[b] = "# bound 1e5"
        return lines, b
    if case == "row_above_bound":
        # the survey reached 150000; rows past a smaller '# bound' were
        # once left out of the counts without a word
        b = lines.index("# bound 150000")
        lines[b] = "# bound 100000"
        above = next(i for i in range(h + 1, len(lines))
                     if int(lines[i].split(",")[0]) > 100000)
        return lines, above
    if case == "metadata_after_header":
        # a trailing '# bound' once replaced the one read before the
        # header, and fit then dropped every row above it and exited 0
        lines.append("# bound 100000")
        return lines, len(lines) - 1
    if case == "repeated_key":
        # the last '# bound' once won, so fit counted over a range the
        # survey never reached
        b = lines.index("# bound 150000")
        lines.insert(b + 1, "# bound 300000")
        return lines, b + 1
    if case in ("zero_n", "negative_n"):
        # the first row's n, below every later n; once counted as a member
        fields = lines[h + 1].split(",")
        fields[0] = "0" if case == "zero_n" else "-65"
        lines[h + 1] = ",".join(fields)
        return lines, h + 1
    if case == "no_schema_version":
        del lines[0]
        return lines, h - 1
    assert case == "no_header"
    del lines[h]
    return lines, h


@pytest.mark.parametrize("case", [
    "foreign_line_before_header",
    "foreign_row",
    "short_row",
    "non_integer_n",
    "non_integer_k",
    "duplicate_n",
    "descending_n",
    "schema_version_2",
    "non_integer_bound",
    "row_above_bound",
    "metadata_after_header",
    "repeated_key",
    "zero_n",
    "negative_n",
    "no_schema_version",
    "no_header",
])
def test_fit_rejects_malformed_csv(survey_dir, tmp_path, capsys, case):
    good = (survey_dir / "17a1_class3.csv").read_text().splitlines()
    lines, named = _bad_csv(good, case)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["fit", "--survey-csv", str(bad), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} line {named + 1}: "), err


@pytest.mark.parametrize("flags", [
    {"alpha": 0.25}, {"epsilon": -0.015}, {"alpha": 0.25, "epsilon": -0.015},
], ids=["alpha", "epsilon", "both"])
def test_plot_data_flags_replace_only_their_own_value(survey_dir, tmp_path,
                                                      flags):
    # --epsilon alone once changed nothing, and --alpha alone paired with
    # eps = 0 instead of the fitted eps
    fitted = json.loads(
        (survey_dir / "17a1_summary.json").read_text()
    )["classes"]["3"]["fits"]["1"]
    assert fitted["alpha"] != 0.25 and fitted["epsilon"] not in (0, -0.015)
    alpha = flags.get("alpha", fitted["alpha"])
    eps = flags.get("epsilon", fitted["epsilon"])
    argv = ["plot-data", "--curve", "17a1", "--n0", "3", "--k", "1",
            "--bound", "150000", "--out"]
    assert run(argv + [str(tmp_path / "fitted.dat")]) == 0
    extra = [arg for key, val in flags.items() for arg in (f"--{key}", str(val))]
    assert run(argv + [str(tmp_path / "flags.dat")] + extra) == 0
    fitted_lines = (tmp_path / "fitted.dat").read_text().splitlines()
    lines = (tmp_path / "flags.dat").read_text().splitlines()
    assert lines[:5] == fitted_lines[:5] and len(lines) == len(fitted_lines) == 8
    for line, fitted_line in zip(lines[5:], fitted_lines[5:]):
        x, ratio, model = line.split()
        assert [x, ratio] == fitted_line.split()[:2]
        assert model == f"{stats.sigma(int(x), alpha, eps):.12g}", line
        assert line != fitted_line


def test_survey_that_cannot_be_fitted_writes_nothing(tmp_path, capsys):
    # two checkpoints of 200 hold too few members to fit; the class CSVs
    # used to be written before the summary failed
    assert run(["survey", "--curve", "11a1", "--bound", "400", "--step", "200",
                "--out", str(tmp_path)]) == 2
    assert "need >= 2 usable checkpoints" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, code", [
    (["--bound", str(10**15)], 2),
    (["--bound", "100000", "--overrides", "k0.ov"], 4),
    (["--bound", "2000000", "--step", "1500000"], 2),
], ids=["refused-bound", "non-square-anchor", "one-checkpoint"])
def test_refused_survey_leaves_no_directory(tmp_path, monkeypatch, flags,
                                            code):
    monkeypatch.chdir(tmp_path)
    Path("k0.ov").write_text("# anchors\n17a1.3.k0 = 2\n")
    assert run(["survey", "--curve", "17a1", "--classes", "3", *flags,
                "--out", "d"]) == code
    assert not Path("d").exists()


@pytest.mark.parametrize("command", ["expand", "survey"])
def test_bound_too_big_for_memory_exits_2(tmp_path, capsys, command):
    # 10^15 coefficients fit in no 64-bit address space, so the first
    # full-length array fails to allocate at once on any machine
    out = tmp_path / "out"
    assert run([command, "--curve", "11a1", "--bound", str(10 ** 15),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert err[len("error: "):].strip(), "no reason given"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize(
    "argv",
    [["survey", "--curve", "11a1"], ["tables", "--curve", "11a1"],
     ["plot-data", "--curve", "11a1", "--n0", "3", "--k", "1"],
     ["expand", "--curve", "11a1", "--out", "an.csv"]],
)
def test_bound_past_the_int32_members_exits_2_before_theta(
    tmp_path, capsys, monkeypatch, argv
):
    # a class member is held as int32, so a bound >= 2^31 is refused
    # before D is built; expand, which reaches D through coefficient_rows,
    # is refused by the same check, as its D (3.5 GB of reached int32 rows
    # there) would be mapped lazily rather than refused
    def no_theta(*args, **kwargs):
        raise AssertionError("theta_difference called")

    monkeypatch.setattr(cli, "theta_difference", no_theta)
    monkeypatch.setattr(qseries, "theta_difference", no_theta)
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--bound", str(2**31)]) == 2
    assert capsys.readouterr().err == (
        f"error: bound {2**31} is not below 2^31\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["survey", "tables", "plot-data", "fit"])
def test_huge_bound_refused_before_the_grid_is_held(
    survey_dir, tmp_path, capsys, monkeypatch, command
):
    # at 10^15 the default grid has 2*10^10 checkpoints (160 GB as a
    # tuple), so each command names the bound it refuses, not a failed
    # allocation, and holds a few MB at most on the way
    huge = str(10**15)
    if command == "fit":
        argv = ["fit", "--survey-csv", str(survey_dir / "17a1_class3.csv"),
                "--k", "1", "--bound", huge]
        want = f"error: checkpoint {huge} exceeds surveyed bound 150000\n"
    else:
        argv = [command, "--curve", "11a1", "--bound", huge]
        argv += ["--n0", "3", "--k", "1"] if command == "plot-data" else []
        want = f"error: bound {huge} is not below 2^31\n"
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        assert run(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == want
    assert peak < 4 * 2**20, peak
    assert list(tmp_path.iterdir()) == []


def test_bare_memory_error_says_out_of_memory(tmp_path, capsys, monkeypatch):
    # an allocation refused inside the interpreter raises MemoryError()
    # with no message; the error line still gives a reason
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "survey_classes", no_memory)
    assert run(["survey", "--curve", "11a1", "--bound", "100000",
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    assert list(tmp_path.iterdir()) == []


def _class_csv_by_loop(surv):
    """A class CSV rendered one row at a time: the reference for the
    chunked writer."""
    text = (f"# schema_version 1\n# curve {surv.base.curve}\n"
            f"# n0 {surv.base.n0}\n"
            f"# bound {surv.bound}\nn,a_n,k,selmer,L\n")
    l = surv.l_rows()
    for i in range(surv.members.size):
        n, a = int(surv.members[i]), int(surv.a[i])
        if a == 0:
            text += f"{n},0,0,0,\n"
        else:
            k = int(surv.k[i])
            text += f"{n},{a},{k},{surv.torsion * k},{float(l[i]):.12g}\n"
    return text.encode()


def test_row_files_identical_across_chunk_sizes(tmp_path, monkeypatch):
    bound = 30000
    spec = catalog.curve("17a1")
    surv = cli.survey_curve(spec, bound, (3,))[3]
    coeffs = naive_recipe_series(
        [(sign, (f.a, f.b, f.c)) for sign, f in spec.recipe.terms],
        spec.recipe.unary_t, bound,
    )
    squarefree = [n for n in range(1, bound + 1) if is_squarefree_trial(n)]
    want_an = "# schema_version 1\nn,a_n\n" + "".join(
        f"{n},{coeffs[n]}\n" for n in squarefree
    )
    # neither file is a whole number of 3-row chunks; expand's blocks are
    # a multiple of the modulus 68, so 100 rows make blocks of 68 values
    assert surv.members.size % 3 and len(squarefree) % 3
    for rows in (1, 3, 100, 65536):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows)
        out = tmp_path / str(rows)
        assert run(["survey", "--curve", "17a1", "--bound", str(bound),
                    "--step", "10000", "--classes", "3",
                    "--out", str(out)]) == 0
        assert run(["expand", "--curve", "17a1", "--bound", str(bound),
                    "--out", str(out / "an.csv")]) == 0
        assert (out / "17a1_class3.csv").read_bytes() == _class_csv_by_loop(surv)
        assert (out / "an.csv").read_bytes() == want_an.encode()


@pytest.mark.parametrize("rows", [1, 3, 65536])
def test_class_csv_l_is_the_whole_column_transfer(tmp_path, monkeypatch, rows):
    # L is formed per written block, never held; each block's values are
    # the whole column's propagate_l, element by element
    bound = 30000
    spec = catalog.curve("17a1")
    surv = cli.survey_curve(spec, bound, (3,))[3]
    nz = surv.a != 0
    want = np.full(surv.members.size, np.nan)
    want[nz] = waldspurger.propagate_l(
        surv.members[nz], surv.a[nz], catalog.baseline(spec, 3)
    )
    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows)
    assert run(["survey", "--curve", "17a1", "--bound", str(bound),
                "--step", "10000", "--classes", "3",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "17a1_class3.csv").read_text().splitlines()
    got = [line.rsplit(",", 1)[1] for line in lines[5:]]
    assert got == ["" if math.isnan(v) else "{:.12g}".format(v)
                   for v in want.tolist()]
    assert np.array_equal(surv.l_rows(), want, equal_nan=True)


@pytest.mark.parametrize("parts", [1, 3, 4096])
def test_json_file_is_the_dumps_text(tmp_path, monkeypatch, capsys,
                                     survey_dir, parts):
    # the file and stdout are streamed from the encoder in chunks of
    # `parts` pieces; the text is json.dumps' with the schema version and
    # a final newline
    doc = json.loads((survey_dir / "17a1_summary.json").read_text())
    del doc["schema_version"]
    monkeypatch.setattr(cli, "_JSON_PARTS", parts)
    path = tmp_path / "doc.json"
    cli._write_json(str(path), doc)
    want = {"schema_version": cli.SCHEMA_VERSION, **doc}
    text = json.dumps(want, indent=1, sort_keys=True) + "\n"
    assert path.read_text() == text
    cli._write_json("", doc)
    assert capsys.readouterr().out == text


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "17a1_class3.csv"
    tmp = tmp_path / "17a1_class3.csv.tmp"
    path.write_text("old\n")
    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 4)
    blocks = []
    real_encode = cli._encode_rows

    def encode(columns):
        blocks.append(columns[0].size)
        if len(blocks) == 2:  # the second chunk
            assert tmp.exists()
            raise RuntimeError("row failed")
        return real_encode(columns)

    monkeypatch.setattr(cli, "_encode_rows", encode)
    with pytest.raises(RuntimeError, match="row failed"):
        run(["survey", "--curve", "17a1", "--bound", "30000", "--step", "10000",
             "--classes", "3", "--out", str(tmp_path)])
    assert blocks == [4, 4]
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def _rows_by_loop(columns):
    """The row encoder's reference, one value at a time: str(int(v)) and
    '{:.12g}', with nan an empty field."""
    def field(v):
        if isinstance(v, float):
            return "" if math.isnan(v) else f"{v:.12g}"
        return str(int(v))

    rows = zip(*(col.tolist() for col in columns))
    return "".join(",".join(map(field, row)) + "\n" for row in rows).encode()


def _ulps(x, steps):
    """x moved by steps floats towards +inf (steps > 0) or -inf."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


_steps = st.integers(-3, 3)
# 10^j itself, a few floats either side; fixed notation runs from 1e-4 to
# below 1e12, so j covers both ends and beyond
_decades = st.builds(
    lambda j, k: _ulps(float(Fraction(10) ** j), k), st.integers(-6, 13), _steps
)
# 12-digit decimal ties (m + 1/2) * 10^-s and their neighbours, at
# exponents 11 - s from -6 to 13; m = 10^12 - 1 rounds up to the next decade
_ties = st.builds(
    lambda m, s, k: _ulps(float(Fraction(2 * m + 1, 2) / Fraction(10) ** s), k),
    st.integers(10**11, 10**12 - 1) | st.just(10**12 - 1),
    st.integers(-2, 17),
    _steps,
)
_float_values = st.one_of(
    _decades,
    _ties,
    st.floats(min_value=0.0, max_value=1e-4),
    st.floats(min_value=1e11),
    st.floats(allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]),
)


@given(st.lists(st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, -1]),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_encode_rows_integers_match_str(values):
    col = np.array(values, dtype=np.int64)
    assert cli._encode_rows([col]) == _rows_by_loop([col])
    small = np.array([v % 2**32 - 2**31 for v in values], dtype=np.int32)
    assert cli._encode_rows([small, col]) == _rows_by_loop([small, col])


@given(st.lists(_float_values, min_size=1, max_size=40))
@settings(max_examples=500, deadline=None)
def test_encode_rows_floats_match_format(values):
    col = np.array(values, dtype=np.float64)
    ns = np.arange(col.size, dtype=np.int64)
    assert cli._encode_rows([ns, col]) == _rows_by_loop([ns, col])


@given(st.lists(st.tuples(st.integers(-300, 300), st.integers(0, 10**4),
                          st.floats(1e-3, 1e3)), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_encode_rows_zero_coefficient_rows(rows):
    """Survey rows as survey_class leaves them: where a_n = 0, k and
    selmer are 0 and L is nan, and the row reads n,0,0,0, ."""
    a = np.array([r[0] for r in rows], dtype=np.int64)
    k = np.where(a == 0, 0, np.array([r[1] for r in rows], dtype=np.int64))
    l = np.where(a == 0, np.nan, np.array([r[2] for r in rows]))
    ns = 3 + 8 * np.arange(a.size, dtype=np.int64)
    got = cli._encode_rows([ns, a, k, 2 * k, l]).decode().splitlines()
    for n, a_n, k_n, l_n, line in zip(ns, a, k, l, got):
        if a_n == 0:
            assert line == f"{n},0,0,0,"
        else:
            assert line == f"{n},{a_n},{k_n},{2 * k_n},{l_n:.12g}"
    assert len(got) == a.size


PACKAGE_DIR = Path(cli.__file__).parent


def calls(source):
    """(enclosing function, name called, call node) of every call in
    source; the name is the bare name or the last attribute."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                called = getattr(f, "id", None) or getattr(f, "attr", None)
                found.append((func, called, child))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(source), None)
    return found


def write_opens(source):
    """(enclosing function, line) of every call that can open a file for
    writing: open / io.open / os.open with any mode that is not a literal
    read-only one, and Path.write_text / write_bytes."""
    found = []
    for func, called, call in calls(source):
        if called in ("write_text", "write_bytes"):
            found.append((func, call.lineno))
        elif called == "open":
            mode = call.args[1] if len(call.args) > 1 else next(
                (kw.value for kw in call.keywords if kw.arg == "mode"), None
            )
            read_only = mode is None or (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and set(mode.value) <= set("rbt")
            )
            if not read_only:
                found.append((func, call.lineno))
    return found


def test_only_write_file_opens_for_writing():
    found = [
        (path.name, func)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for func, _ in write_opens(path.read_text())
    ]
    assert found == [("cli.py", "_write_file")]


def test_only_weight_two_table_builds_a_table():
    # one sizing rule: every weight-two table in the package is built by
    # bsd_oracle.weight_two_table, bare or attribute calls alike
    found = [
        (path.name, func)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for func, called, _ in calls(path.read_text())
        if called == "expand_b"
    ]
    assert found == [("bsd_oracle.py", "weight_two_table")]
    # and one size: terms_needed is called inside bsd_oracle alone
    sizers = {
        path.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for _, called, _ in calls(path.read_text())
        if called == "terms_needed"
    }
    assert sizers == {"bsd_oracle.py"}
    probe = "def f():\n    expand_b(s, 9)\n    bsd_oracle.expand_b(s, 9)\n"
    assert [(func, called) for func, called, _ in calls(probe)] == [
        ("f", "expand_b"), ("f", "expand_b")
    ]


def test_write_open_guard_catches_each_form():
    forms = [
        'open(p, "w")',
        'open(p, "a")',
        'open(p, mode="x")',
        'open(p, "r+")',
        'io.open(p, "wb")',
        "open(p, mode)",
        "os.open(p, os.O_WRONLY)",
        'Path(p).write_text("x")',
        "p.write_bytes(b)",
    ]
    for source in forms:
        assert write_opens(source) == [(None, 1)], source
    nested = 'class C:\n    def f(self):\n        with open(p, "w") as fh:\n'
    assert write_opens(nested + "            pass\n") == [("f", 3)]
    clean = 'open(p)\nopen(p, "r")\nopen(p, "rb")\nopen(p, mode="rt")\n'
    assert write_opens(clean) == []
