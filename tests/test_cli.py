"""Command-line surface: file formats, CSV output, exit codes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surveyrisk import DomainError, ParseError, build_model, bundled_model
from surveyrisk.cli import (
    _parse_named_model,
    build_parser,
    dump_model_text,
    load_model,
    parse_counts_text,
    parse_model_text,
    run,
)

MODEL_TEXT = """\
# a toy model
model toy
renormalize off

group first  : 0.25 0.25
group second : 0.25 0.25   # trailing comment
"""

COUNTS_TEXT = """\
present
2 2
3 3
prior
8 2
"""


def test_parse_model_text():
    m = parse_model_text(MODEL_TEXT)
    assert m.labels == ("first", "second")
    assert m.group_sizes == (2, 2)
    np.testing.assert_array_equal(m.flat(), [0.25, 0.25, 0.25, 0.25])


def test_parse_model_errors_carry_line_numbers():
    bad = MODEL_TEXT.replace("renormalize off", "renormalize maybe")
    with pytest.raises(ParseError, match="line 3"):
        parse_model_text(bad)
    with pytest.raises(ParseError, match="line 5"):
        parse_model_text(MODEL_TEXT.replace("group first  :", "group first"))
    with pytest.raises(ParseError):
        parse_model_text("model x\nrenormalize on\n")
    with pytest.raises(ParseError, match="cell"):
        parse_model_text(MODEL_TEXT.replace("0.25 0.25\n", "0.25 zero\n", 1))
    with pytest.raises(ParseError, match="line 6: group 'second' has no cells"):
        parse_model_text(MODEL_TEXT.replace(": 0.25 0.25   #", ":   #"))


def test_group_keyword_is_its_own_token():
    """``groupies : 1 2`` once loaded as a group labelled ``ies``."""
    with pytest.raises(ParseError, match="line 5"):
        parse_model_text(MODEL_TEXT.replace("group first  :", "groupies :"))
    with pytest.raises(ParseError, match="line 6"):
        parse_model_text(MODEL_TEXT.replace("group second :", "group:"))
    tabbed = parse_model_text(MODEL_TEXT.replace("group first ", "group\tfirst"))
    assert tabbed == parse_model_text(MODEL_TEXT)


def test_parse_counts_text():
    c = parse_counts_text(COUNTS_TEXT)
    assert c.present == ((2, 2), (3, 3))
    assert c.prior == (8, 2)
    no_prior = parse_counts_text("present\n2 2\n3 3\n")
    assert no_prior.prior is None


def test_parse_counts_errors():
    with pytest.raises(ParseError):
        parse_counts_text("prior\n1 2\n")
    with pytest.raises(ParseError, match="integers"):
        parse_counts_text("present\n2 x\n")
    with pytest.raises(ParseError):
        parse_counts_text("present\n2 2\nprior\n")
    with pytest.raises(ParseError):
        parse_counts_text("present\n2 2\nprior\n1 1\nextra\n")
    with pytest.raises(ParseError, match="no present-survey rows"):
        parse_counts_text("present\nprior\n1 1\n")


def test_dump_and_reload_round_trip():
    m = bundled_model("example2-breast-cancer")
    text = dump_model_text(m, "example2-breast-cancer")
    again = parse_model_text(text)
    assert again == m  # field-for-field, bit-exact cells


@pytest.mark.parametrize("label", ["a#b", "a:b", "", " a", "a\nb", "a\u2028b"])
def test_dump_refuses_a_label_the_grammar_cannot_carry(label):
    m = build_model([[0.5], [0.25, 0.25]], labels=["ok", label])
    with pytest.raises(DomainError, match="group 1"):
        dump_model_text(m, "toy")


@pytest.mark.parametrize("name", ["", "a#b", " a", "a\rb"])
def test_dump_refuses_a_name_the_grammar_cannot_carry(name):
    with pytest.raises(DomainError, match="model name"):
        dump_model_text(bundled_model("example2-breast-cancer"), name)


# three in four texts are letters and digits only, which always round-trip;
# the rest mix in whitespace, line breaks, '#' and ':'
_PLAIN = st.text(st.characters(categories=["L", "N"]), min_size=1, max_size=5)
_TRICKY = st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\u2028#:")
_WILD = st.text(st.one_of(_TRICKY, st.characters()), max_size=5)
_TEXT = st.sampled_from([_PLAIN, _PLAIN, _PLAIN, _WILD]).flatmap(lambda t: t)


@st.composite
def _labelled_models(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    cells = [draw(st.lists(st.floats(0.01, 10.0), min_size=k, max_size=k))
             for k in sizes]
    labels = draw(st.lists(_TEXT, min_size=len(sizes), max_size=len(sizes)))
    return build_model(cells, renormalize=True, labels=labels)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_labelled_models(), _TEXT)
@example(build_model([[0.5], [0.5]], labels=["a b", "c\td"]), "x:y")
def test_dump_reloads_to_the_same_model_or_refuses(model, name):
    """Either the dump parses back to the same name and model, or it
    raises DomainError and the unchecked text would not have."""
    try:
        text = dump_model_text(model, name)
    except DomainError:
        naive = f"model {name}\nrenormalize off\n" + "".join(
            f"group {label} : {' '.join(map(repr, cells.tolist()))}\n"
            for label, cells in zip(model.labels, model.cells))
        try:
            assert _parse_named_model(naive) != (name, model)
        except ParseError:
            pass
    else:
        assert _parse_named_model(text) == (name, model)


def test_load_model_resolves_bundled_names_and_paths(tmp_path):
    assert load_model("example1-uniform100x2") == bundled_model(
        "example1-uniform100x2")
    path = tmp_path / "toy.model"
    path.write_text(MODEL_TEXT, encoding="utf-8")
    m = load_model(str(path))
    assert m.labels == ("first", "second")
    with pytest.raises(ParseError):
        load_model("not-a-model-anywhere")


def test_risk_app_csv(capsys):
    code = run(["risk", "--model", "example1-uniform100x2", "--estimator",
                "all", "--method", "app", "--n", "200", "--nstar", "200"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == ("model,method,n,nstar,present_app,prior_app,pooled_app")
    assert out[1] == ("example1-uniform100x2,app,200,200,"
                      "0.580831,0.583306,0.580814")


def test_risk_single_estimator_leaves_other_columns_empty(capsys):
    code = run(["risk", "--model", "example1-uniform100x2", "--estimator",
                "present", "--method", "app", "--n", "200"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1] == "example1-uniform100x2,app,200,,0.580831,,"


@pytest.mark.parametrize("method", ["app", "sim"])
def test_risk_present_row_ignores_nstar(method, capsys):
    """The present estimator does not use n*, so the row leaves the nstar
    field empty whether or not the flag is given."""
    args = ["risk", "--model", "example2-breast-cancer", "--estimator",
            "present", "--method", method, "--n", "200", "--reps", "64"]
    assert run(args) == 0
    without = capsys.readouterr().out
    assert run(args + ["--nstar", "600"]) == 0
    assert capsys.readouterr().out == without
    assert without.splitlines()[1].startswith("example2-breast-cancer,"
                                              f"{method},200,,")


def test_risk_sim_csv_embeds_provenance(capsys):
    args = ["risk", "--model", "example1-uniform100x2", "--estimator",
            "pooled", "--method", "sim", "--n", "50", "--nstar", "50",
            "--reps", "400", "--seed", "9"]
    assert run(args) == 0
    first = capsys.readouterr().out
    header = first.splitlines()[0].split(",")
    assert "seed" in header and "replications" in header
    row = dict(zip(header, first.splitlines()[1].split(",")))
    assert row["seed"] == "9"
    assert row["replications"] == "400"
    assert row["pooled_sim"] != ""
    assert row["present_sim"] == ""
    # same invocation, same bytes
    assert run(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("args, row", [
    (["--model", "example1-uniform100x2", "--n0", "1000", "--method", "app"],
     "example1-uniform100x2,prior-vs-present,app,1000,,,,1247"),
    # the answer pinned in test_golden.RSS_SIMULATED
    (["--model", "example2-breast-cancer", "--n0", "400", "--method", "sim",
      "--reps", "4096", "--seed", "0"],
     "example2-breast-cancer,prior-vs-present,sim,400,,0,4096,444"),
], ids=["app", "sim"])
def test_rss_csv(args, row, capsys):
    code = run(["rss", "--kind", "prior-vs-present"] + args)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1] == row


def test_rss_prior_vs_present_row_ignores_n0star(capsys):
    """The prior-vs-present solve does not use n0*, so the row leaves the
    n0star field empty whether or not the flag is given."""
    args = ["rss", "--model", "example1-uniform100x2", "--kind",
            "prior-vs-present", "--n0", "400", "--method", "app"]
    assert run(args) == 0
    without = capsys.readouterr().out
    assert run(args + ["--n0star", "5"]) == 0
    assert capsys.readouterr().out == without
    assert without.splitlines()[1] == (
        "example1-uniform100x2,prior-vs-present,app,400,,,,791")


def test_advise_plug_in_truth(capsys):
    code = run(["advise", "--model", "example1-uniform100x2", "--n", "90",
                "--nstar", "1000", "--plug-in", "truth"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert row["decision"] == "UsePresentOnly"
    assert abs(float(row["statistic"]) - (-0.006085554)) < 1e-6


def test_advise_counts_file(tmp_path, capsys):
    path = tmp_path / "survey.counts"
    path.write_text(COUNTS_TEXT, encoding="utf-8")
    model = tmp_path / "toy.model"
    model.write_text(MODEL_TEXT, encoding="utf-8")
    code = run(["advise", "--model", str(model), "--counts", str(path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1].split(",")[5] in ("UsePooled", "UsePresentOnly")


def test_reproduce_risk_grid(capsys):
    code = run(["reproduce", "--example", "1", "--table", "risk",
                "--method", "app"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 21  # header + 20 grid rows
    assert out[3].startswith("example1-uniform100x2,app,200,100000,")
    row200 = [line for line in out if line.startswith(
        "example1-uniform100x2,app,200,200,")]
    assert row200 == ["example1-uniform100x2,app,200,200,"
                      "0.580831,0.583306,0.580814"]


def test_reproduce_rss_grid(capsys):
    code = run(["reproduce", "--example", "3", "--table", "rss-pooled",
                "--method", "app"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 6
    got = [int(line.split(",")[-1]) for line in out[1:]]
    assert got == [1031, 1552, 2074, 2595, 3117]


def test_precision_full_round_trips(capsys):
    code = run(["risk", "--model", "example1-uniform100x2", "--estimator",
                "present", "--method", "app", "--n", "200",
                "--precision", "full"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    value = float(out[1].split(",")[4])
    assert value == 199 / 400 + 39999 / 480000


def test_dump_model_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "dumped.model"
    code = run(["risk", "--model", "example1-uniform100x2", "--estimator",
                "present", "--method", "app", "--n", "10",
                "--dump-model", str(target)])
    capsys.readouterr()
    assert code == 0
    assert load_model(str(target)) == bundled_model("example1-uniform100x2")


def test_usage_errors_exit_2(capsys):
    # argparse-level: unknown subcommand, bad flag value
    assert run(["nonsense"]) == 2
    assert run(["risk", "--model", "m", "--estimator", "present",
                "--method", "app", "--n", "-4"]) == 2
    # flag-combination level
    assert run(["risk", "--model", "example1-uniform100x2", "--estimator",
                "pooled", "--method", "app", "--n", "200"]) == 2
    assert run(["rss", "--model", "example1-uniform100x2", "--kind",
                "present-vs-pooled", "--n0", "100", "--method", "app"]) == 2
    assert run(["advise", "--model", "example1-uniform100x2"]) == 2
    assert run(["advise", "--model", "example1-uniform100x2", "--plug-in",
                "truth", "--n", "90"]) == 2
    assert "needs --n and --nstar" in capsys.readouterr().err
    assert run(["risk", "--model", "example1-uniform100x2", "--estimator",
                "present", "--method", "sim", "--n", "50",
                "--seed", str(2**64)]) == 2
    assert "unsigned 64-bit" in capsys.readouterr().err


def test_computation_errors_exit_1(capsys):
    assert run(["risk", "--model", "no-such-model", "--estimator", "present",
                "--method", "app", "--n", "10"]) == 1
    assert run(["rss", "--model", "example1-uniform100x2", "--kind",
                "prior-vs-present", "--n0", "90", "--method", "app"]) == 1
    err = capsys.readouterr().err
    assert "Unattainable" in err
    # the model loads before the flag combination is checked, so an
    # unknown model fails as a file error even where --nstar or --n0star
    # is also missing
    assert run(["risk", "--model", "no-such-model", "--estimator", "pooled",
                "--method", "app", "--n", "200"]) == 1
    assert run(["rss", "--model", "no-such-model", "--kind",
                "present-vs-pooled", "--n0", "100", "--method", "app"]) == 1
    assert capsys.readouterr().err.count("error: ParseError") == 2


def test_threads_default_to_the_usable_cores():
    """Where the platform can tell, the cores the process may run on, not
    every core of the machine."""
    args = build_parser().parse_args(
        ["risk", "--model", "example1-uniform100x2", "--estimator", "all",
         "--method", "sim", "--n", "50"])
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    assert args.threads == usable


def test_default_threads_print_the_bytes_of_one_thread(capsys):
    """A three-block simulated row is the same with one worker thread and
    with the default."""
    args = ["risk", "--model", "example2-breast-cancer", "--estimator", "all",
            "--method", "sim", "--n", "200", "--nstar", "600", "--reps", "9000",
            "--precision", "full"]
    assert run(args + ["--threads", "1"]) == 0
    one = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == one


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["risk", "--help"]) == 0
    capsys.readouterr()


def test_dump_model_keeps_the_name_from_the_model_file(tmp_path, capsys):
    path = tmp_path / "shop.model"
    path.write_text(MODEL_TEXT.replace("model toy", "model coffee-shop"),
                    encoding="utf-8")
    code = run(["risk", "--model", str(path), "--estimator", "present",
                "--method", "app", "--n", "10", "--dump-model", "-"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "model coffee-shop"


@pytest.mark.parametrize("stage, context", [("post", "PostSurvey"),
                                            ("plan", "Planning")])
def test_advise_stage_flag_names_the_context(stage, context, tmp_path, capsys):
    path = tmp_path / "survey.counts"
    path.write_text(COUNTS_TEXT, encoding="utf-8")
    model = tmp_path / "toy.model"
    model.write_text(MODEL_TEXT, encoding="utf-8")
    # post-survey advice from counts takes n from the counts
    with_counts = ["--counts", str(path)]
    if stage == "plan":
        with_counts += ["--n", "90"]
    for source in (["--plug-in", "truth", "--n", "90", "--nstar", "1000"],
                   with_counts):
        assert run(["advise", "--model", str(model), "--stage", stage,
                    *source]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[1] == context


@pytest.mark.parametrize("flags, message", [
    (["--counts", "FILE", "--stage", "post", "--n", "40"], "drop --n"),
    (["--counts", "FILE", "--stage", "post", "--nstar", "5000"], "drop --nstar"),
    (["--counts", "FILE", "--stage", "plan", "--n", "90", "--nstar", "5000"],
     "drop --nstar"),
    (["--counts", "FILE", "--stage", "plan"], "--stage plan needs --n"),
    ([], "one of the arguments --counts --plug-in is required"),
    (["--counts", "FILE", "--plug-in", "truth", "--n", "90", "--nstar", "1000"],
     "not allowed with argument"),
], ids=["post-n", "post-nstar", "plan-nstar", "plan-no-n", "no-source",
        "both-sources"])
def test_post_survey_advice_from_counts_refuses_n(flags, message, tmp_path,
                                                  capsys):
    """``--n`` at --stage post and ``--nstar`` at either stage once shaped
    nothing beside ``--counts``: the row reported the counts' sizes with
    exit status 0.  Neither or both of ``--counts`` and ``--plug-in`` is
    refused too."""
    path = tmp_path / "survey.counts"
    path.write_text(COUNTS_TEXT, encoding="utf-8")
    model = tmp_path / "toy.model"
    model.write_text(MODEL_TEXT, encoding="utf-8")
    flags = [str(path) if flag == "FILE" else flag for flag in flags]
    assert run(["advise", "--model", str(model), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("case", ["model-not-utf8", "counts-not-utf8",
                                  "counts-missing", "dump-into-missing-dir"])
def test_file_failures_print_one_error_line(case, tmp_path, capsys):
    """A file that cannot be read or decoded, or a dump that cannot be
    written, exits 1 with one ``error:`` line; the first, second and last
    once printed a traceback."""
    garbled = tmp_path / "garbled"
    garbled.write_bytes(b"model toy\n\xff\xfe\n")
    risk = ["risk", "--estimator", "present", "--method", "app", "--n", "10"]
    argv, error = {
        "model-not-utf8": (risk + ["--model", str(garbled)], "ParseError"),
        "counts-not-utf8": (["advise", "--model", "example1-uniform100x2",
                             "--counts", str(garbled)], "ParseError"),
        "counts-missing": (["advise", "--model", "example1-uniform100x2",
                            "--counts", str(tmp_path / "absent")], "ParseError"),
        "dump-into-missing-dir": (
            risk + ["--model", "example1-uniform100x2", "--dump-model",
                    str(tmp_path / "absent" / "x.model")],
            "FileNotFoundError"),
    }[case]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}: ")
    assert captured.err.count("\n") == 1
    if error == "ParseError":
        assert repr(argv[-1]) in captured.err


def test_sizes_outside_the_engine_range_exit_1(capsys):
    """These once printed inf,nan with exit status 0, or a traceback."""
    for sizes in (["--estimator", "prior", "--n", "200", "--nstar", str(2**53)],
                  ["--estimator", "present", "--n", str(2**63)]):
        assert run(["risk", "--model", "example1-uniform100x2", "--method",
                    "sim", "--reps", "64", *sizes]) == 1
        assert "DomainError" in capsys.readouterr().err


def test_marginals_numpy_cannot_draw_exit_1(tmp_path, capsys):
    """A model within the normalization tolerance whose first group
    marginals sum past 1 + 1e-12 once ended ``--method sim`` in numpy's
    traceback; ``--method app`` still answers."""
    model = tmp_path / "over.model"
    model.write_text("model over\nrenormalize off\ngroup a : 0.6\n"
                     "group b : 0.4000000005\ngroup c : 1e-10\n", encoding="utf-8")
    risk = ["risk", "--model", str(model), "--estimator", "present", "--n", "100000"]
    assert run(risk + ["--method", "sim", "--reps", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: DomainError: ")
    assert captured.err.count("\n") == 1 and "renormalize" in captured.err
    assert run(risk + ["--method", "app"]) == 0


def test_a_reused_parser_keeps_no_values_between_calls(capsys):
    """``run`` builds its parser once; a flag given to one call does not
    leak into the next, which falls back to the default seed."""
    assert build_parser() is build_parser()
    args = ["risk", "--model", "example1-uniform100x2", "--estimator",
            "present", "--method", "sim", "--n", "50", "--reps", "64"]
    seeds = []
    for extra in (["--seed", "9"], []):
        assert run(args + extra) == 0
        header, row = capsys.readouterr().out.splitlines()
        seeds.append(dict(zip(header.split(","), row.split(",")))["seed"])
    assert seeds == ["9", "0"]


def test_package_runs_as_a_module():
    """``python -m surveyrisk`` and ``python -m surveyrisk.cli`` are the
    command line without an installed console script."""
    src = Path(__file__).resolve().parents[1] / "src"
    for module in ("surveyrisk", "surveyrisk.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "rss", "--model",
             "example1-uniform100x2", "--kind", "prior-vs-present", "--n0",
             "1000", "--method", "app"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=False)
        assert done.returncode == 0, (module, done.stderr)
        assert done.stdout.splitlines()[1] == (
            "example1-uniform100x2,prior-vs-present,app,1000,,,,1247"), module
