"""Command-line surface: file formats, CSV output, exit codes."""

from __future__ import annotations

import numpy as np
import pytest

from surveyrisk import ParseError, bundled_model
from surveyrisk.cli import (
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


def test_dump_and_reload_round_trip():
    m = bundled_model("example2-breast-cancer")
    text = dump_model_text(m, "example2-breast-cancer")
    again = parse_model_text(text)
    assert again == m  # field-for-field, bit-exact cells


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


def test_rss_csv(capsys):
    code = run(["rss", "--model", "example1-uniform100x2", "--kind",
                "prior-vs-present", "--n0", "1000", "--method", "app"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1].endswith(",1247")


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
    capsys.readouterr()


def test_computation_errors_exit_1(capsys):
    assert run(["risk", "--model", "no-such-model", "--estimator", "present",
                "--method", "app", "--n", "10"]) == 1
    assert run(["rss", "--model", "example1-uniform100x2", "--kind",
                "prior-vs-present", "--n0", "90", "--method", "app"]) == 1
    err = capsys.readouterr().err
    assert "Unattainable" in err


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
