"""Command-line surface: risks, sample-size solving, advice, table rebuilds.

Output is CSV on stdout, one header row then data rows, with '.' as the
decimal separator and risks printed to 6 significant digits (pass
``--precision full`` for shortest round-trip representations).  Commands
that simulate embed the seed and replication count in the output, so a
CSV is a complete provenance record: the same invocation reproduces the
same bytes.

Exit status: 0 on success, 2 on usage errors, 1 on computation errors
(the message names the failed operation's error class).

Model files are line oriented UTF-8; '#' starts a comment and blank
lines are ignored:

    model <name>
    renormalize <on|off>
    group <label> : <p1> <p2> ... <pJ>     (one line per group)

Counts files hold the observed surveys:

    present
    <x_i1 x_i2 ... x_iJ>                   (one line per group)
    prior                                  (optional section)
    <x*_1 x*_2 ... x*_I>                   (single line)

Three model names resolve without a file: example1-uniform100x2,
example2-breast-cancer, example3-household.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Sequence

from .asymptotics import risk_app
from .datasets import BUNDLED_MODEL_NAMES, bundled_model
from .errors import DomainError, ParseError, SurveyRiskError
from .estimators import EstimatorKind
from .model import SurveyCounts, TwoStageModel, build_model, derive
from .montecarlo import SimulationConfig, simulate_risk
from .planning import (
    RssKind,
    RssQuery,
    advise,
    advise_from_marginals,
    required_sample_size,
)

__all__ = ["load_model", "parse_model_text", "parse_counts_text",
           "dump_model_text", "run", "main"]


class _UsageError(Exception):
    """Bad flag combination; maps to exit status 2."""


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_named_model(text: str) -> tuple[str, TwoStageModel]:
    """Parse the model file grammar into (name, model); raises ParseError
    with line numbers."""
    lines = _content_lines(text)
    if len(lines) < 4:
        raise ParseError("model file needs a model line, a renormalize line "
                         "and at least 2 group lines")
    lineno, first = lines[0]
    parts = first.split(None, 1)
    if parts[0] != "model" or len(parts) != 2:
        raise ParseError(f"line {lineno}: expected 'model <name>', got {first!r}")
    name = parts[1].strip()

    lineno, second = lines[1]
    parts = second.split()
    if len(parts) != 2 or parts[0] != "renormalize" or parts[1] not in ("on", "off"):
        raise ParseError(
            f"line {lineno}: expected 'renormalize on|off', got {second!r}"
        )
    renormalize = parts[1] == "on"

    labels: list[str] = []
    groups: list[list[float]] = []
    for lineno, line in lines[2:]:
        parts = line.split(None, 1)
        if parts[0] != "group" or len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'group <label> : "
                             f"<p1> <p2> ...', got {line!r}")
        body = parts[1]
        if ":" not in body:
            raise ParseError(f"line {lineno}: group line is missing ':'")
        label, _, cells_text = body.partition(":")
        label = label.strip()
        if not label:
            raise ParseError(f"line {lineno}: group label is empty")
        try:
            cells = [float(tok) for tok in cells_text.split()]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad cell value ({exc})") from None
        if not cells:
            raise ParseError(f"line {lineno}: group {label!r} has no cells")
        labels.append(label)
        groups.append(cells)

    return name, build_model(groups, renormalize=renormalize, labels=labels)


def parse_model_text(text: str) -> TwoStageModel:
    """Parse the model file grammar; raises ParseError with line numbers."""
    return _parse_named_model(text)[1]


def _writable(text: str) -> bool:
    """Whether the grammar reads ``text`` back unchanged as a model name,
    or as a group label if it also has no ':': it is nonempty, has no
    surrounding whitespace (lines are stripped), no '#' (comments) and no
    line break (``str.splitlines``)."""
    return (text != "" and text == text.strip() and "#" not in text
            and len(text.splitlines()) == 1)


def dump_model_text(model: TwoStageModel, name: str) -> str:
    """Serialize; cells print with shortest round-trip precision, so a
    reloaded dump is field-for-field identical.

    Raises DomainError for a model name or group label the grammar cannot
    carry (see ``_writable``).
    """
    if not _writable(name):
        raise DomainError(f"model name {name!r} cannot be written to a "
                          f"model file")
    lines = [f"model {name}", "renormalize off"]
    for i, (label, cells) in enumerate(zip(model.labels, model.cells)):
        if not _writable(label) or ":" in label:
            raise DomainError(f"group {i} label {label!r} cannot be written "
                              f"to a model file")
        cell_text = " ".join(repr(float(x)) for x in cells)
        lines.append(f"group {label} : {cell_text}")
    return "\n".join(lines) + "\n"


def parse_counts_text(text: str) -> SurveyCounts:
    """Parse the counts file grammar; raises ParseError with line numbers."""
    lines = _content_lines(text)
    if not lines or lines[0][1] != "present":
        raise ParseError("counts file must start with a 'present' line")
    present: list[tuple[int, ...]] = []
    prior: tuple[int, ...] | None = None
    i = 1
    while i < len(lines) and lines[i][1] != "prior":
        lineno, line = lines[i]
        try:
            row = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(
                f"line {lineno}: expected integers, got {line!r}"
            ) from None
        present.append(row)
        i += 1
    if i < len(lines):  # 'prior' section
        if i + 1 >= len(lines):
            raise ParseError("'prior' line must be followed by one line of "
                             "group counts")
        lineno, line = lines[i + 1]
        try:
            prior = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(
                f"line {lineno}: expected integers, got {line!r}"
            ) from None
        if i + 2 < len(lines):
            extra = lines[i + 2][0]
            raise ParseError(f"line {extra}: unexpected content after the "
                             f"prior counts")
    if not present:
        raise ParseError("counts file has no present-survey rows")
    return SurveyCounts(present=tuple(present), prior=prior)


def _load_named_model(path_or_name: str) -> tuple[str, TwoStageModel]:
    """(name, model) for a bundled model name, else for a model file, whose
    name is the one on its ``model`` line."""
    if path_or_name in BUNDLED_MODEL_NAMES:
        return path_or_name, bundled_model(path_or_name)
    path = Path(path_or_name)
    if not path.is_file():
        raise ParseError(
            f"{path_or_name!r} is neither a bundled model name "
            f"({', '.join(BUNDLED_MODEL_NAMES)}) nor a readable file"
        )
    return _parse_named_model(path.read_text(encoding="utf-8"))


def load_model(path_or_name: str) -> TwoStageModel:
    """Resolve a bundled model name, else read a model file."""
    return _load_named_model(path_or_name)[1]


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _fmt(x: float, precision: str) -> str:
    return repr(float(x)) if precision == "full" else format(float(x), ".6g")


def _write_rows(rows: list[list[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_ALL_KINDS = (EstimatorKind.PRESENT, EstimatorKind.PRIOR, EstimatorKind.POOLED)


def _selected_kinds(name: str) -> tuple[EstimatorKind, ...]:
    if name == "all":
        return _ALL_KINDS
    return (EstimatorKind(name),)


def _risk_rows_app(model_name, model, kinds, n, n_star, precision):
    dq = derive(model)
    header = ["model", "method", "n", "nstar",
              "present_app", "prior_app", "pooled_app"]
    values = {k: "" for k in _ALL_KINDS}
    for kind in kinds:
        values[kind] = _fmt(risk_app(kind, dq, n, n_star).total, precision)
    row = [model_name, "app", str(n), "" if n_star is None else str(n_star),
           values[EstimatorKind.PRESENT], values[EstimatorKind.PRIOR],
           values[EstimatorKind.POOLED]]
    return [header, row]


def _risk_rows_sim(model_name, model, kinds, n, n_star, config, workers, precision):
    header = ["model", "method", "n", "nstar", "seed", "replications",
              "present_sim", "present_se", "prior_sim", "prior_se",
              "pooled_sim", "pooled_se", "discard_rate"]
    values = {k: ("", "") for k in _ALL_KINDS}
    discard = ""
    for kind in kinds:
        r = simulate_risk(kind, model, n, n_star, config, workers)
        values[kind] = (_fmt(r.mean_loss, precision), _fmt(r.std_error, precision))
        discard = _fmt(r.discard_rate, precision)
    row = [model_name, "sim", str(n), "" if n_star is None else str(n_star),
           str(config.seed), str(config.replications),
           *values[EstimatorKind.PRESENT], *values[EstimatorKind.PRIOR],
           *values[EstimatorKind.POOLED], discard]
    return [header, row]


def _cmd_risk(args) -> int:
    model = load_model(args.model)
    kinds = _selected_kinds(args.estimator)
    needs_prior = any(k is not EstimatorKind.PRESENT for k in kinds)
    if needs_prior and args.nstar is None:
        raise _UsageError(
            f"--estimator {args.estimator} needs --nstar"
        )
    # the present estimator ignores n*, so its row leaves the field empty
    n_star = args.nstar if needs_prior else None
    if args.method == "app":
        rows = _risk_rows_app(args.model, model, kinds, args.n, n_star,
                              args.precision)
    else:
        config = SimulationConfig(replications=args.reps, seed=args.seed)
        rows = _risk_rows_sim(args.model, model, kinds, args.n, n_star,
                              config, args.threads, args.precision)
    _write_rows(rows)
    return 0


_RSS_HEADER = ["model", "kind", "method", "n0", "n0star", "seed",
               "replications", "rss"]


def _rss_row(model_name, model, kind, n0, n0_star, args):
    """Solve one r.s.s. query with the method, seed, reps and threads in
    ``args``; returns its CSV row."""
    config = None
    if args.method == "sim":
        config = SimulationConfig(replications=args.reps, seed=args.seed)
    query = RssQuery(kind=kind, n0=n0, n0_star=n0_star,
                     method=args.method, config=config)
    rss = required_sample_size(query, model, workers=args.threads)
    return [model_name, kind.value, args.method, str(n0),
            "" if n0_star is None else str(n0_star),
            "" if config is None else str(config.seed),
            "" if config is None else str(config.replications),
            str(rss)]


def _cmd_rss(args) -> int:
    model = load_model(args.model)
    kind = RssKind(args.kind)
    if kind is RssKind.PRESENT_TO_POOLED and args.n0star is None:
        raise _UsageError("--kind present-vs-pooled needs --n0star")
    # prior-vs-present ignores n0*, so its row leaves the field empty
    n0_star = args.n0star if kind is RssKind.PRESENT_TO_POOLED else None
    _write_rows([_RSS_HEADER,
                 _rss_row(args.model, model, kind, args.n0, n0_star, args)])
    return 0


def _cmd_advise(args) -> int:
    model = load_model(args.model)
    if args.counts is None and args.plug_in is None:
        raise _UsageError("advise needs --counts FILE or --plug-in truth")
    if args.counts is not None and args.plug_in is not None:
        raise _UsageError("--counts and --plug-in are mutually exclusive")

    if args.plug_in is not None:  # plug the model's own marginals in
        if args.n is None or args.nstar is None:
            raise _UsageError("--plug-in truth needs --n and --nstar")
        dq = derive(model)
        rec = advise_from_marginals(
            model.group_sizes, dq.marginals.tolist(), args.n, args.nstar,
            stage=args.stage,
        )
    else:
        path = Path(args.counts)
        if not path.is_file():
            raise ParseError(f"counts file {args.counts!r} does not exist")
        counts = parse_counts_text(path.read_text(encoding="utf-8"))
        if args.stage == "plan" and args.n is None:
            raise _UsageError("--stage plan needs --n (candidate present size)")
        rec = advise(counts, model.group_sizes, stage=args.stage, n=args.n)

    header = ["model", "stage", "n", "nstar", "statistic", "decision",
              "plug_in_marginals"]
    row = [args.model, rec.context.value, str(rec.n), str(rec.n_star),
           _fmt(rec.statistic, args.precision), rec.decision.value,
           ";".join(_fmt(m, args.precision) for m in rec.plug_in_marginals)]
    _write_rows([header, row])
    return 0


# (n, n*) grids and n0 grids for the bundled models' reference tables
_RISK_GRIDS = {
    1: ([(100, 100000), (150, 100000), (200, 100000), (250, 100000),
         (300, 100000), (200, 200), (400, 400), (600, 600), (800, 800),
         (1000, 1000)]
        + [(90, k) for k in range(100, 1001, 100)]),
    2: [(n, ns) for n in (200, 600, 1000) for ns in (200, 600, 1000)],
    3: [(n, ns) for n in (1000, 2000, 3000) for ns in (1000, 2000, 3000)],
}
_RSS_GRIDS = {
    1: list(range(400, 2001, 200)),
    2: list(range(200, 1001, 200)),
    3: [1000, 1500, 2000, 2500, 3000],
}
_EXAMPLE_MODELS = {1: "example1-uniform100x2", 2: "example2-breast-cancer",
                   3: "example3-household"}


def _cmd_reproduce(args) -> int:
    model_name = _EXAMPLE_MODELS[args.example]
    model = load_model(model_name)
    precision = args.precision
    rows: list[list[str]] = []
    if args.table == "risk":
        config = SimulationConfig(replications=args.reps, seed=args.seed)
        for n, ns in _RISK_GRIDS[args.example]:
            if args.method == "app":
                block = _risk_rows_app(model_name, model, _ALL_KINDS, n, ns,
                                       precision)
            else:
                block = _risk_rows_sim(model_name, model, _ALL_KINDS, n, ns,
                                       config, args.threads, precision)
            if not rows:
                rows.append(block[0])
            rows.append(block[1])
    else:
        kind = (RssKind.PRIOR_TO_PRESENT if args.table == "rss-prior"
                else RssKind.PRESENT_TO_POOLED)
        rows.append(_RSS_HEADER)
        for n0 in _RSS_GRIDS[args.example]:
            n0_star = n0 if kind is RssKind.PRESENT_TO_POOLED else None
            rows.append(_rss_row(model_name, model, kind, n0, n0_star, args))
    _write_rows(rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _seed_int(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("must fit in an unsigned 64-bit integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surveyrisk",
        description="Risk of two-stage multinomial survey estimators: "
                    "approximate, simulate, plan sample sizes, advise on "
                    "pooling a coarse prior survey.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", choices=("6", "full"), default="6",
                        help="significant digits in CSV output")

    with_model = argparse.ArgumentParser(add_help=False, parents=[common])
    with_model.add_argument("--model", required=True,
                            help="bundled model name or model file path")
    with_model.add_argument("--dump-model", metavar="PATH",
                            help="write the loaded model back out as a model "
                                 "file and exit")

    sim_flags = argparse.ArgumentParser(add_help=False)
    sim_flags.add_argument("--reps", type=_positive_int, default=10_000,
                           help="simulation replications (default 10000)")
    sim_flags.add_argument("--seed", type=_seed_int, default=0,
                           help="simulation seed (default 0)")
    sim_flags.add_argument("--threads", type=_positive_int, default=1,
                           help="worker threads; does not change results")

    p_risk = sub.add_parser("risk", parents=[with_model, sim_flags],
                            help="risk of one or all estimators at (n, n*)")
    p_risk.add_argument("--estimator", required=True,
                        choices=("present", "prior", "pooled", "all"))
    p_risk.add_argument("--method", required=True, choices=("app", "sim"))
    p_risk.add_argument("--n", type=_positive_int, required=True)
    p_risk.add_argument("--nstar", type=_positive_int)
    p_risk.set_defaults(func=_cmd_risk)

    p_rss = sub.add_parser("rss", parents=[with_model, sim_flags],
                           help="required sample size for one design to "
                                "match the other's risk")
    p_rss.add_argument("--kind", required=True,
                       choices=tuple(k.value for k in RssKind))
    p_rss.add_argument("--n0", type=_positive_int, required=True)
    p_rss.add_argument("--n0star", type=_positive_int)
    p_rss.add_argument("--method", required=True, choices=("app", "sim"))
    p_rss.set_defaults(func=_cmd_rss)

    p_advise = sub.add_parser("advise", parents=[with_model],
                              help="should the prior survey be pooled in?")
    p_advise.add_argument("--counts", help="counts file with present (+prior) "
                                           "surveys")
    p_advise.add_argument("--plug-in", choices=("truth",), dest="plug_in",
                          help="plug the model's own marginals into the "
                               "decision statistic")
    p_advise.add_argument("--n", type=_positive_int,
                          help="present size (required with --plug-in truth "
                               "and with --stage plan)")
    p_advise.add_argument("--nstar", type=_positive_int,
                          help="prior size (required with --plug-in truth)")
    p_advise.add_argument("--stage", choices=("post", "plan"), default="post")
    p_advise.set_defaults(func=_cmd_advise)

    p_rep = sub.add_parser("reproduce", parents=[common, sim_flags],
                           help="recompute a reference table for a bundled "
                                "example model")
    p_rep.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    p_rep.add_argument("--table", required=True,
                       choices=("risk", "rss-prior", "rss-pooled"))
    p_rep.add_argument("--method", choices=("app", "sim"), default="app")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def run(argv: Sequence[str]) -> int:
    """Parse and dispatch; returns the exit status instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "dump_model", None):
            name, model = _load_named_model(args.model)
            text = dump_model_text(model, name)
            if args.dump_model == "-":
                sys.stdout.write(text)
            else:
                Path(args.dump_model).write_text(text, encoding="utf-8")
            return 0
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SurveyRiskError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
