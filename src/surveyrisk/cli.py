"""Command-line surface: risks, sample-size solving, advice, table rebuilds.

Output is CSV on stdout, one header row then data rows, with '.' as the
decimal separator and risks printed to 6 significant digits (pass
``--precision full`` for shortest round-trip representations).  Commands
that simulate embed the seed and replication count in the output, so a
CSV is a complete provenance record: the same invocation reproduces the
same bytes.

Exit status: 0 on success, 2 on usage errors, 1 on computation and file
errors (one ``error:`` line that names the error class).

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

``reproduce`` runs ``risk --estimator all`` or ``rss`` at each point of
a fixed grid; each of its rows is byte for byte the row that command
prints at that point with the same flags.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
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
    AdviceContext,
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


def _int_row(lineno: int, line: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in line.split())
    except ValueError:
        raise ParseError(f"line {lineno}: expected integers, got {line!r}") from None


def parse_counts_text(text: str) -> SurveyCounts:
    """Parse the counts file grammar; raises ParseError with line numbers."""
    lines = _content_lines(text)
    if not lines or lines[0][1] != "present":
        raise ParseError("counts file must start with a 'present' line")
    present: list[tuple[int, ...]] = []
    prior: tuple[int, ...] | None = None
    i = 1
    while i < len(lines) and lines[i][1] != "prior":
        present.append(_int_row(*lines[i]))
        i += 1
    if i < len(lines):  # 'prior' section
        if i + 1 >= len(lines):
            raise ParseError("'prior' line must be followed by one line of "
                             "group counts")
        prior = _int_row(*lines[i + 1])
        if i + 2 < len(lines):
            extra = lines[i + 2][0]
            raise ParseError(f"line {extra}: unexpected content after the "
                             f"prior counts")
    if not present:
        raise ParseError("counts file has no present-survey rows")
    return SurveyCounts(present=tuple(present), prior=prior)


def _read_text(path: str, unreadable: str) -> str:
    """A UTF-8 file's text, else ParseError: ``unreadable`` and why."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{unreadable} ({exc})") from None


def _load_named_model(path_or_name: str) -> tuple[str, TwoStageModel]:
    """(name, model) for a bundled model name, else for a model file, whose
    name is the one on its ``model`` line."""
    if path_or_name in BUNDLED_MODEL_NAMES:
        return path_or_name, bundled_model(path_or_name)
    return _parse_named_model(_read_text(
        path_or_name, f"{path_or_name!r} is neither a bundled model name "
        f"({', '.join(BUNDLED_MODEL_NAMES)}) nor a readable file"))


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
# subcommands: each returns its CSV rows, header first
# ---------------------------------------------------------------------------

def _config(args) -> SimulationConfig | None:
    """The simulation settings that ``--method`` implies: None for app."""
    if args.method == "app":
        return None
    return SimulationConfig(replications=args.reps, seed=args.seed)


_RISK_HEADER = {
    "app": ["model", "method", "n", "nstar",
            "present_app", "prior_app", "pooled_app"],
    "sim": ["model", "method", "n", "nstar", "seed", "replications",
            "present_sim", "present_se", "prior_sim", "prior_se",
            "pooled_sim", "pooled_se", "discard_rate"],
}


def _risk_rows(model_name, model, kinds, points, args) -> list[list[str]]:
    """The risk table of ``kinds`` at each (n, n*) in ``points``, with the
    method, seed, reps and threads in ``args``; the fields of the other
    kinds are empty."""
    precision, config = args.precision, _config(args)
    rows = [_RISK_HEADER[args.method]]
    for n, n_star in points:
        row = [model_name, args.method, str(n),
               "" if n_star is None else str(n_star)]
        if config is None:
            values = {k: [_fmt(risk_app(k, model, n, n_star).total, precision)]
                      for k in kinds}
            width, tail = 1, []
        else:
            row += [str(config.seed), str(config.replications)]
            runs = [simulate_risk(k, model, n, n_star, config, args.threads)
                    for k in kinds]
            values = {r.kind: [_fmt(r.mean_loss, precision),
                               _fmt(r.std_error, precision)] for r in runs}
            # every kind sees the same present draws, so one discard rate
            width, tail = 2, [_fmt(runs[-1].discard_rate, precision)]
        for kind in EstimatorKind:
            row += values.get(kind, [""] * width)
        rows.append(row + tail)
    return rows


def _cmd_risk(args) -> list[list[str]]:
    model = load_model(args.model)
    kinds = (tuple(EstimatorKind) if args.estimator == "all"
             else (EstimatorKind(args.estimator),))
    needs_prior = args.estimator != EstimatorKind.PRESENT.value
    if needs_prior and args.nstar is None:
        raise _UsageError(
            f"--estimator {args.estimator} needs --nstar"
        )
    # the present estimator ignores n*, so its row leaves the field empty
    n_star = args.nstar if needs_prior else None
    return _risk_rows(args.model, model, kinds, [(args.n, n_star)], args)


_RSS_HEADER = ["model", "kind", "method", "n0", "n0star", "seed",
               "replications", "rss"]


def _rss_rows(model_name, model, kind, points, args) -> list[list[str]]:
    """The r.s.s. table of ``kind`` at each (n0, n0*) in ``points``, with
    the method, seed, reps and threads in ``args``."""
    config = _config(args)
    provenance = (["", ""] if config is None
                  else [str(config.seed), str(config.replications)])
    rows = [_RSS_HEADER]
    for n0, n0_star in points:
        # prior-vs-present ignores n0*, so its row leaves the field empty
        if kind is RssKind.PRIOR_TO_PRESENT:
            n0_star = None
        query = RssQuery(kind=kind, n0=n0, n0_star=n0_star,
                         method=args.method, config=config)
        rss = required_sample_size(query, model, workers=args.threads)
        rows.append([model_name, kind.value, args.method, str(n0),
                     "" if n0_star is None else str(n0_star),
                     *provenance, str(rss)])
    return rows


def _cmd_rss(args) -> list[list[str]]:
    model = load_model(args.model)
    kind = RssKind(args.kind)
    if kind is RssKind.PRESENT_TO_POOLED and args.n0star is None:
        raise _UsageError("--kind present-vs-pooled needs --n0star")
    return _rss_rows(args.model, model, kind, [(args.n0, args.n0star)], args)


#: the advice stage each ``--stage`` value names
_STAGES = {"post": AdviceContext.POST_SURVEY, "plan": AdviceContext.PLANNING}


def _cmd_advise(args) -> list[list[str]]:
    model = load_model(args.model)
    stage = _STAGES[args.stage]
    if args.plug_in is not None:  # plug the model's own marginals in
        if args.n is None or args.nstar is None:
            raise _UsageError("--plug-in truth needs --n and --nstar")
        dq = derive(model)
        rec = advise_from_marginals(
            model.group_sizes, dq.marginals.tolist(), args.n, args.nstar, stage
        )
    else:
        if args.nstar is not None:
            raise _UsageError("--counts takes n* from the counts; drop --nstar")
        counts = parse_counts_text(_read_text(
            args.counts, f"counts file {args.counts!r} cannot be read"))
        if stage is AdviceContext.PLANNING and args.n is None:
            raise _UsageError("--stage plan needs --n (candidate present size)")
        if stage is AdviceContext.POST_SURVEY and args.n is not None:
            raise _UsageError("--stage post takes n from the counts; drop --n")
        rec = advise(counts, model.group_sizes, stage, args.n)

    header = ["model", "stage", "n", "nstar", "statistic", "decision",
              "plug_in_marginals"]
    row = [args.model, rec.context.value, str(rec.n), str(rec.n_star),
           _fmt(rec.statistic, args.precision), rec.decision.value,
           ";".join(_fmt(m, args.precision) for m in rec.plug_in_marginals)]
    return [header, row]


# (n, n*) and (n0, n0*) grids for the bundled models' reference tables;
# example k is BUNDLED_MODEL_NAMES[k - 1]
_RISK_GRIDS = {
    1: ([(100, 100000), (150, 100000), (200, 100000), (250, 100000),
         (300, 100000), (200, 200), (400, 400), (600, 600), (800, 800),
         (1000, 1000)]
        + [(90, k) for k in range(100, 1001, 100)]),
    2: [(n, ns) for n in (200, 600, 1000) for ns in (200, 600, 1000)],
    3: [(n, ns) for n in (1000, 2000, 3000) for ns in (1000, 2000, 3000)],
}
_RSS_GRIDS = {
    1: [(n0, n0) for n0 in range(400, 2001, 200)],
    2: [(n0, n0) for n0 in range(200, 1001, 200)],
    3: [(n0, n0) for n0 in (1000, 1500, 2000, 2500, 3000)],
}


def _cmd_reproduce(args) -> list[list[str]]:
    model_name = BUNDLED_MODEL_NAMES[args.example - 1]
    model = load_model(model_name)
    if args.table == "risk":
        return _risk_rows(model_name, model, tuple(EstimatorKind),
                          _RISK_GRIDS[args.example], args)
    kind = (RssKind.PRIOR_TO_PRESENT if args.table == "rss-prior"
            else RssKind.PRESENT_TO_POOLED)
    return _rss_rows(model_name, model, kind, _RSS_GRIDS[args.example], args)


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


def _usable_cores() -> int:
    """The cores this process may run on, the default ``--threads``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing fills a fresh namespace per
    call and leaves the parser as it was."""
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
    sim_flags.add_argument("--threads", type=_positive_int, default=_usable_cores(),
                           help="worker threads (default: the usable cores, "
                                "%(default)s here); does not change results")

    p_risk = sub.add_parser("risk", parents=[with_model, sim_flags],
                            help="risk of one or all estimators at (n, n*)")
    p_risk.add_argument("--estimator", required=True,
                        choices=(*(k.value for k in EstimatorKind), "all"))
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
    source = p_advise.add_mutually_exclusive_group(required=True)
    source.add_argument("--counts", help="counts file with present (+prior) "
                                         "surveys")
    source.add_argument("--plug-in", choices=("truth",), dest="plug_in",
                        help="plug the model's own marginals into the "
                             "decision statistic")
    p_advise.add_argument("--n", type=_positive_int,
                          help="present size (required with --plug-in truth "
                               "and with --stage plan, refused with --counts "
                               "at --stage post)")
    p_advise.add_argument("--nstar", type=_positive_int,
                          help="prior size (required with --plug-in truth, "
                               "refused with --counts)")
    p_advise.add_argument("--stage", choices=tuple(_STAGES), default="post")
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
        _write_rows(args.func(args))
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SurveyRiskError, OSError) as exc:  # OSError: writing a file
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
