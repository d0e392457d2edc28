"""Command-line front end.

Subcommands:

    parity       closed-form parity distribution of one coherent state,
                 optionally next to the truncated-sum oracle
    steer-region steering sums over a (beta, p) grid with the closed-form
                 region boundary overlaid in SVG output
    keyrate      key-rate curve over the cloning parameter, including the
                 sinh-based alternate error columns
    protocol     seeded Monte Carlo run with aggregate statistics and an
                 optional JSONL transcript
    uncertainty  variance product, entropic sum, fine-grained combination,
                 and min-entropy check for one configuration
    report       the model discrepancy report (markdown)

Common flags: --out PATH ("-" for stdout) and --format: csv|json|svg for
steer-region and keyrate, csv|json for parity, protocol and uncertainty.
A JSON document's meta.params holds every option of the command except
--out, --transcript and --format, in the order the parser declares them
(eta is null unless the channel is clone).  Exit codes: 0 on success, 2
on usage errors, 1 on runtime failures.  Output files are
written atomically; a failing command leaves no partial artifact, and an
output path that is a directory, names no file or is in no directory,
or a --transcript file that is the --out file, is refused before any
work.

Defaults mirror the worked parameter choices used throughout the test
suite: alpha = 1, beta = 0.5, p = 1/2, corrective displacements
gamma1 = -(alpha + beta) and gamma2 = -(alpha - beta), and an eta grid
over [0, pi/2].
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import __version__, keyrate, protocol, report, steering, uncertainty
from .coherent import (
    Parity,
    default_cutoff,
    parity_by_truncation,
    parity_probabilities,
)
from .output import (
    STDOUT_MARKER,
    Column,
    open_atomic,
    write_csv,
    write_curve_svg,
    write_json,
    write_region_svg,
    write_text,
)

__all__ = ["main", "build_parser"]

# Indexed by steering.verdict_codes; code 0 is within_bounds.
_VERDICT_NAMES = [verdict.value for verdict in steering.Verdict]

# Largest accepted --steps: a region table grows with steps^2 (at 500, 250 000
# rows: 14 MB of CSV, 32 MB of JSON, 19 MB of SVG, written a slice at a
# time), the key-rate curve linearly.
_MAX_REGION_STEPS = 500
_MAX_KEYRATE_STEPS = 100_000
# Largest accepted --rounds.  Memory does not set it, since rounds are
# generated in fixed chunks; time and disk do.  Statistics cost time in
# proportion to the rounds, most per round at the largest means (alpha
# 3e5, eta 0.785: four Poisson tables of 2.1e6 entries, each built once
# per run), and a transcript of 10^8 rounds would take 6.7 GB (ideal
# channel) to 7.7 GB (clone channel) of disk.
_MAX_ROUNDS = 100_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerlab",
        description=(
            "Displaced-parity coherent-state toolbox: steering sweeps, "
            "key-rate curves, protocol simulation, and uncertainty checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"steerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, formats=("csv", "json")):
        p.add_argument("--out", default=STDOUT_MARKER, help="output path, - for stdout")
        p.add_argument("--format", choices=formats, default="csv", help="output format")
        p.set_defaults(run=run)

    p = sub.add_parser("parity", help="parity distribution of one coherent state")
    p.add_argument("--re", type=float, default=0.0, help="real part of the amplitude")
    p.add_argument("--im", type=float, default=0.0, help="imaginary part of the amplitude")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also evaluate the truncated-sum oracle and the difference",
    )
    p.add_argument("--cutoff", type=int, default=None, help="oracle truncation cutoff")
    add_common(p, _cmd_parity)

    p = sub.add_parser("steer-region", help="steering sums over a (beta, p) grid")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta-min", type=float, default=0.05)
    p.add_argument("--beta-max", type=float, default=3.0)
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=50, help="grid points per axis")
    p.add_argument("--channel", choices=("ideal", "clone"), default="ideal")
    p.add_argument("--eta", type=float, default=math.pi / 4, help="cloning parameter")
    # A handler that refuses an argument gets its own subcommand's parser,
    # so that its usage errors read as argparse's own do.
    add_common(p, functools.partial(_cmd_steer_region, parser=p), ("csv", "json", "svg"))

    p = sub.add_parser("keyrate", help="key-rate curve over the cloning parameter")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=64, help="eta grid intervals on [0, pi/2]")
    add_common(p, functools.partial(_cmd_keyrate, parser=p), ("csv", "json", "svg"))

    p = sub.add_parser("protocol", help="seeded Monte Carlo protocol run")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--p-plus", type=float, default=0.5)
    p.add_argument("--rounds", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channel", choices=("ideal", "clone"), default="ideal")
    p.add_argument("--eta", type=float, default=math.pi / 4)
    p.add_argument("--transcript", default=None, help="also write a JSONL transcript here")
    add_common(p, functools.partial(_cmd_protocol, parser=p))

    p = sub.add_parser("uncertainty", help="uncertainty-relation checks")
    p.add_argument("--sigma-x", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--k0", type=float, default=0.0)
    p.add_argument("--state-re", type=float, default=1.0)
    p.add_argument("--state-im", type=float, default=0.0)
    p.add_argument("--beta-re", type=float, default=0.5)
    p.add_argument("--beta-im", type=float, default=0.0)
    p.add_argument("--p-beta", type=float, default=0.5)
    add_common(p, _cmd_uncertainty)

    p = sub.add_parser("report", help="model discrepancy report (markdown)")
    p.add_argument("--out", default=STDOUT_MARKER, help="output path, - for stdout")
    p.set_defaults(run=lambda args: write_text(args.out, report.build_report()))

    return parser


# Parsed arguments that are no input of the run.
_NOT_PARAMS = {"command", "run", "out", "format", "transcript"}


def _emit_table(args, header: list[str], columns: list[Column]) -> None:
    """Write the table in ``args.format``; a JSON meta's params are the
    command's parsed arguments, in the order the parser declares them."""
    with open_atomic(args.out) as fh:
        if args.format == "json":
            params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
            if "eta" in params and args.channel != "clone":
                params["eta"] = None
            meta = {"command": args.command, "version": __version__, "params": params}
            write_json(fh, meta, header, columns)
        else:
            write_csv(fh, header, columns)


def _row_columns(rows: list[list]) -> list[Column]:
    return [Column(cells) for cells in zip(*rows)]


def _cmd_parity(args) -> None:
    mu = complex(args.re, args.im)
    closed = parity_probabilities(mu)
    rows: list[list] = [["closed_form", closed.p_even, closed.p_odd]]
    if args.oracle:
        cutoff = args.cutoff if args.cutoff is not None else default_cutoff(mu)
        truncated = parity_by_truncation(mu, cutoff)
        rows.append(["truncated", truncated.p_even, truncated.p_odd])
        rows.append(
            [
                "abs_diff",
                abs(closed.p_even - truncated.p_even),
                abs(closed.p_odd - truncated.p_odd),
            ]
        )
    _emit_table(args, ["source", "p_even", "p_odd"], _row_columns(rows))


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _cmd_steer_region(args, parser: argparse.ArgumentParser) -> None:
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.steps > _MAX_REGION_STEPS:
        parser.error(f"--steps must be at most {_MAX_REGION_STEPS}")
    if not all(map(math.isfinite, (args.beta_min, args.beta_max, args.p_min, args.p_max))):
        # An unused infinite bound (--steps 1) would reach the JSON meta.
        parser.error("ranges must be finite")
    if not (args.beta_min < args.beta_max) or not (args.p_min < args.p_max):
        parser.error("ranges must satisfy min < max")
    if not (0.0 <= args.p_min and args.p_max <= 1.0):
        parser.error("p range must lie inside [0, 1]")
    channel = _make_channel(args)
    beta_grid = _linspace(args.beta_min, args.beta_max, args.steps)
    p_grid = _linspace(args.p_min, args.p_max, args.steps)
    sums = steering.region_sweep(beta_grid, p_grid, args.alpha, channel)
    verdicts = steering.verdict_codes(sums)
    if args.format == "svg":
        boundary = []
        for beta in beta_grid:
            if abs(beta) < steering._BOUNDARY_SINGULAR_EPS:
                continue
            b = steering.steerable_region_bounds(beta)
            if b.is_real:
                boundary.append((beta, b.p_low, b.p_high))
        with open_atomic(args.out) as fh:
            write_region_svg(
                fh, beta_grid, p_grid, verdicts == 0, boundary,
                (args.beta_min, args.beta_max), (args.p_min, args.p_max),
            )
        return
    columns = [
        Column(beta_grid, repeat=len(p_grid)),
        Column(p_grid, tile=len(beta_grid)),
        Column(sums.ravel()),
        Column(_VERDICT_NAMES, codes=verdicts.ravel()),
    ]
    _emit_table(args, ["beta", "p", "sum", "verdict"], columns)


def _cmd_keyrate(args, parser: argparse.ArgumentParser) -> None:
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.steps > _MAX_KEYRATE_STEPS:
        parser.error(f"--steps must be at most {_MAX_KEYRATE_STEPS}")
    # Element k is HALF_PI * k / steps, as in float arithmetic.
    eta_grid = keyrate.HALF_PI * np.arange(args.steps + 1) / args.steps
    curve = keyrate.key_rate_curve(args.alpha, args.beta, eta_grid)
    etas = curve.eta.tolist()
    if args.format == "svg":
        with open_atomic(args.out) as fh:
            write_curve_svg(
                fh,
                [
                    (name, list(zip(etas, getattr(curve, field).tolist())))
                    for name, field in (("rate", "rate"), ("I(A:B)", "i_ab"), ("I(A:E)", "i_ae"))
                ],
                "eta",
                "bits",
            )
        return
    header = ["eta", "p01", "q01", "i_ab", "i_ae", "rate", "p01_sinh_form", "q01_sinh_form"]
    columns = [getattr(curve, name) for name in header]
    finite = np.isfinite(columns[6]) & np.isfinite(columns[7])
    if not finite.all():
        k = int(np.argmin(finite))  # the first such eta, Bob's column first
        name, column = next((n, c) for n, c in zip(header[6:], columns[6:]) if not np.isfinite(c[k]))
        raise ValueError(f"column {name} is not finite at eta {etas[k]!r}: {column.item(k)!r}")
    _emit_table(args, header, list(map(Column, columns)))


def _make_channel(args):
    if args.channel == "clone":
        return steering.GaussianCloneChannel(eta=args.eta)
    return steering.IdealChannel()


def _cmd_protocol(args, parser: argparse.ArgumentParser) -> None:
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.rounds > _MAX_ROUNDS:
        parser.error(f"--rounds must be at most {_MAX_ROUNDS}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    config = protocol.SimConfig(
        alpha=args.alpha,
        beta=args.beta,
        p_plus=args.p_plus,
        channel=_make_channel(args),
        rounds=args.rounds,
        seed=args.seed,
    )
    result = protocol.run_protocol(config, keep_transcript=args.transcript is not None)
    if args.transcript is not None:
        with open_atomic(args.transcript) as fh:
            protocol.write_transcript(result.transcript, fh)
    stats = dataclasses.asdict(result.stats)
    _emit_table(args, list(stats), [Column([value]) for value in stats.values()])


def _cmd_uncertainty(args) -> None:
    lo, hi = uncertainty.STANDARD_GRID_SIGMA_X_RANGE
    if not lo <= args.sigma_x <= hi:
        raise ValueError(f"--sigma-x must lie in [{lo:g}, {hi:g}], got {args.sigma_x!r}")
    profile = uncertainty.GaussianBeamProfile(
        x0=args.x0, k0=args.k0, sigma_x=args.sigma_x
    )
    psi = uncertainty.profile_wavefunction(profile)
    entropic = uncertainty.entropic_sum_check(psi)
    state = complex(args.state_re, args.state_im)
    beta = complex(args.beta_re, args.beta_im)
    fg_even = uncertainty.fine_grained_sum(state, beta, args.p_beta, Parity.EVEN)
    fg_odd = uncertainty.fine_grained_sum(state, beta, args.p_beta, Parity.ODD)
    min_ent = uncertainty.min_entropy_bound_check(state, beta)
    rows: list[list] = [
        ["variance_product", uncertainty.variance_product(profile), ""],
        ["h_x_nats", entropic.h_x, ""],
        ["h_p_nats", entropic.h_p, ""],
        ["entropic_sum_nats", entropic.sum, "satisfied" if entropic.satisfied else "violated"],
        ["entropic_bound_nats", entropic.bound, ""],
        [
            "fine_grained_even",
            fg_even.value,
            "excluded_region" if fg_even.excluded_region else "",
        ],
        [
            "fine_grained_odd",
            fg_odd.value,
            "excluded_region" if fg_odd.excluded_region else "",
        ],
        ["min_entropy_sum_bits", min_ent.sum, "satisfied" if min_ent.satisfied else "violated"],
        ["min_entropy_bound_bits", min_ent.bound, ""],
    ]
    _emit_table(args, ["quantity", "value", "flag"], _row_columns(rows))


def _check_output_paths(args) -> None:
    """Refuse, before any work, an output path that ``open_atomic`` could
    not replace at the end: a directory, a path that names no file ("" or
    one ending in a separator), or a file in no directory; and a
    transcript path that resolves to the ``--out`` file, whose rename
    would replace it."""
    for flag in ("out", "transcript"):
        path = getattr(args, flag, None)
        if path is None or path == STDOUT_MARKER:
            continue
        directory = os.path.dirname(path) or os.curdir
        if os.path.isdir(path):
            problem = "is a directory"
        elif not os.path.basename(path):
            problem = "names no file"
        elif not os.path.isdir(directory):
            problem = f"directory {directory!r} does not exist"
        elif (flag == "transcript" and args.out != STDOUT_MARKER
              and os.path.realpath(path) == os.path.realpath(args.out)):
            problem = "names the same file as --out"
        else:
            continue
        raise ValueError(f"--{flag} {path!r}: {problem}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the tree costs several times a short command's own work, and
    # parsing leaves it unchanged, so one instance serves every main() call.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_output_paths(args)
        args.run(args)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"steerlab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
