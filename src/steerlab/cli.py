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

Common flags: --out PATH ("-" for stdout), --format csv|json|svg (svg only
for steer-region and keyrate), --seed for the protocol.  Exit codes: 0 on
success, 2 on usage errors, 1 on runtime failures.  Output files are
written atomically; a failing command leaves no partial artifact.

Defaults mirror the worked parameter choices used throughout the test
suite: alpha = 1, beta = 0.5, p = 1/2, corrective displacements
gamma1 = -(alpha + beta) and gamma2 = -(alpha - beta), and an eta grid
over [0, pi/2].
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

from . import __version__, keyrate, protocol, report, steering, uncertainty
from .coherent import (
    Parity,
    default_cutoff,
    parity_by_truncation,
    parity_probabilities,
)
from .output import (
    STDOUT_MARKER,
    curve_svg,
    open_atomic,
    region_svg,
    rows_to_csv,
    to_json_document,
    write_text,
)

__all__ = ["main", "build_parser"]

_FORMATS = ("csv", "json", "svg")
_SVG_COMMANDS = {"steer-region", "keyrate"}

# Largest accepted --steps: the region sweep's memory grows with steps^2
# (about 0.5 GB at 600), the key-rate curve's linearly (about 0.3 GB at 1e5).
_MAX_REGION_STEPS = 500
_MAX_KEYRATE_STEPS = 100_000
# Largest accepted --rounds: a run holds all rounds at once, about 86 MB per
# 1e6 rounds, so this keeps it near 0.5 GB.
_MAX_ROUNDS = 5_000_000


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

    def add_common(p):
        p.add_argument("--out", default=STDOUT_MARKER, help="output path, - for stdout")
        p.add_argument("--format", choices=_FORMATS, default="csv", help="output format")

    p = sub.add_parser("parity", help="parity distribution of one coherent state")
    p.add_argument("--re", type=float, default=0.0, help="real part of the amplitude")
    p.add_argument("--im", type=float, default=0.0, help="imaginary part of the amplitude")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also evaluate the truncated-sum oracle and the difference",
    )
    p.add_argument("--cutoff", type=int, default=None, help="oracle truncation cutoff")
    add_common(p)

    p = sub.add_parser("steer-region", help="steering sums over a (beta, p) grid")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta-min", type=float, default=0.05)
    p.add_argument("--beta-max", type=float, default=3.0)
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=50, help="grid points per axis")
    p.add_argument("--channel", choices=("ideal", "clone"), default="ideal")
    p.add_argument("--eta", type=float, default=math.pi / 4, help="cloning parameter")
    add_common(p)

    p = sub.add_parser("keyrate", help="key-rate curve over the cloning parameter")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=64, help="eta grid intervals on [0, pi/2]")
    add_common(p)

    p = sub.add_parser("protocol", help="seeded Monte Carlo protocol run")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--p-plus", type=float, default=0.5)
    p.add_argument("--rounds", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channel", choices=("ideal", "clone"), default="ideal")
    p.add_argument("--eta", type=float, default=math.pi / 4)
    p.add_argument("--transcript", default=None, help="also write a JSONL transcript here")
    add_common(p)

    p = sub.add_parser("uncertainty", help="uncertainty-relation checks")
    p.add_argument("--sigma-x", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--k0", type=float, default=0.0)
    p.add_argument("--state-re", type=float, default=1.0)
    p.add_argument("--state-im", type=float, default=0.0)
    p.add_argument("--beta-re", type=float, default=0.5)
    p.add_argument("--beta-im", type=float, default=0.0)
    p.add_argument("--p-beta", type=float, default=0.5)
    add_common(p)

    p = sub.add_parser("report", help="model discrepancy report (markdown)")
    p.add_argument("--out", default=STDOUT_MARKER, help="output path, - for stdout")

    return parser


def _emit_table(args, header: list[str], rows: list[list], meta: dict) -> None:
    if args.format == "json":
        json_rows = [dict(zip(header, row)) for row in rows]
        write_text(args.out, to_json_document(meta, json_rows))
    else:
        write_text(args.out, rows_to_csv(header, rows))


def _meta(command: str, params: dict) -> dict:
    return {"command": command, "version": __version__, "params": params}


def _cmd_parity(args) -> int:
    mu = complex(args.re, args.im)
    closed = parity_probabilities(mu)
    header = ["source", "p_even", "p_odd"]
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
    _emit_table(
        args,
        header,
        rows,
        _meta("parity", {"re": args.re, "im": args.im, "oracle": args.oracle}),
    )
    return 0


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _cmd_steer_region(args, parser: argparse.ArgumentParser) -> int:
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.steps > _MAX_REGION_STEPS:
        parser.error(f"--steps must be at most {_MAX_REGION_STEPS}")
    if not (args.beta_min < args.beta_max) or not (args.p_min < args.p_max):
        parser.error("ranges must satisfy min < max")
    if not (0.0 <= args.p_min and args.p_max <= 1.0):
        parser.error("p range must lie inside [0, 1]")
    channel = _make_channel(args)
    beta_grid = _linspace(args.beta_min, args.beta_max, args.steps)
    p_grid = _linspace(args.p_min, args.p_max, args.steps)
    sums = steering.region_sweep(beta_grid, p_grid, args.alpha, channel).ravel().tolist()
    verdicts = [steering.steering_verdict(total).value for total in sums]
    header = ["beta", "p", "sum", "verdict"]
    meta = _meta(
        "steer-region",
        {
            "alpha": args.alpha,
            "beta_min": args.beta_min,
            "beta_max": args.beta_max,
            "p_min": args.p_min,
            "p_max": args.p_max,
            "steps": args.steps,
            "channel": args.channel,
            "eta": args.eta if args.channel == "clone" else None,
        },
    )
    if args.format == "svg":
        boundary = []
        for beta in beta_grid:
            if abs(beta) < steering._BOUNDARY_SINGULAR_EPS:
                continue
            b = steering.steerable_region_bounds(beta)
            if b.is_real:
                boundary.append((beta, b.p_low, b.p_high))
        svg = region_svg(
            beta_grid, p_grid, verdicts, boundary,
            (args.beta_min, args.beta_max), (args.p_min, args.p_max),
        )
        write_text(args.out, svg)
    else:
        cells = itertools.product(beta_grid, p_grid)
        rows = [[b, p, total, v] for (b, p), total, v in zip(cells, sums, verdicts)]
        _emit_table(args, header, rows, meta)
    return 0


def _cmd_keyrate(args, parser: argparse.ArgumentParser) -> int:
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.steps > _MAX_KEYRATE_STEPS:
        parser.error(f"--steps must be at most {_MAX_KEYRATE_STEPS}")
    eta_grid = [keyrate.HALF_PI * k / args.steps for k in range(args.steps + 1)]
    points = keyrate.key_rate_curve(args.alpha, args.beta, eta_grid)
    header = ["eta", "p01", "q01", "i_ab", "i_ae", "rate", "p01_sinh_form", "q01_sinh_form"]
    rows = []
    for pt in points:
        rows.append(
            [
                pt.eta,
                pt.p01,
                pt.q01,
                pt.i_ab,
                pt.i_ae,
                pt.rate,
                keyrate.bob_error_sinh_form(args.alpha, args.beta, pt.eta),
                keyrate.eve_error_sinh_form(args.alpha, args.beta, pt.eta),
            ]
        )
    if args.format == "svg":
        svg = curve_svg(
            [
                ("rate", [(pt.eta, pt.rate) for pt in points]),
                ("I(A:B)", [(pt.eta, pt.i_ab) for pt in points]),
                ("I(A:E)", [(pt.eta, pt.i_ae) for pt in points]),
            ],
            "eta",
            "bits",
        )
        write_text(args.out, svg)
    else:
        _emit_table(
            args,
            header,
            rows,
            _meta(
                "keyrate",
                {"alpha": args.alpha, "beta": args.beta, "steps": args.steps},
            ),
        )
    return 0


def _make_channel(args):
    if args.channel == "clone":
        return steering.GaussianCloneChannel(eta=args.eta)
    return steering.IdealChannel()


def _cmd_protocol(args, parser: argparse.ArgumentParser) -> int:
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
    stats = result.stats
    stats_obj = {
        "n_plus": stats.n_plus,
        "n_minus": stats.n_minus,
        "empirical_p01": stats.empirical_p01,
        "empirical_q01": stats.empirical_q01,
        "stderr_p01": stats.stderr_p01,
        "empirical_rate": stats.empirical_rate,
    }
    meta = _meta(
        "protocol",
        {
            "alpha": args.alpha,
            "beta": args.beta,
            "p_plus": args.p_plus,
            "rounds": args.rounds,
            "seed": args.seed,
            "channel": args.channel,
            "eta": args.eta if args.channel == "clone" else None,
        },
    )
    if args.format == "csv":
        header = list(stats_obj.keys())
        write_text(args.out, rows_to_csv(header, [list(stats_obj.values())]))
    else:
        write_text(args.out, to_json_document(meta, [stats_obj]))
    return 0


def _cmd_uncertainty(args) -> int:
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
    header = ["quantity", "value", "flag"]
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
    _emit_table(
        args,
        header,
        rows,
        _meta(
            "uncertainty",
            {
                "sigma_x": args.sigma_x,
                "x0": args.x0,
                "k0": args.k0,
                "state_re": args.state_re,
                "state_im": args.state_im,
                "beta_re": args.beta_re,
                "beta_im": args.beta_im,
                "p_beta": args.p_beta,
            },
        ),
    )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the tree costs several times a short command's own work, and
    # parsing leaves it unchanged, so one instance serves every main() call.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) == "svg" and args.command not in _SVG_COMMANDS:
        parser.error("svg output is only available for steer-region and keyrate")
    try:
        if args.command == "parity":
            return _cmd_parity(args)
        if args.command == "steer-region":
            return _cmd_steer_region(args, parser)
        if args.command == "keyrate":
            return _cmd_keyrate(args, parser)
        if args.command == "protocol":
            return _cmd_protocol(args, parser)
        if args.command == "uncertainty":
            return _cmd_uncertainty(args)
        if args.command == "report":
            write_text(args.out, report.build_report())
            return 0
        parser.error(f"unknown command {args.command!r}")
    except SystemExit:
        raise
    except Exception as exc:
        print(f"steerlab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
