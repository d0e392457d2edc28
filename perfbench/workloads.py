"""Workloads: seeded operations on the steerlab CLI and their output checks.

A workload run is a sequence of batches.  Batch ``b`` of workload ``w``
under seed ``s`` is a fixed list of operations generated only from
``(w, s, b)``, so the same seed always gives the same inputs.  An
operation is one call to ``steerlab.cli.main(argv)``, optionally followed
by a public library call the CLI has no verb for (reading a transcript
back), and an output check that runs after the timed region.

Outputs whose bytes are pinned (transcripts, protocol statistics JSON,
steering verdicts) are drawn from pools of inputs whose goldens were
recorded once, in ``goldens.json``; the seed picks and orders pool
entries.  Everything else is checked against an independent closed form
or against a tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
GOLDENS_PATH = HERE / "goldens.json"

PI_4 = math.pi / 4.0
HALF_PI = math.pi / 2.0
EPS = 2.0**-52

# Sizes of the inputs.  "tiny" keeps every code path and check but runs in
# a fraction of a second per operation; it exists for the self-tests.
SCALES = {
    "full": {
        "transcript_rounds": 200_000,
        "montecarlo_rounds": 1_000_000,
        "large_mean_rounds": 1000,
        "large_mean_alpha": (500.0, 3000.0),
        "steer_steps": (50, 83, 117, 150),
        "keyrate_steps": 64,
    },
    "tiny": {
        "transcript_rounds": 2000,
        "montecarlo_rounds": 20_000,
        "large_mean_rounds": 200,
        "large_mean_alpha": (50.0, 300.0),
        "steer_steps": (5, 8, 12, 15),
        "keyrate_steps": 8,
    },
}

# Per large_mean batch: six distinct alphas, one from each equal-width
# stratum of the alpha range, and two operations that repeat the alphas
# of fixed strata, so a quarter of the operations repeat an earlier mean.
# The offsets of the alphas within their strata follow one golden-ratio
# sequence from a seeded start, across strata and batches, so each batch
# costs about the same and every run covers the strata evenly.
GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0
LARGE_MEAN_STRATA = 6
LARGE_MEAN_REPEATED_STRATA = (1, 4)

# Empirical error rates of large_mean runs must lie within this many
# binomial standard deviations of bob_error / eve_error.
LARGE_MEAN_SIGMAS = 6.0



class CheckFailed(Exception):
    """An operation's output differs from what it should be."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable  # check(lab, extra) raises CheckFailed
    after: Callable | None = None  # after(lab) -> extra, timed with the CLI call


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def records_digest(records) -> str:
    """Digest of decoded transcript records, field by field."""
    lines = []
    for r in records:
        eve = "" if r.eve_outcome is None else r.eve_outcome.value
        gamma = r.announced_gamma
        lines.append(f"{r.index},{r.prep.value},{gamma.real!r},{gamma.imag!r},{r.bob_outcome.value},{eve}\n")
    return sha256_text("".join(lines))


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value: float, expected: float, ulps: float) -> bool:
    return abs(value - expected) <= ulps * math.ulp(expected)


def _within(value: float, expected: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(value - expected) <= rel * max(abs(value), abs(expected)) + abs_tol


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    text = path.read_text(encoding="utf-8")
    require(text.endswith("\n") and "\r" not in text, f"{path.name}: not LF-terminated CSV")
    lines = text.split("\n")[:-1]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- oracles


def _odd(delta: float) -> float:
    return (1.0 - math.exp(-2.0 * delta * delta)) / 2.0


def _even_of(z: complex) -> float:
    return (1.0 + math.exp(-2.0 * (z.real * z.real + z.imag * z.imag))) / 2.0


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _sinh_form(delta: float) -> float:
    m2 = delta * delta
    return math.sinh(m2) * math.exp(-m2 / 2.0)


def _average(alpha: float, beta: float, factor: float, form) -> float:
    shift = factor - 1.0
    return 0.5 * (form((alpha + beta) * shift) + form((alpha - beta) * shift))


# ---------------------------------------------------------------- steering fingerprints


def steer_fingerprint(header: list[str], rows: list[list[str]], samples: int = 16) -> dict:
    """Compact golden of a steer-region CSV: verdicts exactly, sums sampled."""
    require(header == ["beta", "p", "sum", "verdict"], f"unexpected steer-region header {header}")
    verdicts = [row[3] for row in rows]
    sums = [float(row[2]) for row in rows]
    picks = sorted({round(k * (len(rows) - 1) / (samples - 1)) for k in range(samples)})
    return {
        "rows": len(rows),
        "verdicts_sha256": sha256_text("\n".join(verdicts)),
        "tones_sha256": sha256_text("".join("w" if v == "within_bounds" else "v" for v in verdicts)),
        "sum_fsum": math.fsum(sums),
        "samples": [[i, float(rows[i][0]), float(rows[i][1]), sums[i]] for i in picks],
    }


def check_steer_csv(path: Path, golden: dict) -> None:
    header, rows = read_csv(path)
    got = steer_fingerprint(header, rows)
    require(got["rows"] == golden["rows"], f"steer-region: {got['rows']} rows, expected {golden['rows']}")
    require(got["verdicts_sha256"] == golden["verdicts_sha256"], "steer-region: verdicts differ from golden")
    tol = 4.0 * EPS * golden["rows"]
    require(abs(got["sum_fsum"] - golden["sum_fsum"]) <= tol, "steer-region: sums drift beyond a few ulp")
    for index, beta, p, total in golden["samples"]:
        row = rows[index]
        for name, value, expected in (("beta", row[0], beta), ("p", row[1], p), ("sum", row[2], total)):
            require(_close(float(value), expected, 4), f"steer-region: row {index} {name} {value} != {expected!r}")


_RECT = re.compile(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" fill="(#[0-9a-f]{6})"/>')


def check_steer_svg(path: Path, golden: dict) -> None:
    text = path.read_text(encoding="utf-8")
    require(text.startswith("<svg ") and text.endswith("</svg>\n"), "steer-region: malformed SVG")
    fills = _RECT.findall(text)[1:]  # the first rect is the white background
    require(len(fills) == golden["rows"], f"steer-region: {len(fills)} cells, expected {golden['rows']}")
    tones = "".join("w" if fill == "#d9d9d9" else "v" for fill in fills)
    require(sha256_text(tones) == golden["tones_sha256"], "steer-region: SVG cell tones differ from golden")


# ---------------------------------------------------------------- report


_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


def tolerant_equal(text: str, golden: str, rel: float = 1e-12, abs_tol: float = 1e-15) -> bool:
    """Text equal to golden except numbers, which may differ within tolerance."""
    got, want = _NUMBER.split(text), _NUMBER.split(golden)
    if len(got) != len(want):
        return False
    for k, (a, b) in enumerate(zip(got, want)):
        if k % 2 == 0:
            if a != b:
                return False
        elif a != b and not _within(float(a), float(b), rel, abs_tol):
            return False
    return True


def report_sections(text: str) -> list[str]:
    return text.split("\n## ")


def check_report(lab, path: Path, golden: dict) -> None:
    sections = report_sections(path.read_text(encoding="utf-8"))
    require(len(sections) == 5, f"report: {len(sections) - 1} sections, expected 4")
    require(
        tolerant_equal("\n## ".join(sections[:4]), golden["report_sections_1_3"]),
        "report: sections 1-3 differ from golden beyond tolerance",
    )
    rows = [line for line in sections[4].split("\n") if line.startswith("| ") and line[2].isdigit()]
    require(len(rows) == 3, f"report: {len(rows)} rows in section 4, expected 3")
    for line in rows:
        cells = [float(c) for c in line.strip("| ").split(" | ")]
        alpha, beta, eta_free, iae_free, rate_free, eta_cap, iae_cap, rate_cap = cells
        for eta, iae, rate, hi in ((eta_free, iae_free, rate_free, HALF_PI), (eta_cap, iae_cap, rate_cap, PI_4)):
            require(hi - 1e-3 <= eta <= hi + 1e-12, f"report: optimum eta {eta!r} not near {hi!r}")
            point = lab.keyrate.key_rate_point(alpha, beta, eta)
            require(_within(iae, point.i_ae, 1e-12, 1e-15), f"report: I(A:E) {iae!r} != {point.i_ae!r}")
            require(_within(rate, point.rate, 1e-12, 1e-15), f"report: rate {rate!r} != {point.rate!r}")
            edge = lab.keyrate.key_rate_point(alpha, beta, hi)
            require(iae >= edge.i_ae - 1e-12, f"report: I(A:E) {iae!r} below its value at eta {hi!r}")


# ---------------------------------------------------------------- the other analysis checks


def check_keyrate_csv(path: Path, alpha: float, beta: float, steps: int) -> None:
    header, rows = read_csv(path)
    require(
        header == ["eta", "p01", "q01", "i_ab", "i_ae", "rate", "p01_sinh_form", "q01_sinh_form"],
        f"keyrate: unexpected header {header}",
    )
    require(len(rows) == steps + 1, f"keyrate: {len(rows)} rows, expected {steps + 1}")
    for k, row in enumerate(rows):
        eta, p01, q01, i_ab, i_ae, rate, p_sinh, q_sinh = (float(v) for v in row)
        require(_close(eta, HALF_PI * k / steps, 1), f"keyrate: eta {eta!r} at row {k}")
        bob, eve = math.cos(abs(eta)), math.cos(HALF_PI - eta)
        want_p, want_q = _average(alpha, beta, bob, _odd), _average(alpha, beta, eve, _odd)
        expected = (
            (p01, want_p),
            (q01, want_q),
            (i_ab, 1.0 - _h2(want_p)),
            (i_ae, 1.0 - _h2(want_q)),
            (rate, _h2(want_q) - _h2(want_p)),
            (p_sinh, _average(alpha, beta, bob, _sinh_form)),
            (q_sinh, _average(alpha, beta, eve, _sinh_form)),
        )
        for value, want in expected:
            require(_within(value, want, 1e-12, 1e-14), f"keyrate: row {k} value {value!r} != {want!r}")


_POLYLINE = re.compile(r'<polyline points="([^"]*)"')


def check_keyrate_svg(path: Path, steps: int) -> None:
    text = path.read_text(encoding="utf-8")
    require(text.startswith("<svg ") and text.endswith("</svg>\n"), "keyrate: malformed SVG")
    lines = _POLYLINE.findall(text)
    require(len(lines) == 3, f"keyrate: {len(lines)} curves, expected 3")
    for points in lines:
        require(len(points.split(" ")) == steps + 1, "keyrate: curve has the wrong number of points")
    for label in (">rate<", ">I(A:B)<", ">I(A:E)<"):
        require(label in text, f"keyrate: label {label} missing")


def check_parity_csv(path: Path, mu: complex) -> None:
    header, rows = read_csv(path)
    require(header == ["source", "p_even", "p_odd"], f"parity: unexpected header {header}")
    require([row[0] for row in rows] == ["closed_form", "truncated", "abs_diff"], "parity: unexpected rows")
    (ce, co), (te, to), (de, do) = ((float(a), float(b)) for _, a, b in rows)
    t = math.exp(-2.0 * (mu.real * mu.real + mu.imag * mu.imag))
    require(_within(ce, (1.0 + t) / 2.0, 0.0, 4 * EPS) and _within(co, (1.0 - t) / 2.0, 0.0, 4 * EPS),
            "parity: closed form differs from (1 +- exp(-2|mu|^2)) / 2")
    require(abs(te - ce) <= 1e-12 and abs(to - co) <= 1e-12, "parity: truncated sum far from closed form")
    require(de == abs(ce - te) and do == abs(co - to), "parity: abs_diff row is not |closed - truncated|")


def check_uncertainty_csv(path: Path, params: dict) -> None:
    header, rows = read_csv(path)
    require(header == ["quantity", "value", "flag"], f"uncertainty: unexpected header {header}")
    table = {name: (float(value), flag) for name, value, flag in rows}
    require(len(table) == 9, "uncertainty: expected nine quantities")
    ln_pi_e = math.log(math.pi * math.e)
    require(table["variance_product"][0] == 0.25, "uncertainty: variance product is not 1/4")
    h_x, h_p = table["h_x_nats"][0], table["h_p_nats"][0]
    entropic, flag = table["entropic_sum_nats"]
    require(_within(entropic, h_x + h_p, 1e-14), "uncertainty: entropic sum is not h_x + h_p")
    require(abs(entropic - ln_pi_e) <= 1e-4 and flag == "satisfied", "uncertainty: entropic sum not saturated")
    require(_within(table["entropic_bound_nats"][0], ln_pi_e, 1e-15), "uncertainty: entropic bound")
    state = complex(params["state_re"], params["state_im"])
    beta = complex(params["beta_re"], params["beta_im"])
    p = params["p_beta"]
    even_plus, even_minus = _even_of(state - beta), _even_of(state + beta)
    fg_even = p * even_plus + (1.0 - p) * even_minus
    fg_odd = p * (1.0 - even_plus) + (1.0 - p) * (1.0 - even_minus)
    require(_within(table["fine_grained_even"][0], fg_even, 1e-13, 1e-15), "uncertainty: fine_grained_even")
    require(_within(table["fine_grained_odd"][0], fg_odd, 1e-13, 1e-15), "uncertainty: fine_grained_odd")
    h_min = -math.log2(max(even_plus, 1.0 - even_plus)) - math.log2(max(even_minus, 1.0 - even_minus))
    min_sum, min_flag = table["min_entropy_sum_bits"]
    bound = -2.0 * math.log2(0.75)
    require(_within(min_sum, h_min, 1e-12, 1e-15), "uncertainty: min-entropy sum")
    require(min_flag == ("satisfied" if h_min >= bound - 1e-12 else "violated"), "uncertainty: min-entropy flag")
    require(_within(table["min_entropy_bound_bits"][0], bound, 1e-15), "uncertainty: min-entropy bound")


# ---------------------------------------------------------------- batch builders


class Run:
    """The inputs of one workload run: seed, scale, goldens and a work directory."""

    def __init__(self, workload: str, seed: int, scale: str, workdir: Path, goldens: dict):
        self.workload = workload
        self.seed = seed
        self.sizes = SCALES[scale]
        self.workdir = workdir
        self.goldens = goldens
        self.pools = goldens["scales"][scale]
        self._perms: dict[str, list[int]] = {}
        self._used: dict[str, int] = {}

    def rng(self, *key) -> random.Random:
        return random.Random("/".join(str(k) for k in ("perfbench", self.workload, self.seed, *key)))

    def draw(self, pool_name: str) -> dict:
        """Next entry of a golden pool, in an order fixed by the seed; pools cycle."""
        pool = self.pools[pool_name]
        if pool_name not in self._perms:
            order = list(range(len(pool)))
            self.rng("pool", pool_name).shuffle(order)
            self._perms[pool_name] = order
            self._used[pool_name] = 0
        k = self._used[pool_name]
        self._used[pool_name] = k + 1
        return pool[self._perms[pool_name][k % len(pool)]]

    def path(self, name: str) -> Path:
        return self.workdir / name

    def batch(self, index: int) -> list[Op]:
        return BUILDERS[self.workload](self, index)


def _stats_sha_check(path: Path, expected: str, label: str) -> None:
    require(sha256_file(path) == expected, f"{label}: statistics JSON differs from golden")


def transcript_argv(seed: int, rounds: int, transcript: Path, stats: Path) -> list[str]:
    return ["protocol", "--channel", "clone", "--eta", repr(PI_4), "--alpha", "1", "--beta", "0.5",
            "--rounds", str(rounds), "--seed", str(seed), "--transcript", str(transcript),
            "--format", "json", "--out", str(stats)]


def _transcript_batch(run: Run, index: int) -> list[Op]:
    rounds = run.sizes["transcript_rounds"]
    entry = run.draw("transcript")
    transcript, stats = run.path("transcript.jsonl"), run.path("transcript-stats.json")

    def after(lab):
        return lab.protocol.read_transcript(str(transcript))

    def check(lab, records):
        try:
            _stats_sha_check(stats, entry["stats_sha256"], "transcript")
            require(sha256_file(transcript) == entry["transcript_sha256"], "transcript: bytes differ from golden")
            require(len(records) == rounds, f"transcript: read {len(records)} records, expected {rounds}")
            require(records_digest(records) == entry["records_sha256"], "transcript: decoded records differ")
        finally:
            transcript.unlink(missing_ok=True)

    argv = transcript_argv(entry["seed"], rounds, transcript, stats)
    return [Op("protocol+read_transcript", argv, check, after)]


def montecarlo_argv(entry: dict, rounds: int, out: Path) -> list[str]:
    eta = ["--eta", repr(entry["eta"])] if entry["channel"] == "clone" else []
    return ["protocol", "--channel", entry["channel"], *eta, "--alpha", repr(entry["alpha"]),
            "--beta", repr(entry["beta"]), "--rounds", str(rounds), "--seed", str(entry["seed"]),
            "--format", "json", "--out", str(out)]


# One ideal and five clone runs per batch: the median and the 90th
# percentile of operation time both fall well inside the clone cluster,
# never on the gap between the two channels' costs.
def _montecarlo_batch(run: Run, index: int) -> list[Op]:
    rounds = run.sizes["montecarlo_rounds"]
    out = run.path("montecarlo.json")
    entries = [run.draw("montecarlo_ideal")] + [run.draw("montecarlo_clone") for _ in range(5)]
    run.rng("order", index).shuffle(entries)
    ops = []
    for entry in entries:
        def check(lab, extra, entry=entry):
            _stats_sha_check(out, entry["stats_sha256"], "montecarlo")

        ops.append(Op(f"protocol-{entry['channel']}", montecarlo_argv(entry, rounds, out), check))
    return ops


def _large_mean_batch(run: Run, index: int) -> list[Op]:
    rounds = run.sizes["large_mean_rounds"]
    lo, hi = run.sizes["large_mean_alpha"]
    rng = run.rng("batch", index)
    width = (hi - lo) / LARGE_MEAN_STRATA
    start = run.rng("offset").random()
    alphas = []
    for k in range(LARGE_MEAN_STRATA):
        offset = (start + (index * LARGE_MEAN_STRATA + k) * GOLDEN_FRACTION) % 1.0
        alphas.append(lo + width * (k + offset))
    order = list(range(LARGE_MEAN_STRATA))
    rng.shuffle(order)
    sequence = [alphas[k] for k in order]
    for stratum in LARGE_MEAN_REPEATED_STRATA:
        first = sequence.index(alphas[stratum])
        sequence.insert(rng.randint(first + 1, len(sequence)), alphas[stratum])
    out = run.path("large-mean.json")
    ops = []
    for alpha in sequence:
        def check(lab, extra, alpha=alpha):
            doc = json.loads(out.read_text(encoding="utf-8"))
            require(doc["meta"]["params"]["alpha"] == alpha, "large_mean: wrong alpha in meta")
            stats = doc["rows"][0]
            require(stats["n_plus"] + stats["n_minus"] == rounds, "large_mean: round counts do not add up")
            for name, value, expected in (
                ("p01", stats["empirical_p01"], lab.keyrate.bob_error(alpha, 0.5, PI_4)),
                ("q01", stats["empirical_q01"], lab.keyrate.eve_error(alpha, 0.5, PI_4)),
            ):
                sigma = max(math.sqrt(expected * (1.0 - expected) / rounds), 1.0 / rounds)
                require(abs(value - expected) <= LARGE_MEAN_SIGMAS * sigma,
                        f"large_mean: {name} {value!r} more than {LARGE_MEAN_SIGMAS} sigma from {expected!r}")

        argv = ["protocol", "--channel", "clone", "--eta", repr(PI_4), "--alpha", repr(alpha), "--beta", "0.5",
                "--rounds", str(rounds), "--seed", str(rng.randrange(2**32)), "--format", "json", "--out", str(out)]
        ops.append(Op("protocol-large-mean", argv, check))
    return ops


def steer_argv(entry: dict, fmt: str, out: Path) -> list[str]:
    eta = ["--eta", repr(entry["eta"])] if entry["channel"] == "clone" else []
    return ["steer-region", "--alpha", repr(entry["alpha"]), "--steps", str(entry["steps"]),
            "--channel", entry["channel"], *eta, "--format", fmt, "--out", str(out)]


def _steer_op(run: Run, steps: int, channel: str, fmt: str) -> Op:
    entry = run.draw(f"steer_{steps}_{channel}")
    out = run.path(f"region.{fmt}")

    def check(lab, extra):
        (check_steer_svg if fmt == "svg" else check_steer_csv)(out, entry)

    return Op(f"steer-region-{fmt}", steer_argv(entry, fmt, out), check)


def _keyrate_op(run: Run, rng: random.Random, fmt: str) -> Op:
    alpha, beta, steps = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0), run.sizes["keyrate_steps"]
    out = run.path(f"keyrate.{fmt}")

    def check(lab, extra):
        if fmt == "svg":
            check_keyrate_svg(out, steps)
        else:
            check_keyrate_csv(out, alpha, beta, steps)

    argv = ["keyrate", "--alpha", repr(alpha), "--beta", repr(beta), "--steps", str(steps),
            "--format", fmt, "--out", str(out)]
    return Op(f"keyrate-{fmt}", argv, check)


def _parity_op(run: Run, rng: random.Random) -> Op:
    radius, angle = 3.0 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
    mu = complex(radius * math.cos(angle), radius * math.sin(angle))
    out = run.path("parity.csv")
    # "--opt=value": argparse reads a separate "-5e-05" as an option, not a value.
    argv = ["parity", f"--re={mu.real!r}", f"--im={mu.imag!r}", "--oracle", "--out", str(out)]
    return Op("parity", argv, lambda lab, extra: check_parity_csv(out, mu))


def _uncertainty_op(run: Run, rng: random.Random) -> Op:
    params = {
        "sigma_x": rng.uniform(0.5, 2.0),
        "x0": rng.uniform(-1.0, 1.0),
        "k0": rng.uniform(-1.0, 1.0),
        "state_re": rng.uniform(-2.0, 2.0),
        "state_im": rng.uniform(-2.0, 2.0),
        "beta_re": rng.uniform(-1.0, 1.0),
        "beta_im": rng.uniform(-1.0, 1.0),
        "p_beta": rng.random(),
    }
    out = run.path("uncertainty.csv")
    argv = ["uncertainty"]
    for name, value in params.items():
        argv.append(f"--{name.replace('_', '-')}={value!r}")
    argv += ["--out", str(out)]
    return Op("uncertainty", argv, lambda lab, extra: check_uncertainty_csv(out, params))


def _report_op(run: Run) -> Op:
    out = run.path("report.md")
    return Op("report", ["report", "--out", str(out)], lambda lab, extra: check_report(lab, out, run.goldens))


# 35 operations per batch.  Sorted by time they form clusters: 12 parity
# (about 3 ms), 12 uncertainty and 4 keyrate (about 4 ms), the 50- and
# 83-step sweeps with the 3 reports (0.06-0.25 s), and the 117- and
# 150-step sweeps (0.3-0.5 s).  The counts put the median operation in the
# middle of the uncertainty cluster and the 90th percentile in the middle
# of the report cluster, so neither sits on a gap between two kinds.
def _analysis_batch(run: Run, index: int) -> list[Op]:
    rng = run.rng("batch", index)
    channels = ["ideal", "ideal", "clone", "clone"]
    rng.shuffle(channels)
    steer_formats = ["csv", "csv", "svg", "svg"]
    rng.shuffle(steer_formats)
    ops = [_steer_op(run, steps, channel, fmt)
           for steps, channel, fmt in zip(run.sizes["steer_steps"], channels, steer_formats)]
    ops += [_keyrate_op(run, rng, fmt) for fmt in ("csv", "csv", "svg", "svg")]
    ops += [_parity_op(run, rng) for _ in range(12)]
    ops += [_uncertainty_op(run, rng) for _ in range(12)]
    ops += [_report_op(run) for _ in range(3)]
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "transcript": _transcript_batch,
    "montecarlo": _montecarlo_batch,
    "large_mean": _large_mean_batch,
    "analysis": _analysis_batch,
}

# Time of one full-scale batch on the reference machine (see NOTES.md); the
# traced run sizes its fixed batch count from it.
NOMINAL_BATCH_S = {
    "transcript": 4.0,
    "montecarlo": 1.3,
    "large_mean": 2.8,
    "analysis": 1.7,
}
