"""Monte Carlo rounds of the displaced-parity key-distribution game.

Each round: Alice prepares |alpha + beta> with probability p_plus (else
|alpha - beta>), the channel acts, the preparation-matched corrective
displacement (gamma1 = -(alpha + beta) or gamma2 = -(alpha - beta)) is
announced publicly, Bob applies it to his system and samples parity, and,
when a Gaussian-cloning eavesdropper is present, Eve applies the same
announced displacement to her clone and samples parity as well.  Eve
hears the announcement before measuring, which is the stronger adversary
(and the announcement precedes all measurements anyway).

Random-stream discipline
------------------------
All randomness comes from a counter-based Philox generator keyed by the
master seed.  Round i owns the block of four uniforms at stream offsets
4 i .. 4 i + 3 (in order: preparation choice, mixture-component choice,
Bob's parity draw, Eve's parity draw), so any round's randomness is a pure
function of (seed, round index): rounds could be evaluated in any order or
in parallel without changing the transcript.  Parity draws map a single
uniform through the Poisson CDF tabulated by coherent.batch_parity_is_odd,
one table per distinct mean over about 24 sqrt(mean) photon numbers, as
coherent.sample_parity does for one draw.  Identical configs produce
bit-identical transcripts.

Chunked generation
------------------
A run is drawn, mapped and sampled in chunks of 2^16 rounds (``_CHUNK``),
and its counts are summed over the chunks, so working memory stays flat
as the run grows.  The generator hands out the counter-based stream in
order, so consecutive chunk draws are exactly the uniforms of one draw of
the whole run: the chunk size changes no statistic and no transcript byte.

Transcript layout
-----------------
The announced gamma depends only on the preparation, so a round is one of
at most eight kinds (prep, gamma, bob, eve).  A run keeps one uint8 kind
code per round, prep << 2 | bob << 1 | eve (bits set for PLUS and ODD),
beside the table of kinds, so a transcript costs one byte per round.
``Transcript`` builds ``RoundRecord``s from the codes only when a caller
indexes or iterates.  The JSONL codec works on the same kinds: the
encoder renders one line tail per kind and fills in the round index, and
the decoder maps tails it has seen back to kinds, parsing every other
line with ``json.loads``.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .coherent import Parity, batch_parity_is_odd
from .keyrate import binary_entropy
from .steering import Channel, IdealChannel

__all__ = [
    "Prep",
    "SimConfig",
    "RoundRecord",
    "Transcript",
    "SimStats",
    "ProtocolResult",
    "run_protocol",
    "empirical_key_rate",
    "write_transcript",
    "read_transcript",
]

_UNIFORMS_PER_ROUND = 4

# Rounds handled at once: drawn, mapped and sampled by run_protocol,
# converted to Python ints by Transcript, encoded per write by
# write_transcript.  It bounds the working memory of each, and no output
# depends on it.
_CHUNK = 1 << 16


class Prep(Enum):
    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class SimConfig:
    alpha: float
    beta: float
    p_plus: float = 0.5
    channel: Channel = IdealChannel()
    rounds: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if not (0.0 <= self.p_plus <= 1.0):
            raise ValueError(f"p_plus must lie in [0, 1], got {self.p_plus!r}")
        if not isinstance(self.channel, Channel):
            raise ValueError(f"unknown channel model: {self.channel!r}")
        if int(self.rounds) != self.rounds or self.rounds < 1:
            raise ValueError(f"rounds must be a positive integer, got {self.rounds!r}")
        if int(self.seed) != self.seed or not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


class RoundRecord(NamedTuple):
    index: int
    prep: Prep
    announced_gamma: complex
    bob_outcome: Parity
    eve_outcome: Parity | None = None


def _code_ints(codes: np.ndarray) -> Iterator[int]:
    """The kind codes as Python ints, converted ``_CHUNK`` at a time."""
    return chain.from_iterable(
        codes[start:start + _CHUNK].tolist() for start in range(0, len(codes), _CHUNK)
    )


class Transcript(Sequence[RoundRecord]):
    """Read-only sequence view of the rounds of one run.

    Round i is ``RoundRecord(i, *kinds[codes[i]])``.  Length, indexing,
    slicing and iteration give the same records a list would, and a
    transcript compares equal to a list of equal records.
    """

    __slots__ = ("_codes", "_kinds")

    def __init__(self, codes: np.ndarray, kinds: tuple):
        self._codes = codes
        self._kinds = kinds

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(len(self))[key]]
        i = range(len(self))[key]
        return RoundRecord(i, *self._kinds[self._codes[i]])

    def __iter__(self) -> Iterator[RoundRecord]:
        kinds = self._kinds
        for i, code in enumerate(_code_ints(self._codes)):
            yield RoundRecord(i, *kinds[code])

    def __eq__(self, other):
        if not isinstance(other, (list, Transcript)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Transcript(rounds={len(self)})"


@dataclass(frozen=True)
class SimStats:
    n_plus: int
    n_minus: int
    empirical_p01: float
    empirical_q01: float | None
    stderr_p01: float
    empirical_rate: float | None


@dataclass(frozen=True)
class ProtocolResult:
    stats: SimStats
    transcript: Transcript


def _squared_modulus(values: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(values):
        return values.real**2 + values.imag**2
    return values**2


def _parity(odd: bool) -> Parity:
    return Parity.ODD if odd else Parity.EVEN


def _sample_chunk(config: SimConfig, u: np.ndarray):
    """(plus, bob_odd, eve_odd or None) for the rounds whose uniforms are ``u``."""
    alpha, beta = config.alpha, config.beta
    plus = u[:, 0] < config.p_plus
    prep_amp = np.where(plus, alpha + beta, alpha - beta)
    gamma = -prep_amp  # gamma1 or gamma2, the announced corrective displacement

    components = config.channel.components(prep_amp)
    if len(components) == 1:
        _, bob_received, eve_received = components[0]
    else:
        # A preparation-independent mixture: scalar amplitudes, one drawn
        # per round by the round's component uniform.
        weights, bobs, eves = zip(*components)
        idx = np.searchsorted(np.cumsum(weights), u[:, 1], side="right")
        idx = np.minimum(idx, len(components) - 1)
        bob_received = np.asarray(bobs, dtype=complex)[idx]
        eve_received = None if eves[0] is None else np.asarray(eves, dtype=complex)[idx]

    bob_odd = batch_parity_is_odd(_squared_modulus(bob_received + gamma), u[:, 2])
    eve_odd: np.ndarray | None = None
    if eve_received is not None:
        eve_odd = batch_parity_is_odd(_squared_modulus(eve_received + gamma), u[:, 3])
    return plus, bob_odd, eve_odd


def run_protocol(config: SimConfig, keep_transcript: bool = True) -> ProtocolResult:
    """Simulate the configured number of rounds.

    Rounds are drawn, mapped and sampled ``_CHUNK`` at a time, so working
    memory does not grow with the run; the transcript keeps one byte per
    round.  ``keep_transcript=False`` leaves the transcript empty and skips
    its kind codes (the aggregate statistics are unchanged); useful for
    large repetition studies.
    """
    rounds = int(config.rounds)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    codes = np.empty(rounds, np.uint8) if keep_transcript else None
    n_plus = n_bob_odd = n_eve_odd = 0
    for start in range(0, rounds, _CHUNK):
        stop = min(start + _CHUNK, rounds)
        plus, bob_odd, eve_odd = _sample_chunk(
            config, rng.random((stop - start, _UNIFORMS_PER_ROUND))
        )
        n_plus += int(np.count_nonzero(plus))
        n_bob_odd += int(np.count_nonzero(bob_odd))
        if eve_odd is not None:
            n_eve_odd += int(np.count_nonzero(eve_odd))
        if codes is not None:
            chunk = codes[start:stop]
            chunk[:] = plus.astype(np.uint8) << 2
            chunk |= bob_odd.astype(np.uint8) << 1
            if eve_odd is not None:
                chunk |= eve_odd.astype(np.uint8)
    has_eve = eve_odd is not None

    p01 = n_bob_odd / rounds
    q01 = n_eve_odd / rounds if has_eve else None
    stderr = math.sqrt(p01 * (1.0 - p01) / rounds)
    rate = None
    if q01 is not None:
        rate = (1.0 - binary_entropy(p01)) - (1.0 - binary_entropy(q01))

    stats = SimStats(
        n_plus=n_plus,
        n_minus=rounds - n_plus,
        empirical_p01=p01,
        empirical_q01=q01,
        stderr_p01=stderr,
        empirical_rate=rate,
    )

    if codes is None:
        return ProtocolResult(stats=stats, transcript=Transcript(np.empty(0, np.uint8), ()))
    gamma1 = -(config.alpha + config.beta)
    gamma2 = -(config.alpha - config.beta)
    kinds = tuple(
        (
            Prep.PLUS if code & 4 else Prep.MINUS,
            complex(gamma1 if code & 4 else gamma2),
            _parity(code & 2),
            _parity(code & 1) if has_eve else None,
        )
        for code in range(8)
    )
    return ProtocolResult(stats=stats, transcript=Transcript(codes, kinds))


def empirical_key_rate(stats: SimStats) -> float:
    """(1 - H2(p01)) - (1 - H2(q01)) from empirical error estimates."""
    if stats.empirical_q01 is None:
        raise ValueError("no eavesdropper statistics present in this run")
    return (1.0 - binary_entropy(stats.empirical_p01)) - (
        1.0 - binary_entropy(stats.empirical_q01)
    )


_PARITY_LETTER = {Parity.EVEN: "E", Parity.ODD: "O"}
_LETTER_PARITY = {"E": Parity.EVEN, "O": Parity.ODD}

# Every line starts with the index field; the tail is the rest of the line.
_HEAD = '{"i":'

# A run has at most eight distinct tails; the cap only bounds the decoder's
# cache on files whose gammas vary from line to line.
_MAX_CACHED_TAILS = 64


def _record_to_json(record: RoundRecord) -> str:
    obj = {
        "i": record.index,
        "prep": record.prep.value,
        "gamma_re": record.announced_gamma.real,
        "gamma_im": record.announced_gamma.imag,
        "bob": _PARITY_LETTER[record.bob_outcome],
    }
    if record.eve_outcome is not None:
        obj["eve"] = _PARITY_LETTER[record.eve_outcome]
    return json.dumps(obj, separators=(",", ":"))


def _record_tail(record: RoundRecord) -> str:
    """The JSONL line of ``record`` after its index, newline included."""
    return _record_to_json(record._replace(index=0))[len(_HEAD) + 1:] + "\n"


def _cached_tails(records: Iterable[RoundRecord]) -> Iterator[tuple[int, str]]:
    # Keyed by the reprs of gamma's parts: equal complex values need not
    # encode alike (0.0 == -0.0), equal reprs do.
    tails: dict[tuple, str] = {}
    for record in records:
        gamma = record.announced_gamma
        key = (record.prep, record.bob_outcome, record.eve_outcome, repr(gamma.real), repr(gamma.imag))
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = _record_tail(record)
        yield record.index, tail


def _write_lines(transcript: Iterable[RoundRecord], fh) -> None:
    # (index, line tail) per round, each distinct tail rendered once.
    if isinstance(transcript, Transcript):
        tails = [_record_tail(RoundRecord(0, *kind)) for kind in transcript._kinds]
        pairs = enumerate(map(tails.__getitem__, _code_ints(transcript._codes)))
    else:
        pairs = _cached_tails(transcript)
    while text := "".join([f"{_HEAD}{i}{tail}" for i, tail in islice(pairs, _CHUNK)]):
        fh.write(text)


def write_transcript(transcript: Iterable[RoundRecord], sink) -> None:
    """Serialize records as JSONL, one object per line, UTF-8, LF endings.

    ``sink`` may be a path or a text file object.  The ``eve`` field is
    omitted, not null-encoded, when a round has no eavesdropper outcome.
    Each line is byte-identical to ``json.dumps`` of the record with
    compact separators; the text is written in chunks of whole lines.
    """
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            _write_lines(transcript, fh)
    else:
        _write_lines(transcript, sink)


def _decode_record(obj) -> RoundRecord:
    return RoundRecord(
        index=int(obj["i"]),
        prep=Prep(obj["prep"]),
        announced_gamma=complex(obj["gamma_re"], obj["gamma_im"]),
        bob_outcome=_LETTER_PARITY[obj["bob"]],
        eve_outcome=_LETTER_PARITY[obj["eve"]] if "eve" in obj else None,
    )


def _decode_lines(lines: Iterable[str]) -> list[RoundRecord]:
    # Tails of lines that were exactly the encoding of their record, mapped
    # to that record's fields.  A line '{"i":' + canonical digits + such a
    # tail is then the encoding of the same fields at that index, so it
    # decodes to them without json.loads.
    kinds: dict[str, tuple] = {}
    records: list[RoundRecord] = []
    append = records.append
    for line in lines:
        line = line.strip()
        if not line:
            continue
        cut = line.find(",")
        kind = kinds.get(line[cut:]) if cut > 0 else None
        if kind is not None and line.startswith(_HEAD):
            digits = line[len(_HEAD):cut]
            if digits.isascii() and digits.isdigit() and (len(digits) == 1 or digits[0] != "0"):
                append(RoundRecord(int(digits), *kind))
                continue
        record = _decode_record(json.loads(line))
        append(record)
        if len(kinds) < _MAX_CACHED_TAILS and line == _record_to_json(record):
            kinds[line[cut:]] = record[1:]
    return records


def read_transcript(source) -> list[RoundRecord]:
    """Parse a JSONL transcript back into records.

    ``source`` may be a path or a text file object; it is read one line
    at a time.  Blank lines and whitespace around a line are ignored.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return _decode_lines(fh)
    return _decode_lines(source)
