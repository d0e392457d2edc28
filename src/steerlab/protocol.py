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
in parallel without changing the transcript.  A round's kind is its
preparation and, for a mixture channel, its component; the kind fixes
Bob's and Eve's Poisson means, which a run computes once per kind.  Each
parity draw maps its single uniform through the Poisson CDF of its kind's
mean, tabulated over about 24 sqrt(mean) photon numbers, by one
coherent.ParitySampler per party and run: no table is built before a
round of its kind is drawn, and a short table drawn often enough is kept
for the rest of the run.  Identical configs produce bit-identical
transcripts.

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
line with ``json.loads``.  It reads ``_CHUNK`` lines at a time into a
``Transcript`` of its own, which also keeps the indices when they are
not 0, 1, ..., n - 1, and as many kinds as the file holds.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .coherent import Parity, ParitySampler
# Unused here: perfbench/selftest.py checks that the benchmark's tracer
# wraps this name in this module.
from .coherent import batch_parity_is_odd  # noqa: F401
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
# write_transcript, decoded per read by read_transcript.  It bounds the
# working memory of each, and no output depends on it.
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


def _chunked_ints(values: np.ndarray) -> Iterator[int]:
    """The entries of ``values`` as Python ints, converted ``_CHUNK`` at a time."""
    return chain.from_iterable(
        values[start:start + _CHUNK].tolist() for start in range(0, len(values), _CHUNK)
    )


class Transcript(Sequence[RoundRecord]):
    """Read-only sequence view of the rounds of a run or a transcript file.

    Entry k is ``RoundRecord(index[k], *kinds[codes[k]])``; an ``index``
    of None stands for the indices 0, 1, ..., n - 1 of a run.  Length,
    indexing, slicing and iteration give the same records a list would,
    with indices as Python ints, and a transcript compares equal to a list
    of equal records.
    """

    __slots__ = ("_codes", "_kinds", "_index")

    def __init__(self, codes: np.ndarray, kinds: tuple, index: np.ndarray | None = None):
        self._codes = codes
        self._kinds = kinds
        self._index = index

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[k] for k in range(len(self))[key]]
        k = range(len(self))[key]
        index = k if self._index is None else int(self._index[k])
        return tuple.__new__(RoundRecord, (index, *self._kinds[self._codes[k]]))

    def _indices(self) -> Iterable[int]:
        return range(len(self)) if self._index is None else _chunked_ints(self._index)

    def __iter__(self) -> Iterator[RoundRecord]:
        # Records are built as RoundRecord(index, *kind) would build them,
        # minus the NamedTuple's Python-level __new__: every kind holds the
        # four fields after the index.
        kinds, new = self._kinds, tuple.__new__
        for index, code in zip(self._indices(), _chunked_ints(self._codes)):
            yield new(RoundRecord, (index, *kinds[code]))

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


def _kind_samplers(config: SimConfig):
    """Bob's and Eve's (or None) ParitySampler over the round kinds, and the
    cumulative weights of the channel's components.

    A round's kind is prep * len(components) + component, with prep 1 for
    PLUS: the kind fixes both received amplitudes and the announced gamma,
    hence both parity means.  Each mean comes from the same numpy
    expressions a per-round array would take, so it is bitwise the mean of
    every round of its kind.  A mean that overflows is not an error here:
    the sampler reports it if a round of its kind is ever drawn.
    """
    prep_amp = np.array([config.alpha - config.beta, config.alpha + config.beta])
    gamma = -prep_amp[:, None]  # gamma2 and gamma1, the announced corrective displacements
    weights, bobs, eves = zip(*config.channel.components(prep_amp))

    def means(amplitudes) -> np.ndarray:
        # Received amplitudes as (2, components), or (components,) for the
        # scalar ones of a mixture, which broadcast over prep.
        received = np.array(amplitudes).T
        with np.errstate(over="ignore", invalid="ignore"):
            return _squared_modulus(received + gamma).ravel()

    eve = None if eves[0] is None else ParitySampler(means(eves))
    return np.cumsum(weights), ParitySampler(means(bobs)), eve


def _sample_chunk(samplers, p_plus: float, u: np.ndarray):
    """(plus, bob_odd, eve_odd or None) for the rounds whose uniforms are ``u``."""
    cumulative, bob, eve = samplers
    plus = u[:, 0] < p_plus
    kind = plus.astype(np.intp)
    if len(cumulative) > 1:
        # A preparation-independent mixture: one component per round, drawn
        # by the round's component uniform.
        component = np.searchsorted(cumulative, u[:, 1], side="right")
        kind *= len(cumulative)
        kind += np.minimum(component, len(cumulative) - 1)
    bob_odd = bob(kind, u[:, 2])
    eve_odd = None if eve is None else eve(kind, u[:, 3])
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
    samplers = _kind_samplers(config)
    n_plus = n_bob_odd = n_eve_odd = 0
    for start in range(0, rounds, _CHUNK):
        stop = min(start + _CHUNK, rounds)
        plus, bob_odd, eve_odd = _sample_chunk(
            samplers, config.p_plus, rng.random((stop - start, _UNIFORMS_PER_ROUND))
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

# Longest index the decoder's numpy pass parses: 10**18 - 1 fits int64.
# Longer indices go through the per-line path.
_MAX_RUN_DIGITS = 18


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


def _kind_key(prep: Prep, gamma: complex, bob: Parity, eve: Parity | None) -> tuple:
    # The reprs of gamma's parts: equal complex values need not encode
    # alike (0.0 == -0.0), equal reprs do.
    return (prep, bob, eve, repr(gamma.real), repr(gamma.imag))


def _cached_tails(records: Iterable[RoundRecord]) -> Iterator[tuple[int, str]]:
    tails: dict[tuple, str] = {}
    for record in records:
        key = _kind_key(*record[1:])
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = _record_tail(record)
        yield record.index, tail


def _write_lines(transcript: Iterable[RoundRecord], fh) -> None:
    # (index, line tail) per round, each distinct tail rendered once.
    if isinstance(transcript, Transcript):
        tails = [_record_tail(RoundRecord(0, *kind)) for kind in transcript._kinds]
        pairs = zip(transcript._indices(), map(tails.__getitem__, _chunked_ints(transcript._codes)))
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


def _tail_probes(tails: list[str]) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
    """Byte probes that tell the ``tails`` apart, and the tail each names.

    Each probe reads the byte at an offset into a tail, or the newline for
    an offset past its end, and maps (class so far, byte) to a finer class
    through its table.  Offsets are chosen greedily until every tail has a
    class of its own; the second result maps a class to its tail's
    position in ``tails``.
    """
    width = max(map(len, tails)) + 1
    rows = np.frombuffer(
        "".join(tail.ljust(width, "\n") for tail in tails).encode("ascii"), np.uint8
    ).reshape(len(tails), width)
    classes = np.zeros(len(tails), np.intp)
    probes = []
    while len(np.unique(classes)) < len(tails):
        keys = classes[:, None] * 256 + rows
        distinct = 1 + np.count_nonzero(np.diff(np.sort(keys, axis=0), axis=0), axis=0)
        offset = int(np.argmax(distinct))
        values, classes = np.unique(keys[:, offset], return_inverse=True)
        table = np.zeros(values[-1] + 1, np.intp)
        table[values] = np.arange(len(values))
        probes.append((offset, table))
    which = np.empty(len(tails), np.intp)
    which[classes] = np.arange(len(tails))
    return probes, which


class _LineDecoder:
    """Maps JSONL lines to (index, kind code), learning line tails as it goes.

    A tail is learned only from a line that is exactly the encoding of its
    record; a line '{"i":' + canonical digits + a learned tail is then the
    encoding of the same kind at that index.  Runs of such lines, each
    ending in a newline, are found by one regular expression and decoded
    together by numpy over the text's bytes; any other line is stripped
    and, unless it is a learned line, parsed with ``json.loads``.
    """

    def __init__(self):
        self.kinds: list[tuple] = []
        self._codes: dict[tuple, int] = {}
        self._tails: dict[str, int] = {}
        self._run: re.Pattern | None = None
        self._probes: list[tuple[int, np.ndarray]] = []
        self._probe_codes = np.empty(0, np.intp)

    def _code(self, kind: tuple) -> int:
        key = _kind_key(*kind)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self.kinds)
            self.kinds.append(kind)
        return code

    def _learn(self, tail: str, code: int) -> None:
        self._tails[tail] = code
        tails = list(self._tails)
        digits = f"(?:0|[1-9][0-9]{{0,{_MAX_RUN_DIGITS - 1}}})"
        alternatives = "|".join(map(re.escape, tails))
        self._run = re.compile(f"(?:{re.escape(_HEAD)}{digits}(?:{alternatives})\\n)*")
        self._probes, which = _tail_probes(tails)
        self._probe_codes = np.array(list(self._tails.values()), np.intp)[which]

    def run_end(self, text: str, pos: int) -> int:
        """End of the run of learned lines at ``text[pos:]``."""
        return pos if self._run is None else self._run.match(text, pos).end()

    def decode_learned(
        self, data: np.ndarray, starts: np.ndarray, newlines: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(indices, kind codes) of the learned lines ``data[starts:newlines]``.

        ``data`` holds one byte per character of the text.
        """
        all_commas = np.flatnonzero(data == ord(","))
        commas = all_commas[np.searchsorted(all_commas, starts + len(_HEAD))]
        digits = commas - starts - len(_HEAD)
        index = np.zeros(len(starts), np.int64)
        for k in range(int(digits.max())):
            digit = data[starts + len(_HEAD) + k].astype(np.int64) - ord("0")
            index = np.where(digits > k, index * 10 + digit, index)
        classes = np.zeros(len(starts), np.intp)
        for offset, table in self._probes:
            classes = table[classes * 256 + data[np.minimum(commas + offset, newlines)]]
        return index, self._probe_codes[classes]

    def decode_line(self, line: str) -> tuple[int, int] | None:
        """(index, kind code) of one line, or None for a blank line."""
        line = line.strip()
        if not line:
            return None
        cut = line.find(",")
        code = self._tails.get(line[cut:]) if cut > 0 else None
        if code is not None and line.startswith(_HEAD):
            digits = line[len(_HEAD):cut]
            if digits.isascii() and digits.isdigit() and (len(digits) == 1 or digits[0] != "0"):
                return int(digits), code
        record = _decode_record(json.loads(line))
        code = self._code(record[1:])
        if len(self._tails) < _MAX_CACHED_TAILS and line == _record_to_json(record):
            self._learn(line[cut:], code)
        return record.index, code


def _decode_chunk(decoder: _LineDecoder, chunk: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(indices, kind codes) of the records on the lines ``chunk``."""
    text = "".join(chunk)
    # One byte per character, so byte and character offsets agree.
    data = np.frombuffer(text.encode("latin-1", "replace"), np.uint8)
    lengths = np.fromiter(map(len, chunk), np.intp, len(chunk))
    ends = np.cumsum(lengths)
    newlines = np.flatnonzero(data == ord("\n"))
    # Runs are only taken where every line but the last ends in the text's
    # one newline, so that a run's lines are the source's own lines.
    aligned = len(newlines) >= len(chunk) - 1 and np.array_equal(newlines, ends[:len(newlines)] - 1)
    learned = np.zeros(len(chunk), bool)  # lines of runs, decoded below
    blank = np.zeros(len(chunk), bool)
    codes = np.empty(len(chunk), np.intp)
    index = np.empty(len(chunk), np.int64)
    done = pos = 0  # lines consumed, position in text
    while done < len(chunk):
        if aligned:
            end = decoder.run_end(text, pos)
            run = text.count("\n", pos, end)
            learned[done:done + run] = True
            done += run
            pos = end
            if done == len(chunk):
                break
        # The line after a run is decoded on its own.
        line = chunk[done]
        decoded = decoder.decode_line(line)
        if decoded is None:
            blank[done] = True
        else:
            value, codes[done] = decoded  # index, kind code
            try:
                index[done] = value
            except OverflowError:
                index = index.astype(object)
                index[done] = value
        done += 1
        pos += len(line)
    if learned.any():
        index[learned], codes[learned] = decoder.decode_learned(
            data, ends[learned] - lengths[learned], ends[learned] - 1
        )
    return index[~blank], codes[~blank]


def _decode_lines(lines: Iterable[str]) -> Transcript:
    decoder = _LineDecoder()
    lines = iter(lines)
    code_parts, index_parts = [], []
    rounds = 0
    while chunk := list(islice(lines, _CHUNK)):
        index, codes = _decode_chunk(decoder, chunk)
        code_parts.append(codes.astype(np.min_scalar_type(max(len(decoder.kinds) - 1, 0))))
        sequential = np.array_equal(index, np.arange(rounds, rounds + len(index)))
        index_parts.append(None if sequential else index)
        rounds += len(index)
    index = None
    if any(part is not None for part in index_parts):
        starts = np.cumsum([0] + [len(codes) for codes in code_parts])
        index = np.concatenate([
            np.arange(start, start + len(codes)) if part is None else part
            for start, codes, part in zip(starts, code_parts, index_parts)
        ])
    codes = np.concatenate(code_parts) if code_parts else np.empty(0, np.uint8)
    return Transcript(codes, tuple(decoder.kinds), index)


def read_transcript(source) -> Transcript:
    """Parse a JSONL transcript back into a read-only ``Transcript`` view.

    ``source`` may be a path or a text file object; it is read ``_CHUNK``
    lines at a time.  Blank lines and whitespace around a line are
    ignored.  The view compares equal to the list of the records and
    builds each ``RoundRecord`` when indexed or iterated.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return _decode_lines(fh)
    return _decode_lines(source)
