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
master seed.  Round i owns the block of four raw 64-bit words at stream
offsets 4 i .. 4 i + 3 (in order: preparation choice, mixture-component
choice, Bob's parity draw, Eve's parity draw), each standing for the
uniform (w >> 11) * 2**-53 that ``Generator.random()`` makes of it, so
any round's randomness is a pure function of (seed, round index): rounds
could be evaluated in any order or in parallel without changing the
transcript.  A round is PLUS when its first uniform is below p_plus,
compared as words.  A round's kind is its preparation and, for a mixture
channel, its component, chosen by its second uniform; the kind fixes
Bob's and Eve's Poisson means, which a run computes once per kind.  Each
parity draw maps its single word through the Poisson CDF of its kind's
mean, tabulated over about 24 sqrt(mean) photon numbers, by one
coherent.ParitySampler per run over Bob's kinds and then Eve's, made
before any round is drawn: each distinct mean of a preparation the run
can draw is tabulated once and kept for the rest of the run, shared by
both parties and every worker, and a run of at least as many rounds as a
table's guide row has bins gives a table of up to 2^21 entries a parity
code per bin of the words' top bits.
Identical configs produce bit-identical transcripts.

Chunked generation
------------------
A run is drawn, mapped and sampled in chunks of 2^14 rounds (``_LINES``),
and its counts are summed over the chunks, so working memory stays flat
as the run grows.  The run is split into contiguous ranges of whole
chunks, one per worker: up to one thread per usable CPU (``_WORKERS``),
never more than the run has chunks.  Each range starts its own Philox
generator by counter offset, ``Philox.advance(first round)``, and draws
through the run's one sampler, so its draws are exactly the words a
whole-run draw gives its rounds, each mapped through its mean's one
table: neither the chunk size nor the worker count changes any
statistic, transcript byte or error.  A range that fails stops every
later range at its next chunk, and the run raises the error of the first
failing range, the one a serial run meets first.

Transcript layout
-----------------
The announced gamma depends only on the preparation, so a round is one of
at most eight kinds (prep, gamma, bob, eve).  A run keeps one uint8 kind
code per round, prep << 2 | bob << 1 | eve (bits set for PLUS and ODD),
beside the table of kinds, so a transcript costs one byte per round.
``Transcript`` builds ``RoundRecord``s from the codes only when a caller
indexes or iterates.  The JSONL codec works on the same kinds.  The
encoder renders one line tail per kind and builds the lines of up to
``_LINES`` rounds as one numpy array of bytes, a row per line: the head
broadcast, the index digits looked up three at a time in a table of
"000" to "999", and the tails gathered by kind code.  Where lines differ
in width, the rows are right-padded and then cut to each line's width.
Only an index outside [0, 10**18) is rendered per line.  The bytes go to
a file, or to the buffer under a UTF-8 text file, as they are; only a
sink with no such buffer gets ``str``.  The decoder learns each kind's
tail from a line parsed by ``json.loads``, and checks and decodes the
lines of learned tails in one numpy pass per block of bytes, so that
only other lines become ``str``.  Lines of one width and digit count are
checked together: their bytes less each byte's least value, against how
far each may exceed it, with the bad lines looked for only in a group
that has one.  A run's lines mostly share one width, all but where the
index gains a digit or two gammas print at different widths, so a block
of a path is first cut into rows as wide as its first line: when every
row is a learned line, the block is decoded with no search for its line
ends and no UTF-8 pass, and otherwise line by line.  Lines of a text
source are the source's own, so they are always decoded line by line.
The decoder builds a ``Transcript`` of its own, which also keeps the
indices when they are not 0, 1, ..., n - 1, and as many kinds as the
file holds.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import os
import threading
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, islice, pairwise
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coherent import Parity, ParitySampler, _mean_photon_number, _uniforms
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

# _BLOCK: bytes read at once from a file.  _LINES: rounds drawn, mapped
# and sampled, lines encoded and written, lines read from a text source
# and entries converted to Python ints, at once.  Each bounds working
# memory, and no output depends on either.  _LINES keeps a piece near
# 1 MB of text, which malloc serves from memory it has already mapped
# (2^16 lines wrote and read text more slowly and raised the peak RSS),
# and a chunk of rounds, its 512 kB of uniforms and their temporaries,
# within a core's L2 cache (much larger or smaller chunks made a clone run
# slower).  CHANGES.md has the measurements.
_BLOCK = 1 << 19
_LINES = 1 << 14

# Most threads a run draws its rounds in: the CPUs this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    """The entries of ``values`` as Python ints, converted ``_LINES`` at a time."""
    return chain.from_iterable(
        values[start:start + _LINES].tolist() for start in range(0, len(values), _LINES)
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

    def __iter__(self) -> Iterator[RoundRecord]:
        # Records are built as RoundRecord(index, *kind) would build them,
        # minus the NamedTuple's Python-level __new__: every kind holds the
        # four fields after the index.
        kinds, new = self._kinds, tuple.__new__
        indices = range(len(self)) if self._index is None else _chunked_ints(self._index)
        for index, code in zip(indices, _chunked_ints(self._codes)):
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


def _parity(odd: bool) -> Parity:
    return Parity.ODD if odd else Parity.EVEN


def _kind_samplers(config: SimConfig):
    """The cumulative weights of the channel's components, one ParitySampler
    over Bob's means and then Eve's, and the offset of Eve's kinds in it,
    None without an eavesdropper.

    A round's kind is prep * len(components) + component, with prep 1 for
    PLUS: the kind fixes both received amplitudes and the announced gamma,
    hence both parity means.  Each mean comes from the same numpy
    expressions a per-round array would take, so it is bitwise the mean of
    every round of its kind.  A mean that overflows is not an error here:
    the sampler reports it if a round of its kind is ever drawn.  A
    preparation that p_plus 0 or 1 rules out gets nan means, so it builds
    no table.  A mean Bob and Eve share (at eta = pi/4, every kind's) is
    tabulated once.
    """
    prep_amp = np.array([config.alpha - config.beta, config.alpha + config.beta])
    gamma = -prep_amp[:, None]  # gamma2 and gamma1, the announced corrective displacements
    drawn = np.array([[config.p_plus < 1.0], [config.p_plus > 0.0]])  # MINUS, PLUS
    weights, bobs, eves = zip(*config.channel.components(prep_amp))

    def means(amplitudes) -> np.ndarray:
        # Received amplitudes as (2, components), or (components,) for the
        # scalar ones of a mixture, which broadcast over prep.
        received = np.array(amplitudes).T
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(drawn, _mean_photon_number(received + gamma), np.nan).ravel()

    lams, eve = means(bobs), None
    if eves[0] is not None:
        lams, eve = np.concatenate((lams, means(eves))), len(lams)
    return np.cumsum(weights), ParitySampler(lams, int(config.rounds)), eve


def _plus_below(p_plus: float) -> int | None:
    """The raw words below which a round is PLUS, or None when every round is.

    A word w is PLUS when its uniform (w >> 11) * 2**-53 is below p_plus,
    that is when w >> 11 < ceil(p_plus * 2**53), an exact product.
    """
    below = math.ceil(p_plus * 2**53) << 11
    return below if below < 2**64 else None


def _sample_chunk(samplers, plus_below: int | None, w: np.ndarray):
    """(plus, bob_odd, eve_odd or None) for the rounds whose raw words are ``w``."""
    cumulative, sampler, eve = samplers
    plus = np.ones(len(w), bool) if plus_below is None else w[:, 0] < plus_below
    kind = plus.astype(np.intp)
    if len(cumulative) > 1:
        # A preparation-independent mixture: one component per round, drawn
        # by the round's component uniform.  A uniform at or above the total
        # weight (which may fall short of 1) goes to the last component
        # whose cumulative weight rises, never to one of weight 0.
        component = np.searchsorted(cumulative, _uniforms(w[:, 1]), side="right")
        kind *= len(cumulative)
        kind += np.minimum(component, np.searchsorted(cumulative, cumulative[-1]))
    bob_odd = sampler(kind, w[:, 2])
    if eve is None:
        return plus, bob_odd, None
    kind += eve  # Eve's kinds follow Bob's
    return plus, bob_odd, sampler(kind, w[:, 3])


def _sample_range(config: SimConfig, samplers, start: int, stop: int, codes, stopped) -> list[int]:
    """[PLUS rounds, Bob's odd parities, Eve's odd parities] of rounds
    start to stop, drawn ``_LINES`` at a time as raw Philox words; their
    kind codes go into ``codes`` unless it is None.  Returns early once
    ``stopped()``."""
    bits = np.random.Philox(key=config.seed).advance(start)
    plus_below = _plus_below(config.p_plus)
    counts = [0, 0, 0]
    for first in range(start, stop, _LINES):
        if stopped():
            break
        last = min(first + _LINES, stop)
        plus, bob_odd, eve_odd = _sample_chunk(
            samplers, plus_below, bits.random_raw((last - first, _UNIFORMS_PER_ROUND))
        )
        counts[0] += int(np.count_nonzero(plus))
        counts[1] += int(np.count_nonzero(bob_odd))
        if eve_odd is not None:
            counts[2] += int(np.count_nonzero(eve_odd))
        if codes is not None:
            chunk = codes[first:last]
            chunk[:] = plus.astype(np.uint8) << 2
            chunk |= bob_odd.astype(np.uint8) << 1
            if eve_odd is not None:
                chunk |= eve_odd.astype(np.uint8)
    return counts


def run_protocol(config: SimConfig, keep_transcript: bool = True) -> ProtocolResult:
    """Simulate the configured number of rounds.

    Rounds are drawn, mapped and sampled ``_LINES`` at a time, so working
    memory does not grow with the run; the transcript keeps one byte per
    round.  A run of several chunks is split into one contiguous range of
    chunks per worker, up to ``_WORKERS``; the first range runs in the
    calling thread and each other one in a thread of its own, and the
    output and any error are those of a serial run.  Every range draws
    through one ParitySampler, made before any range starts, so each
    distinct Poisson mean is tabulated once per run, whatever the chunk
    and worker counts.  ``keep_transcript=False`` leaves the transcript
    empty and skips its kind codes (the aggregate statistics are
    unchanged); useful for large repetition studies.
    """
    rounds = int(config.rounds)
    codes = np.empty(rounds, np.uint8) if keep_transcript else None
    chunks = -(-rounds // _LINES)
    workers = min(_WORKERS, chunks)
    # Range w: chunks w * chunks // workers up to the next range's first.
    starts = [min(w * chunks // workers * _LINES, rounds) for w in range(workers + 1)]
    samplers = _kind_samplers(config)  # shared by every worker
    counts: list[list[int] | None] = [None] * workers
    errors: list[BaseException | None] = [None] * workers

    def work(w: int) -> None:
        # A range stops once an earlier one has failed; the first error is
        # raised below, in the calling thread, as a serial run raises it.
        def stopped() -> bool:
            return any(error is not None for error in errors[:w])
        try:
            counts[w] = _sample_range(config, samplers, starts[w], starts[w + 1], codes, stopped)
        except BaseException as error:
            errors[w] = error

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
        for thread in threads:
            thread.join()
    except BaseException as error:  # an interrupt while waiting stops the threads
        errors[0] = error
        raise
    for error in errors:
        if error is not None:
            raise error
    n_plus, n_bob_odd, n_eve_odd = map(sum, zip(*counts))
    has_eve = samplers[2] is not None

    p01 = n_bob_odd / rounds
    stats = SimStats(
        n_plus=n_plus,
        n_minus=rounds - n_plus,
        empirical_p01=p01,
        empirical_q01=n_eve_odd / rounds if has_eve else None,
        stderr_p01=math.sqrt(p01 * (1.0 - p01) / rounds),
        empirical_rate=None,
    )
    if has_eve:
        stats = replace(stats, empirical_rate=empirical_key_rate(stats))

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

# Most digits the decoder's numpy pass parses and the encoder's renders
# (10**18 - 1 fits int64).
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


class _KindCodes:
    """Codes of round kinds (prep, gamma, bob, eve) in order of first
    appearance; kinds that encode alike share a code."""

    def __init__(self):
        self.kinds: list[tuple] = []
        self._codes: dict[tuple, int] = {}

    def code(self, kind: tuple) -> int:
        prep, gamma, bob, eve = kind
        # The members' values, which hash as str, where the members would
        # hash through the Python-level Enum.__hash__; and the reprs of
        # gamma's parts: equal complex values need not encode alike
        # (0.0 == -0.0), equal reprs do.
        key = (
            prep._value_, bob._value_, None if eve is None else eve._value_,
            repr(gamma.real), repr(gamma.imag),
        )
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self.kinds)
            self.kinds.append(kind)
        return code


# The encoder renders indices in [0, 10**18) with numpy, three digits at a
# time through the rows "000" to "999" of _TRIPLES; _POWERS gives their
# digit counts.  It renders any other index with _index_text.
_TRIPLES = (np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
_POWERS = 10 ** np.arange(1, _MAX_RUN_DIGITS, dtype=np.int64)
_INDEX_LIMIT = 10**_MAX_RUN_DIGITS
_HEAD_BYTES = np.frombuffer(_HEAD.encode("ascii"), np.uint8)


def _tail_table(kinds: Sequence[tuple]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Each kind's line tail as text, as a row of bytes right-padded to the
    widest tail, and its width."""
    text = [_record_tail(RoundRecord(0, *kind)) for kind in kinds]  # ASCII
    widths = np.array([len(tail) for tail in text], np.intp)
    width = int(widths.max(initial=0))
    rows = np.frombuffer("".join(tail.ljust(width) for tail in text).encode("ascii"), np.uint8)
    return text, rows.reshape(len(text), width), widths


def _index_array(indices: list) -> np.ndarray:
    """Record indices as int64 when all are ints that fit, else as objects."""
    if set(map(type, indices)) == {int} and -(2**63) <= min(indices) and max(indices) < 2**63:
        return np.array(indices, np.int64)
    return np.fromiter(indices, object, len(indices))


def _pieces(transcript: Iterable[RoundRecord]) -> Iterator[tuple[np.ndarray, np.ndarray, tuple]]:
    """(indices, kind codes, tail table) of at most ``_LINES`` rounds at a time.

    Records are coded by kind a piece at a time, each piece with a table
    of its own kinds.
    """
    if isinstance(transcript, Transcript):
        codes, index, tails = transcript._codes, transcript._index, _tail_table(transcript._kinds)
        rounds = len(codes)
        # A run's own indices 0, 1, ..., n - 1 are also cut at each power of
        # ten, so that a piece's indices have one digit count.
        powers = _POWERS[_POWERS < rounds].tolist() if index is None else []
        for start, stop in pairwise(sorted({*range(0, rounds, _LINES), *powers, rounds})):
            indices = np.arange(start, stop) if index is None else index[start:stop]
            yield indices, codes[start:stop], tails
        return
    records = iter(transcript)
    while chunk := list(islice(records, _LINES)):
        kinds = _KindCodes()
        codes = np.fromiter(map(kinds.code, map(itemgetter(1, 2, 3, 4), chunk)), np.intp, len(chunk))
        yield _index_array(list(map(itemgetter(0), chunk))), codes, _tail_table(kinds.kinds)


def _renderable(index: np.ndarray) -> np.ndarray:
    """Mask of the indices numpy renders: ints in [0, 10**18)."""
    if index.dtype.kind in "iu":
        return (index >= 0) & (index < _INDEX_LIMIT)
    values = index.tolist()
    return np.fromiter((type(i) is int and 0 <= i < _INDEX_LIMIT for i in values), bool, len(values))


def _digit_counts(index: np.ndarray) -> np.ndarray:
    return 1 + np.searchsorted(_POWERS, index, side="right")


def _render(index: np.ndarray, codes: np.ndarray, tails: tuple) -> np.ndarray:
    """The lines of rounds with int64 indices in [0, 10**18) as one flat
    array of bytes, built a row per line, right-padded where lines differ
    in width, and then compressed to the lines' own widths."""
    _, table, widths = tails
    head, tail = len(_HEAD), table.shape[1]
    fewest, most = (len(str(int(i))) for i in (index.min(), index.max()))
    if fewest == most and len(table) <= len(codes):
        # Each line is gathered whole from its kind's line form, which is
        # faster than filling head and tail apart while the forms, a row
        # per kind, are no more than the lines.
        kinds = len(table)
        forms = np.hstack([
            np.broadcast_to(_HEAD_BYTES, (kinds, head)), np.zeros((kinds, most), np.uint8), table
        ])
        digits, groups = None, [(slice(None), most)]
        rows = np.take(forms, codes, axis=0)
    else:
        digits = _digit_counts(index)
        groups = [(np.flatnonzero(digits == count), count) for count in range(fewest, most + 1)]
        rows = np.empty((len(index), head + most + tail), np.uint8)
        rows[:, :head] = _HEAD_BYTES
        for lines, count in groups:
            rows[lines, head + count:head + count + tail] = np.take(table, codes[lines], axis=0)
    for lines, count in groups:
        stop, value = head + count, index[lines]
        while stop > head:  # three digits at a time, from the right
            high = value // 1000  # numpy's // by a scalar is faster than np.divmod
            value, low = high, value - 1000 * high
            start = max(stop - 3, head)
            rows[lines, start:stop] = np.take(_TRIPLES[:, start - stop:], low, axis=0)
            stop = start
    if digits is None and widths.min() == widths.max():
        return rows.reshape(-1)
    sizes = head + (most if digits is None else digits) + widths[codes]
    width = rows.shape[1]
    keep = np.arange(width) < np.arange(width + 1)[:, None]  # row s: the first s columns
    return rows[keep[sizes]]


def _index_text(i) -> str:
    """An index as json.dumps renders it, or as str where json.dumps cannot."""
    try:
        return json.dumps(i)
    except TypeError:
        return str(i)


def _encode(index: np.ndarray, codes: np.ndarray, tails: tuple, errors: str) -> np.ndarray | bytes:
    """The JSONL lines of one piece as bytes.  An index numpy cannot
    render, one outside [0, 10**18) or not an int, goes through
    ``_index_text``, encoded as UTF-8 with the error handler ``errors``."""
    ok = _renderable(index)
    if ok.all():
        return _render(index.astype(np.int64, copy=False), codes, tails)
    tail_text, _, widths = tails
    lines, others = np.flatnonzero(ok), np.flatnonzero(~ok)
    fine = index[lines].astype(np.int64)
    data = memoryview(_render(fine, codes[lines], tails) if len(lines) else b"")
    sizes = len(_HEAD) + _digit_counts(fine) + widths[codes[lines]]
    # Other line k follows the rendered lines before it.
    cuts = np.concatenate(([0], np.cumsum(sizes)))[others - np.arange(len(others))].tolist()
    parts, done = [], 0
    for cut, i, code in zip(cuts, index[others].tolist(), codes[others].tolist()):
        parts += (data[done:cut], f"{_HEAD}{_index_text(i)}{tail_text[code]}".encode("utf-8", errors))
        done = cut
    parts.append(data[done:])
    return b"".join(parts)


def write_transcript(transcript: Iterable[RoundRecord], sink) -> None:
    """Serialize records as JSONL, one object per line, UTF-8, LF endings.

    ``sink`` may be a path or a text file object.  The ``eve`` field is
    omitted, not null-encoded, when a round has no eavesdropper outcome.
    Each line is byte-identical to ``json.dumps`` of the record with
    compact separators.  Records are coded by kind, a view's codes are
    used as they are, and the lines of at most ``_LINES`` rounds at a time
    are built by numpy as one array of bytes and written at once, so that
    about 1 MB of text is held at a time.  A path is opened in binary mode.
    A UTF-8 text file (``sys.stdout``, a file from ``open``) is flushed
    once and then gets the bytes through its ``buffer``, past its own
    newline translation; any other sink (``io.StringIO``) gets ``str``.
    """
    pieces = _pieces(transcript)
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "wb") as fh:
            for piece in pieces:
                fh.write(_encode(*piece, "strict"))
    elif isinstance(sink, io.TextIOWrapper) and codecs.lookup(sink.encoding).name == "utf-8":
        sink.flush()  # text written before the transcript stays before it
        for piece in pieces:
            sink.buffer.write(_encode(*piece, sink.errors))
    else:
        for piece in pieces:
            sink.write(str(_encode(*piece, "surrogatepass"), "utf-8", "surrogatepass"))


def _decode_record(obj) -> RoundRecord:
    return RoundRecord(
        index=int(obj["i"]),
        prep=Prep(obj["prep"]),
        announced_gamma=complex(obj["gamma_re"], obj["gamma_im"]),
        bob_outcome=_LETTER_PARITY[obj["bob"]],
        eve_outcome=_LETTER_PARITY[obj["eve"]] if "eve" in obj else None,
    )


class _LineDecoder(_KindCodes):
    """Maps JSONL lines to (index, kind code), learning line tails as it goes.

    A tail is learned only from a line that is exactly the encoding of its
    record; a line '{"i":' + canonical digits + a learned tail + newline is
    then the encoding of the same kind at that index.  ``decode_fast`` finds
    such lines among a block's bytes and checks and parses them with numpy;
    ``decode_line`` parses any other line, stripped, with ``json.loads``.
    """

    def __init__(self):
        super().__init__()
        self._tails: dict[str, int] = {}
        # Per tail width, newline included, widest first: those tails' lines
        # less digits, in class order, their kind codes and their probes.
        self._forms: dict[int, tuple[np.ndarray, np.ndarray, list]] = {}
        self._checks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _learn(self, tail: str, code: int) -> None:
        self._tails[tail] = code
        same = [t for t in self._tails if len(t) == len(tail)]
        rows = np.array([list(f"{_HEAD}{t}\n".encode("ascii")) for t in same], np.uint8)
        # Probes map (class so far, byte in a column) to finer classes, one per tail.
        classes, probes = np.zeros(len(same), np.intp), []
        for col in np.flatnonzero((rows != rows[0]).any(axis=0)).tolist():
            values, finer = np.unique(classes * 256 + rows[:, col], return_inverse=True)
            if len(values) > classes.max() + 1:
                table = np.zeros(256 * (classes.max() + 1), np.intp)
                table[values] = np.arange(len(values))
                probes.append((col, table))
                classes = finer
        order = np.argsort(classes)
        codes = np.array([self._tails[t] for t in same], np.intp)
        self._forms[len(tail) + 1] = (rows[order], codes[order], probes)
        self._forms = dict(sorted(self._forms.items(), reverse=True))
        self._checks = {}

    def _bounds(self, width: int, digits: int) -> tuple[np.ndarray, np.ndarray]:
        """The least value of each byte of the learned lines of ``digits``
        digits and tails of ``width`` bytes, a row per class, and by how much
        a byte may exceed it: 9 in a digit, 8 in a leading digit that may not
        be 0, and 0 elsewhere."""
        if (width, digits) not in self._checks:
            at, leading = [len(_HEAD)] * digits, digits > 1
            low = np.insert(self._forms[width][0], at, ord("0"), axis=1)
            span = np.insert(np.zeros(low.shape[1] - digits, np.uint8), at, 9)
            low[:, len(_HEAD)] += leading
            span[len(_HEAD)] -= leading
            self._checks[width, digits] = low, span
        return self._checks[width, digits]

    def _check(self, rows: np.ndarray, width: int, digits: int) -> tuple:
        """(the rows that are learned lines, None when all are, their indices,
        their kind codes) of ``rows``, lines of ``digits`` digits and a tail
        of ``width`` bytes, one per row: a row's bytes less each byte's least
        value in its class, against how far each may exceed it."""
        _, codes, probes = self._forms[width]
        classes = np.zeros(len(rows), np.intp)
        for col, table in probes:
            classes = table[classes * 256 + rows[:, digits + col]]
        low, span = self._bounds(width, digits)
        excess = np.take(low, classes, axis=0)
        np.subtract(rows, excess, out=excess)  # wraps round where a byte is below its least value
        bad = np.greater(excess, span)
        ok = None
        if bad.any():  # rows with a bad byte are left to the caller
            ok = np.flatnonzero(~bad.any(axis=1))
            classes, excess = classes[ok], excess[ok]
        number = excess[:, len(_HEAD)].astype(np.int64)
        if digits > 1:
            number += 1  # the leading digit's least value
        for col in range(len(_HEAD) + 1, len(_HEAD) + digits):
            number *= 10
            number += excess[:, col]
        return ok, number, codes[classes]

    def decode_rows(self, block: memoryview) -> tuple | None:
        """(indices, kind codes) of a block from a path whose lines are all
        learned lines of the width and digit count of its first, or None.

        The block is cut into rows as wide as its first line and checked as
        one array, with no search for the other lines' ends: a row that
        passes ends in its only newline, so the rows are the block's lines.
        """
        buffer, size = block.obj, len(block)  # a view of the start of a bytearray
        width = buffer.find(b"\n", 0, size) + 1
        digits = buffer.find(b",", 0, width) - len(_HEAD)
        tail = width - len(_HEAD) - digits
        if not (0 < digits <= _MAX_RUN_DIGITS and tail in self._forms and size % width == 0):
            return None
        ok, number, codes = self._check(np.frombuffer(block, np.uint8).reshape(-1, width), tail, digits)
        return None if ok is not None else (number, codes)

    def decode_fast(self, data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple:
        """(positions, indices, kind codes) of the learned lines data[starts:stops]."""
        # Group: 32 * (1 + the rank of the tail width) + digits.  A tail starts
        # at the first comma after the digits, so the widest are tried first.
        group = np.zeros(len(starts), np.intp)
        for rank, width in enumerate(self._forms, 1):
            digits = stops - starts - len(_HEAD) - width
            lines = np.flatnonzero((group == 0) & (digits > 0) & (digits <= _MAX_RUN_DIGITS))
            lines = lines[data[stops[lines] - width] == ord(",")]
            group[lines] = 32 * rank + digits[lines]
        widths = list(self._forms)
        found = [(np.empty(0, np.intp), np.empty(0, np.int64), np.empty(0, np.intp))]
        for key in (np.flatnonzero(np.bincount(group)[1:]) + 1).tolist():
            width, digits = widths[key // 32 - 1], key % 32
            size = len(_HEAD) + digits + width
            lines = np.flatnonzero(group == key)
            at = starts[lines]
            rows = sliding_window_view(data, size)  # a view where the lines lie end to end
            rows = rows[at[0]:at[-1] + 1:size] if at[-1] - at[0] == size * (len(at) - 1) else rows[at]
            ok, number, codes = self._check(rows, width, digits)
            found.append((lines if ok is None else lines[ok], number, codes))
        return tuple(map(np.concatenate, zip(*found)))

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
        code = self.code(record[1:])
        if len(self._tails) < _MAX_CACHED_TAILS and line == _record_to_json(record):
            self._learn(line[cut:], code)
        return record.index, code


def _decode_block(decoder: _LineDecoder, block: bytes | memoryview, stops: np.ndarray) -> tuple:
    """(indices, kind codes) of the records on the lines of ``block`` that
    end at ``stops``: the learned ones decoded in bulk, the others one by one."""
    data, starts, n = np.frombuffer(block, np.uint8), np.append(0, stops[:-1]), len(stops)
    index, codes = np.empty(n, np.int64), np.empty(n, np.intp)
    pending, pos, passed, quiet = np.arange(n), 0, -1, 0
    while pos < len(pending):
        # A bulk pass first, then over the lines left once new tails have been
        # quiet for 64 lines, if enough are left: once per learned tail at most.
        if passed < 0 or (len(decoder._tails) > passed and quiet >= 64 and len(pending) - pos >= 1024):
            lines = pending[pos:]
            found, values, kinds = decoder.decode_fast(data, starts[lines], stops[lines])
            index[lines[found]], codes[lines[found]] = values, kinds
            pending, pos, passed = np.delete(lines, found), 0, len(decoder._tails)
            continue
        k, tails = pending[pos], len(decoder._tails)
        pos += 1
        # Lone surrogates of a text source pass; a file was checked strictly.
        decoded = decoder.decode_line(str(block[starts[k]:stops[k]], "utf-8", "surrogatepass"))
        value, codes[k] = (0, -1) if decoded is None else decoded  # code -1: a blank line
        if index.dtype != object and not -(2**63) <= value < 2**63:
            index = index.astype(object)
        index[k] = value
        quiet = 0 if len(decoder._tails) > tails else quiet + 1
    return index[codes >= 0], codes[codes >= 0]


def _byte_blocks(fh) -> Iterator[memoryview]:
    """Nonempty blocks of whole lines of the binary file ``fh``, with text
    mode's newlines: "\\r\\n" and a lone "\\r" become "\\n".  A "\\r\\n" split
    between two reads leaves a blank line, which the decoder skips.  No line
    end but the last is looked for, nor any byte checked for UTF-8: a block
    of learned lines of one width needs neither, and ``_line_stops`` does
    both for any other.  Every block is a view of the start of one bytearray
    (``block.obj``), which the next block overwrites."""
    buffer, kept = bytearray(), 0  # kept: the bytes after the last newline so far
    while True:
        size = max(_BLOCK, kept)  # reads grow with a longer line
        if len(buffer) < kept + size:
            buffer = buffer[:kept] + bytearray(2 * size)  # room for later kept bytes too
        got = fh.readinto(memoryview(buffer)[kept:kept + size])
        if buffer.find(b"\r", kept, kept + got) >= 0:
            read = buffer[kept:kept + got].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            buffer[kept:kept + len(read)], got = read, len(read)
        end = kept + got
        cut = buffer.rfind(b"\n", 0, end) + 1 if got else end
        if cut:
            yield memoryview(buffer)[:cut]
        if not got:
            return
        buffer[:end - cut], kept = buffer[cut:end], end - cut


def _line_stops(block: memoryview) -> np.ndarray:
    """The end of each line of a block of ``_byte_blocks``, whose bytes must
    be UTF-8 as text mode reads them, else ``UnicodeDecodeError``."""
    data = np.frombuffer(block, np.uint8)
    if data.max(initial=0) >= 0x80:
        str(block, "utf-8")
    newlines = np.flatnonzero(data[:-1] == ord("\n"))
    return np.append(newlines + 1, len(block))


def _text_blocks(lines: Iterable[str]) -> Iterator[tuple[bytes, np.ndarray]]:
    """The lines of a text source ``_LINES`` at a time, as UTF-8 bytes with
    the end of each line: the source's own lines, wherever its newlines are."""
    lines = iter(lines)
    while chunk := list(islice(lines, _LINES)):
        text = "".join(chunk)
        if not text.isascii():  # lines of more bytes than characters
            chunk = [line.encode("utf-8", "surrogatepass") for line in chunk]
        stops = np.cumsum(np.fromiter(map(len, chunk), np.intp, len(chunk)))
        yield text.encode("utf-8", "surrogatepass"), stops


def _decode_pieces(decoder: _LineDecoder, pieces: Iterable[tuple]) -> Transcript:
    """The ``Transcript`` of the (indices, kind codes) pieces ``decoder`` made."""
    code_parts, index_parts = [], []
    rounds = 0
    for index, codes in pieces:
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

    ``source`` may be a path, read as bytes in blocks of ``_BLOCK`` with
    universal newlines, or a text file object, whose ``str`` lines are
    read ``_LINES`` at a time.  A block of a path whose lines are all
    learned lines of one width is decoded as one array of rows; any other
    block, and every block of a text source, line by line.  Blank lines
    and whitespace around a line are ignored.  The view compares equal to
    the list of the records and builds each ``RoundRecord`` when indexed
    or iterated.
    """
    decoder = _LineDecoder()
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return _decode_pieces(decoder, (
                decoder.decode_rows(block) or _decode_block(decoder, block, _line_stops(block))
                for block in _byte_blocks(fh)
            ))
    return _decode_pieces(decoder, (_decode_block(decoder, *block) for block in _text_blocks(source)))
