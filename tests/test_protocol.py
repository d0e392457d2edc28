import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab import protocol
from steerlab.coherent import Parity
from steerlab.keyrate import binary_entropy, bob_error, eve_error
from steerlab.protocol import (
    Prep,
    RoundRecord,
    SimConfig,
    SimStats,
    Transcript,
    empirical_key_rate,
    read_transcript,
    run_protocol,
    write_transcript,
)
from steerlab.steering import GaussianCloneChannel, IdealChannel, LhsMixtureChannel


class TestRunProtocol:
    def test_ideal_channel_is_errorless(self):
        result = run_protocol(SimConfig(alpha=1.0, beta=0.5, rounds=5000, seed=1))
        assert result.stats.empirical_p01 == 0.0
        assert result.stats.empirical_q01 is None
        assert all(r.bob_outcome is Parity.EVEN for r in result.transcript)

    def test_single_round(self):
        result = run_protocol(SimConfig(alpha=1.0, beta=0.5, rounds=1, seed=9))
        assert len(result.transcript) == 1
        stats = result.stats
        assert stats.n_plus + stats.n_minus == 1
        assert stats.empirical_p01 in (0.0, 1.0)

    def test_clone_statistics_match_analytic(self):
        alpha, beta, eta = 1.0, 0.5, math.pi / 4
        rounds = 200_000
        config = SimConfig(
            alpha=alpha,
            beta=beta,
            channel=GaussianCloneChannel(eta=eta),
            rounds=rounds,
            seed=77,
        )
        stats = run_protocol(config, keep_transcript=False).stats
        p = bob_error(alpha, beta, eta)
        q = eve_error(alpha, beta, eta)
        sigma_p = math.sqrt(p * (1 - p) / rounds)
        sigma_q = math.sqrt(q * (1 - q) / rounds)
        assert abs(stats.empirical_p01 - p) < 4 * sigma_p
        assert abs(stats.empirical_q01 - q) < 4 * sigma_q

    def test_preparation_frequency(self):
        p_plus = 0.3
        rounds = 100_000
        stats = run_protocol(
            SimConfig(alpha=1.0, beta=0.5, p_plus=p_plus, rounds=rounds, seed=4),
            keep_transcript=False,
        ).stats
        tol = 4 * math.sqrt(p_plus * (1 - p_plus) / rounds)
        assert abs(stats.n_plus / rounds - p_plus) < tol

    def test_announced_gamma_matches_preparation(self):
        alpha, beta = 1.0, 0.5
        result = run_protocol(SimConfig(alpha=alpha, beta=beta, rounds=200, seed=5))
        for record in result.transcript:
            expected = -(alpha + beta) if record.prep is Prep.PLUS else -(alpha - beta)
            assert record.announced_gamma == complex(expected)

    def test_seed_determinism_bytes(self):
        config = SimConfig(
            alpha=1.0,
            beta=0.5,
            channel=GaussianCloneChannel(eta=0.6),
            rounds=10_000,
            seed=2024,
        )
        first, second = io.StringIO(), io.StringIO()
        write_transcript(run_protocol(config).transcript, first)
        write_transcript(run_protocol(config).transcript, second)
        assert first.getvalue() == second.getvalue()

    def test_transcript_is_a_read_only_record_sequence(self):
        config = SimConfig(
            alpha=1.0, beta=0.5, channel=GaussianCloneChannel(eta=0.4), rounds=60, seed=21
        )
        view = run_protocol(config).transcript
        records = list(view)
        assert isinstance(view, Transcript)
        assert len(view) == 60
        assert [r.index for r in records] == list(range(60))
        assert all(type(r) is RoundRecord for r in records)
        assert type(view[7]) is RoundRecord
        assert view[7] == records[7] and view[-1] == records[-1]
        assert view[5:40:3] == records[5:40:3]
        assert isinstance(view[5:9], list)
        assert view == records and records == view
        assert view != records[:-1] and view != records[::-1]
        assert view != tuple(records)
        with pytest.raises(IndexError):
            view[60]
        with pytest.raises(TypeError):
            view[0] = records[0]

    def test_keep_transcript_flag_preserves_stats(self):
        config = SimConfig(alpha=1.0, beta=0.5, rounds=3000, seed=8)
        with_records = run_protocol(config, keep_transcript=True)
        without = run_protocol(config, keep_transcript=False)
        assert with_records.stats == without.stats
        assert without.transcript == []

    def test_lhs_channel_runs(self):
        channel = LhsMixtureChannel(states=(0.0, 1.0 + 0.5j), weights=(0.25, 0.75))
        result = run_protocol(
            SimConfig(alpha=1.0, beta=0.5, channel=channel, rounds=2000, seed=6)
        )
        assert result.stats.empirical_q01 is None
        assert 0.0 <= result.stats.empirical_p01 <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(alpha=1.0, beta=0.5, rounds=0)
        with pytest.raises(ValueError):
            SimConfig(alpha=1.0, beta=0.5, p_plus=1.5)
        with pytest.raises(ValueError):
            SimConfig(alpha=1.0, beta=0.5, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(alpha=float("nan"), beta=0.5)
        with pytest.raises(ValueError):
            SimConfig(alpha=1.0, beta=0.5, channel="ideal")


class TestEmpiricalKeyRate:
    def test_equal_errors_give_zero(self):
        stats = SimStats(
            n_plus=1, n_minus=1, empirical_p01=0.2, empirical_q01=0.2,
            stderr_p01=0.0, empirical_rate=0.0,
        )
        assert empirical_key_rate(stats) == 0.0

    def test_perfect_bob_ignorant_eve(self):
        stats = SimStats(
            n_plus=1, n_minus=1, empirical_p01=0.0, empirical_q01=0.5,
            stderr_p01=0.0, empirical_rate=None,
        )
        assert empirical_key_rate(stats) == 1.0

    def test_missing_eve_statistics_rejected(self):
        stats = run_protocol(SimConfig(alpha=1.0, beta=0.5, rounds=10, seed=0)).stats
        with pytest.raises(ValueError):
            empirical_key_rate(stats)

    def test_no_attack_run_approaches_analytic(self):
        alpha, beta = 1.0, 0.5
        rounds = 100_000
        config = SimConfig(
            alpha=alpha,
            beta=beta,
            channel=GaussianCloneChannel(eta=0.0),
            rounds=rounds,
            seed=13,
        )
        stats = run_protocol(config, keep_transcript=False).stats
        assert stats.empirical_p01 == 0.0
        q = eve_error(alpha, beta, 0.0)
        sigma_q = math.sqrt(q * (1 - q) / rounds)
        assert abs(stats.empirical_q01 - q) < 4 * sigma_q
        rate = empirical_key_rate(stats)
        assert rate == stats.empirical_rate
        assert abs(rate - binary_entropy(q)) < 0.01


# SHA-256 of the JSONL transcripts of 2000-round runs (alpha=1, beta=0.5).
# The ideal and clone hashes were recorded before the transcript became
# columnar, the mixture hash before the channels shared one component map.
# A change to the codec, the stream discipline, the channel map or the
# sampler that moves a single byte fails here.
GOLDEN_TRANSCRIPTS = [
    ("ideal", 7, "ab9d166ae7e370d36f928bf263666e39ebabebcf89a6f374974b761c64e33dd7"),
    ("ideal", 2024, "127befa1ab8e5cc705add52d0ca2b308ca86498e982ae6223d8c297d228e9b35"),
    ("clone", 7, "27f428d988fff7eb1a352f229bf584ee8eb3a71327fbcaa540a6a2ce6d82937e"),
    ("clone", 2024, "95c3d15f2b179e4cfed6a398562d7cb17473d4d6100936553579ce846a0a3050"),
    ("mixture", 7, "a9d6d8c74fc0f23b57c8f65d3df7fe54c7e14d8ea81a269f013e907583227d1b"),
]

GOLDEN_CHANNELS = {
    "ideal": IdealChannel(),
    "clone": GaussianCloneChannel(eta=0.6),
    "mixture": LhsMixtureChannel(states=(0.0, 1.0 + 0.5j, -0.3), weights=(0.25, 0.5, 0.25)),
}


@pytest.mark.parametrize("channel,seed,digest", GOLDEN_TRANSCRIPTS)
def test_golden_transcript_hashes(tmp_path, channel, seed, digest):
    model = GOLDEN_CHANNELS[channel]
    config = SimConfig(alpha=1.0, beta=0.5, channel=model, rounds=2000, seed=seed)
    path = tmp_path / "golden.jsonl"
    write_transcript(run_protocol(config).transcript, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert read_transcript(path) == run_protocol(config).transcript


# SHA-256 of the stats (json.dumps of the SimStats fields, sorted keys) and
# of the JSONL transcript of runs longer than one chunk whose round counts
# are not a multiple of it, recorded while a run still drew all its rounds
# at once.
MULTI_CHUNK_GOLDENS = [
    (
        "clone",
        200_001,
        31,
        "18b8dba4ec3b5a4a837ee5d01c063a9511cff84f9d399dc77c5807e3b1e4abba",
        "45f0f9f40a88400fd3a2d711689e7ad4be6779528735165234a82ba93a42f0f8",
    ),
    (
        "mixture",
        150_000,
        32,
        "12c912da6ffb8853a676ea0a7eb9c096d72a36da35ec571fea8a7292da529bfa",
        "6e3b12d79a0fe3a59e744b8baa253c19ac94d5112c6fbc24d6d39fea571538fb",
    ),
]


def _stats_digest(stats: SimStats) -> str:
    text = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "channel,rounds,seed,stats_digest,transcript_digest",
    MULTI_CHUNK_GOLDENS,
    ids=[golden[0] for golden in MULTI_CHUNK_GOLDENS],
)
def test_multi_chunk_golden_hashes(channel, rounds, seed, stats_digest, transcript_digest):
    assert rounds > protocol._CHUNK and rounds % protocol._CHUNK
    config = SimConfig(
        alpha=1.0, beta=0.5, channel=GOLDEN_CHANNELS[channel], rounds=rounds, seed=seed
    )
    result = run_protocol(config)
    buf = io.StringIO()
    write_transcript(result.transcript, buf)
    assert _stats_digest(result.stats) == stats_digest
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == transcript_digest
    assert run_protocol(config, keep_transcript=False).stats == result.stats


# The same digests for clone runs at eta = pi/4 whose Bob and Eve means
# (about 860, 7.7e3 and 3.4e5) put every Poisson table on a window that
# starts above 0 and is normalised over it: 742-748, 2147-2154 and
# 14097-14104 entries.
# Recorded while each chunk still built one table per distinct mean.
WINDOWED_GOLDENS = [
    (
        100.0,
        "cae9ce44fdaaf76ed9ee3e419954e56e4477d17194f82f589b78d5e47386f66d",
        "f2065d677a94425baf23fa3d9ec5644a94a7475a55cb1fd69a025f7b03b71308",
    ),
    (
        300.0,
        "b88f396135ddb6738604ab57dc1e13828e0ef818ab1b7fbd4c7c328b2bab23f9",
        "2b7715fa116c50fe4c63668fb931997d4070b80b084f06ca8ed130011b51ba9f",
    ),
    (
        2000.0,
        "04308773f3703aa9ca5ebbfca1312c700a4ca7ff86cecdffa17a57d1160c5387",
        "1ed9dd1052629707539069bdc85054e65ce92fbabeed2f84e6d2363e06d5064d",
    ),
]


@pytest.mark.parametrize("alpha,stats_digest,transcript_digest", WINDOWED_GOLDENS)
def test_windowed_golden_hashes(alpha, stats_digest, transcript_digest):
    channel = GaussianCloneChannel(eta=math.pi / 4)
    config = SimConfig(alpha=alpha, beta=0.5, channel=channel, rounds=protocol._CHUNK + 17, seed=41)
    result = run_protocol(config)
    buf = io.StringIO()
    write_transcript(result.transcript, buf)
    assert _stats_digest(result.stats) == stats_digest
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == transcript_digest


# Largest round count drawn per chunk size, so that the example takes a few
# chunks without a per-round loop of thousands of iterations.
_MAX_ROUNDS_PER_CHUNK = {1: 40, 3: 200, 4096: 13_000}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    chunk_and_rounds=st.sampled_from(sorted(_MAX_ROUNDS_PER_CHUNK)).flatmap(
        lambda chunk: st.tuples(
            st.just(chunk), st.integers(min_value=1, max_value=_MAX_ROUNDS_PER_CHUNK[chunk])
        )
    ),
    whole_run_slack=st.integers(min_value=0, max_value=3),
    channel=st.one_of(
        st.just(IdealChannel()),
        st.floats(min_value=0.0, max_value=math.pi / 2).map(lambda eta: GaussianCloneChannel(eta=eta)),
        st.just(GOLDEN_CHANNELS["mixture"]),
    ),
)
def test_chunk_size_changes_no_output(seed, chunk_and_rounds, whole_run_slack, channel):
    # Philox is counter-based, so drawing the rounds chunk by chunk gives
    # the stream of one draw of the whole run, and every count adds up.
    chunk, rounds = chunk_and_rounds
    config = SimConfig(alpha=1.0, beta=0.5, channel=channel, rounds=rounds, seed=seed)
    with mock.patch.object(protocol, "_CHUNK", rounds + whole_run_slack):
        whole = run_protocol(config)
    with mock.patch.object(protocol, "_CHUNK", chunk):
        chunked = run_protocol(config)
        stats_only = run_protocol(config, keep_transcript=False)
        text = io.StringIO()
        write_transcript(chunked.transcript, text)
        records = list(chunked.transcript)
    assert chunked.stats == whole.stats == stats_only.stats
    assert np.array_equal(chunked.transcript._codes, whole.transcript._codes)
    assert chunked.transcript._kinds == whole.transcript._kinds
    assert text.getvalue() == _reference_encode(records)
    assert records == whole.transcript


def test_statistics_only_run_memory_stays_flat():
    # Peak RSS of a 5e6-round CLI run, measured in an intermediate process
    # so that no other child of the test process counts.  On Linux with
    # numpy 2.4, drawing every round at once peaked at about 440 MB; chunks
    # peak at about 45 MB, most of it the interpreter and numpy.
    pytest.importorskip("resource")
    probe = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'steerlab.cli', 'protocol', '--channel', 'clone',"
        " '--rounds', '5000000', '--out', '-'], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(protocol.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True, timeout=120
    ).stdout
    peak_kb = int(out) / (1024 if sys.platform == "darwin" else 1)
    assert peak_kb < 100 * 1024


class TestTranscriptCodec:
    def test_empty_transcript(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_transcript([], path)
        assert path.read_bytes() == b""
        assert read_transcript(path) == []

    def test_round_trip_identity(self, tmp_path):
        records = [
            RoundRecord(0, Prep.PLUS, complex(-1.5, 0.0), Parity.EVEN, Parity.ODD),
            RoundRecord(1, Prep.MINUS, complex(-0.5, 0.25), Parity.ODD, Parity.EVEN),
            RoundRecord(2, Prep.PLUS, complex(-1.5, 0.0), Parity.EVEN, None),
        ]
        path = tmp_path / "t.jsonl"
        write_transcript(records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        decoded = read_transcript(path)
        assert decoded == records
        # Records are built without RoundRecord's own __new__.
        assert all(type(r) is RoundRecord for r in decoded)
        assert type(decoded[2]) is RoundRecord and decoded[2].eve_outcome is None

    def test_eve_field_omitted_not_null(self, tmp_path):
        records = [RoundRecord(0, Prep.PLUS, complex(-1.5, 0.0), Parity.EVEN, None)]
        path = tmp_path / "noeve.jsonl"
        write_transcript(records, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert "eve" not in obj
        assert set(obj) == {"i", "prep", "gamma_re", "gamma_im", "bob"}

    def test_schema_fields_and_values(self, tmp_path):
        config = SimConfig(
            alpha=1.0,
            beta=0.5,
            channel=GaussianCloneChannel(eta=0.4),
            rounds=50,
            seed=3,
        )
        result = run_protocol(config)
        path = tmp_path / "run.jsonl"
        write_transcript(result.transcript, path)
        for line in path.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            assert obj["prep"] in ("+", "-")
            assert obj["bob"] in ("E", "O")
            assert obj["eve"] in ("E", "O")
            assert isinstance(obj["i"], int)
        assert read_transcript(path) == result.transcript


def _reference_encode(records) -> str:
    """The encoder before kind templates: json.dumps on every record."""
    lines = []
    for r in records:
        obj = {
            "i": r.index,
            "prep": r.prep.value,
            "gamma_re": r.announced_gamma.real,
            "gamma_im": r.announced_gamma.imag,
            "bob": "O" if r.bob_outcome is Parity.ODD else "E",
        }
        if r.eve_outcome is not None:
            obj["eve"] = "O" if r.eve_outcome is Parity.ODD else "E"
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines)


def _reference_decode(text: str) -> list[RoundRecord]:
    """The decoder before the template fast path: json.loads on every line."""
    letters = {"E": Parity.EVEN, "O": Parity.ODD}
    records = []
    for line in io.StringIO(text):
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        records.append(
            RoundRecord(
                index=int(obj["i"]),
                prep=Prep(obj["prep"]),
                announced_gamma=complex(obj["gamma_re"], obj["gamma_im"]),
                bob_outcome=letters[obj["bob"]],
                eve_outcome=letters[obj["eve"]] if "eve" in obj else None,
            )
        )
    return records


def _exact(records) -> list[tuple]:
    # Equality of records treats 0.0 and -0.0 alike; reprs do not.
    return [
        (type(r.index), r.index, r.prep, repr(r.announced_gamma), r.bob_outcome, r.eve_outcome)
        for r in records
    ]


def _assert_decodes_like_reference(text: str, tmp_path) -> None:
    path = tmp_path / "case.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        file_text = fh.read()  # universal newlines, as a path source is read
    for source, reference_text in ((lambda: io.StringIO(text), text), (lambda: path, file_text)):
        try:
            expected = _reference_decode(reference_text)
        except Exception as exc:
            with pytest.raises(type(exc)):
                read_transcript(source())
        else:
            assert _exact(read_transcript(source())) == _exact(expected)


_TAIL = ',"prep":"+","gamma_re":-1.5,"gamma_im":0.0,"bob":"E","eve":"O"}'
# Two canonical lines put _TAIL among the decoder's known tails, so the
# line under test meets the fast path.
_PRIMER = '{"i":0' + _TAIL + "\n" + '{"i":1' + _TAIL + "\n"


@pytest.mark.parametrize(
    "line",
    [
        '{"i":2' + _TAIL,
        '{"i":10' + _TAIL,
        '{"i":0' + _TAIL,
        '{"i":007' + _TAIL,
        '{"i":1_0' + _TAIL,
        '{"i":\u0663' + _TAIL,
        '{"i":-1' + _TAIL,
        '{"i":1.0' + _TAIL,
        '{"i":1e1' + _TAIL,
        '{"i": 3' + _TAIL,
        '{"i":true' + _TAIL,
        '{"i":"4"' + _TAIL,
        '{"prep":"+","i":5,"gamma_re":-1.5,"gamma_im":0.0,"bob":"E","eve":"O"}',
        '{"i":6,"eve":"O","bob":"E","gamma_im":0.0,"gamma_re":-1.5,"prep":"+"}',
        '{"i":7' + _TAIL[:-1] + ',"i":9}',
        '{"i":8' + _TAIL[:-1] + ',"i":-2}',
        '{"i":9' + _TAIL + "   ",
        '  \t{"i":11' + _TAIL,
        '{"i":12' + _TAIL + "}",
        '{"i":13' + _TAIL[:-1],
        '{"i":14' + _TAIL.replace("-1.5", "-1.50"),
        '{"i":15' + _TAIL.replace("0.0", "-0.0"),
        "[1, 2]",
    ],
)
def test_fast_path_decodes_like_json_loads(tmp_path, line):
    _assert_decodes_like_reference(_PRIMER + line + "\n" + '{"i":16' + _TAIL + "\n", tmp_path)


def test_tail_with_a_repeated_index_key_is_never_a_template(tmp_path):
    # The first line decodes to index 5 and re-encodes differently, so its
    # tail must not be learned: the second line's "i" is also 5, not 6.
    repeated = ',"prep":"+","gamma_re":-1.5,"gamma_im":0.0,"bob":"E","eve":"O","i":5}'
    text = '{"i":5' + repeated + "\n" + '{"i":6' + repeated + "\n"
    assert [r.index for r in read_transcript(io.StringIO(text))] == [5, 5]
    _assert_decodes_like_reference(text, tmp_path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_blank_lines_whitespace_and_line_endings(tmp_path, newline):
    lines = [
        "",
        '{"i":0' + _TAIL,
        "   ",
        '\t{"i":1' + _TAIL + "  ",
        '{"i":2' + _TAIL,
        "",
    ]
    _assert_decodes_like_reference(newline.join(lines) + newline, tmp_path)


def test_signed_zero_gamma_encodes_like_json_dumps(tmp_path):
    # complex(-1.5, 0.0) == complex(-1.5, -0.0), so a tail cache keyed by
    # value would merge the two lines.
    records = [
        RoundRecord(0, Prep.PLUS, complex(-1.5, 0.0), Parity.EVEN, Parity.ODD),
        RoundRecord(1, Prep.PLUS, complex(-1.5, -0.0), Parity.EVEN, Parity.ODD),
        RoundRecord(2, Prep.MINUS, complex(-0.0, 0.0), Parity.ODD, None),
        RoundRecord(3, Prep.MINUS, complex(0.0, 0.0), Parity.ODD, None),
        RoundRecord(4, Prep.PLUS, complex(-1.5, -0.0), Parity.EVEN, Parity.ODD),
    ]
    buf = io.StringIO()
    write_transcript(records, buf)
    assert buf.getvalue() == _reference_encode(records)
    assert '"gamma_im":-0.0' in buf.getvalue().splitlines()[1]
    assert _exact(read_transcript(io.StringIO(buf.getvalue()))) == _exact(records)


_GAMMAS = st.one_of(
    st.sampled_from([complex(-1.5, 0.0), complex(-1.5, -0.0), complex(-0.5, 0.0), complex(0.0, -0.0)]),
    st.builds(complex, st.floats(allow_nan=False), st.floats(allow_nan=False)),
)
_RECORDS = st.lists(
    st.builds(
        RoundRecord,
        index=st.integers(min_value=0, max_value=10**12),
        prep=st.sampled_from(Prep),
        announced_gamma=_GAMMAS,
        bob_outcome=st.sampled_from(Parity),
        eve_outcome=st.one_of(st.none(), st.sampled_from(Parity)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(records=_RECORDS)
def test_write_then_read_round_trip(records):
    buf = io.StringIO()
    write_transcript(records, buf)
    assert buf.getvalue() == _reference_encode(records)
    assert _exact(read_transcript(io.StringIO(buf.getvalue()))) == _exact(records)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    rounds=st.integers(min_value=1, max_value=300),
    eta=st.one_of(st.none(), st.floats(min_value=0.0, max_value=math.pi / 2)),
)
def test_view_encodes_like_its_records(seed, rounds, eta):
    channel = IdealChannel() if eta is None else GaussianCloneChannel(eta=eta)
    config = SimConfig(alpha=1.0, beta=0.5, channel=channel, rounds=rounds, seed=seed)
    view = run_protocol(config).transcript
    buf = io.StringIO()
    write_transcript(view, buf)
    assert buf.getvalue() == _reference_encode(list(view))
    assert _exact(read_transcript(io.StringIO(buf.getvalue()))) == _exact(view)


_KIND_A = (Prep.PLUS, complex(-1.5, 0.0), Parity.EVEN, Parity.ODD)
_KIND_B = (Prep.MINUS, complex(-0.5, 0.0), Parity.ODD, Parity.EVEN)
_KIND_C = (Prep.MINUS, complex(-0.5, -0.0), Parity.EVEN, None)


def _chunk_boundary_records() -> list[RoundRecord]:
    """More than two chunks of rounds, with the decoder's edge cases placed
    at and around the chunk boundaries."""
    chunk = protocol._CHUNK
    rounds = 2 * chunk + 1000
    records = [RoundRecord(i, *(_KIND_A if i % 3 else _KIND_B)) for i in range(rounds)]
    records[chunk] = RoundRecord(chunk, *_KIND_C)  # first seen: first line of chunk 2
    records[100] = records[100]._replace(index=10**20)
    records[chunk + 7] = records[chunk + 7]._replace(index=-1)
    for k in range(chunk + 20_000, chunk + 20_500):  # a descending run
        records[k] = records[k]._replace(index=3 * (chunk + 21_000 - k))
    records[-1] = records[-1]._replace(index=rounds - 2)  # a repeated index
    return records


def test_chunk_boundaries_decode_like_json_loads(tmp_path):
    records = _chunk_boundary_records()
    buf = io.StringIO()
    write_transcript(records, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    # Non-canonical lines last in chunks 1 and 2: json.loads reads both.
    lines[protocol._CHUNK - 1] = lines[protocol._CHUNK - 1][:-1] + "   \n"
    lines[2 * protocol._CHUNK - 1] = (
        '{"prep":"-","i":7,"gamma_re":-0.5,"gamma_im":0.0,"bob":"O","eve":"E"}\n'
    )
    text = "".join(lines)
    path = tmp_path / "chunks.jsonl"
    path.write_bytes(text.encode("utf-8"))
    expected = _exact(_reference_decode(text))
    for source in (path, io.StringIO(text)):
        assert _exact(read_transcript(source)) == expected


def test_chunk_boundaries_round_trip_bytes():
    records = _chunk_boundary_records()
    buf = io.StringIO()
    write_transcript(records, buf)
    view = read_transcript(io.StringIO(buf.getvalue()))
    assert isinstance(view, Transcript)
    assert view[100].index == 10**20 and type(view[100].index) is int
    assert view[protocol._CHUNK + 7].index == -1
    assert _exact(view) == _exact(records)
    rewritten = io.StringIO()
    write_transcript(view, rewritten)
    assert rewritten.getvalue() == buf.getvalue()


def test_runs_follow_the_source_lines(tmp_path):
    # Opened with newline="\r", the file below is two source lines, the
    # second holding 499 "\n"-ended lines; it must fail as json.loads of
    # that line does, not decode as 500 rounds.
    records = [RoundRecord(i, *_KIND_A) for i in range(500)]
    buf = io.StringIO()
    write_transcript(records, buf)
    path = tmp_path / "cr.jsonl"
    path.write_bytes(buf.getvalue().replace("\n", "\r", 1).encode("utf-8"))
    with open(path, encoding="utf-8", newline="\r") as fh:
        assert len(list(fh)) == 2
    with open(path, encoding="utf-8", newline="\r") as fh:
        with pytest.raises(json.JSONDecodeError):
            read_transcript(fh)
    assert read_transcript(path) == records


def test_short_runs_between_other_lines_decode_like_json_loads(tmp_path):
    # Runs of one or two learned lines between blank lines, padded lines and
    # lines with non-ASCII whitespace, which the decoder reads one by one.
    records = [RoundRecord(i, *(_KIND_A if i % 3 else _KIND_B)) for i in range(600)]
    lines = _reference_encode(records).splitlines(keepends=True)
    for k in range(3, len(lines), 3):
        lines[k] = ("\u2003" if k % 2 else "  ") + lines[k][:-1] + " \n\n"
    _assert_decodes_like_reference("".join(lines), tmp_path)
