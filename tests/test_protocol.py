import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steerlab import coherent, protocol
from steerlab.coherent import Parity, batch_parity_is_odd
from steerlab.keyrate import binary_entropy, bob_error, eve_error
from steerlab.output import open_atomic
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
from steerlab.steering import GaussianCloneChannel, IdealChannel, LhsMixtureChannel, PreparationEnsemble


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

    @pytest.mark.parametrize(
        "alpha,beta,p_plus,message",
        [
            (math.nan, 0.5, 0.5, "alpha and beta must be finite"),
            (1.0, -math.inf, 0.5, "alpha and beta must be finite"),
            (math.inf, 0.5, 2.0, "alpha and beta must be finite"),
            (1.0, 0.5, -0.25, "p_plus must lie in [0, 1], got -0.25"),
            (1.0, 0.5, math.nan, "p_plus must lie in [0, 1], got nan"),
        ],
    )
    def test_preparation_errors_match_the_ensemble(self, alpha, beta, p_plus, message):
        for make in (SimConfig, PreparationEnsemble):
            with pytest.raises(ValueError) as exc:
                make(alpha=alpha, beta=beta, p_plus=p_plus)
            assert str(exc.value) == message


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
    assert rounds > protocol._LINES and rounds % protocol._LINES
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
    config = SimConfig(alpha=alpha, beta=0.5, channel=channel, rounds=4 * protocol._LINES + 17, seed=41)
    result = run_protocol(config)
    buf = io.StringIO()
    write_transcript(result.transcript, buf)
    assert _stats_digest(result.stats) == stats_digest
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == transcript_digest


class _Sha256Sink:
    """A text sink that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> None:
        self.hash.update(text.encode("utf-8"))


# SHA-256 of transcripts recorded while every line was still rendered by
# an f-string.  The first run's indices cross 10**6 inside a chunk; the
# other two runs take two chunks and a remainder, and their announced
# gammas, -0.30000000000000004 and 0.1, give lines of two widths.
ENCODER_GOLDENS = [
    (
        "clone",
        1.0,
        0.5,
        1_000_010,
        53,
        "0c6b198d77b8fcd1f5b4ec95a789f8971c0cdb48a30bf41f9ff26ccab24f9929",
    ),
    (
        "ideal",
        0.1,
        0.2,
        2 * 65_536 + 321,
        61,
        "5469d2473a69f5d06dcdd98e75f1e6432e56ce8057529369e5dd6f669f8d842d",
    ),
    (
        "clone",
        0.1,
        0.2,
        2 * 65_536 + 321,
        61,
        "d317d191661b073b306140bffd3582a3ed3d634723561c628031d0c40f318b2a",
    ),
]


@pytest.mark.parametrize(
    "channel,alpha,beta,rounds,seed,digest",
    ENCODER_GOLDENS,
    ids=["million-clone", "uneven-ideal", "uneven-clone"],
)
def test_encoder_golden_hashes(channel, alpha, beta, rounds, seed, digest):
    config = SimConfig(
        alpha=alpha, beta=beta, channel=GOLDEN_CHANNELS[channel], rounds=rounds, seed=seed
    )
    sink = _Sha256Sink()
    write_transcript(run_protocol(config).transcript, sink)
    assert sink.hash.hexdigest() == digest


# Stats and transcript digests of runs over two chunks and 321 rounds at
# the edges of the preparation choice, recorded while every round still
# compared a double uniform with p_plus: the smallest positive double,
# the largest double below 1, and 1, where no round is MINUS.
P_PLUS_GOLDENS = {
    0.0: (0, {
        "ideal": ("1dfcf970e02ded051dc8e6aa8bb874c97432cdeae2b6957c110da7fa16fa8817",
                  "6baa8b286c80ef255d4553741ebf8e52714436e5a3e8f3817358f91d0cc4bec0"),
        "clone": ("ce9074f4ed2fb9e44c929cd345454b5ab85c6291ab2851ef69b41facd51e9454",
                  "5682f23e3626042ff90769fc2e9ae84eb57de40750c8d01495f970aac3254018"),
        "mixture": ("7749f3c3d0760d766abd31ad9f0d33b43679e96f84d2f4c678d8c40f3fb85cba",
                    "067dfdfd9c7dd987125627e89aa181874a3c5c54995437df27bd46758c7d0e87"),
    }),
    0.3: (9764, {
        "ideal": ("56c5c771b72eac2d467b362516b6cea115ae8db4a8763b63080440661619758a",
                  "396cdf13286fd38da20e92cd9ef6a59836bbdc7eebbc6a32d8f4f88c21eb43b7"),
        "clone": ("b1bc985465fcf012ab7fb5982764d88488047107d4e388610061eb41be9d1f9f",
                  "7c7bd613dd993969f38abb7a01b01a5eb4dcdf883dddd733461e8d16116eb3da"),
        "mixture": ("891d07280e47bfacf73bf02733d7eeaddf91f6daf3a3f80b2a49a2f72420a919",
                    "3400b926fd9b36138db0a928e03f167965923f26d065dac761d5d1f476245aa6"),
    }),
    0.5: (16285, {
        "ideal": ("ed33f0919adcb4af86d4f40762811cd275a867728a71b42766502f0dc729bf68",
                  "d2c41c6f93324228705abbee9c355a84bfc4dac1a2380fecdfa5b2c89d40c3f1"),
        "clone": ("361756bf5f49c8ad106295d4f6d1ab21f5a3f4aeb194de336f12c14f6796a14a",
                  "5b9f3038b8e8f5c4bf3f4903748cd75d310125e5afaca87f4277d70fcd5e9f01"),
        "mixture": ("7dbf0c945a5ba876727ecaf7cbc29b81e7860250c5294755a0e9a74a256456fa",
                    "454ac675d435d4e704c819fef4f90f13a693697fb787403d6e1acac272393852"),
    }),
    1.0: (33089, {
        "ideal": ("cc74885635fffe57f65fc6c2ff2d590e66088c2bef69b3444580004560dec81f",
                  "269f82373af7cc732cd8ea2d5c3a4d7d29440aee596d0fb29cd07737e4f7e382"),
        "clone": ("3ce5be7d540350a59fe42e29eb819bf7398b0205c7f642102a518659ffb07dd8",
                  "f5fcb0f5c07f34dfe47c541a0c54c16698fe18891ebfc01df4a6ab18d0e146c7"),
        "mixture": ("1315cda1327fe5e1258727c9d9af21de576eba44b6ad4175019701c932041722",
                    "de0a4cbebee5e8cb24794dd9f00633a4067d7c6388f2750b1bb0017078aaa710"),
    }),
}
# No round's uniform is 0 or 1 - 2**-53, so these edges give the runs above.
P_PLUS_GOLDENS[2.0**-1074] = P_PLUS_GOLDENS[0.0]
P_PLUS_GOLDENS[1.0 - 2.0**-53] = P_PLUS_GOLDENS[1.0]


@pytest.mark.parametrize("channel", ["ideal", "clone", "mixture"])
@pytest.mark.parametrize("p_plus", sorted(P_PLUS_GOLDENS))
def test_p_plus_edge_golden_hashes(p_plus, channel):
    rounds = 2 * 16_384 + 321
    assert rounds > 2 * protocol._LINES and rounds % protocol._LINES
    config = SimConfig(
        alpha=1.0, beta=0.5, p_plus=p_plus, channel=GOLDEN_CHANNELS[channel], rounds=rounds, seed=67
    )
    n_plus, digests = P_PLUS_GOLDENS[p_plus]
    result = run_protocol(config)
    sink = _Sha256Sink()
    write_transcript(result.transcript, sink)
    assert result.stats.n_plus == n_plus
    assert (_stats_digest(result.stats), sink.hash.hexdigest()) == digests[channel]


@pytest.mark.parametrize("p_plus", [*P_PLUS_GOLDENS, 2.0**-1022, 2.0**-53, 1 / 3, math.nextafter(0.5, 0)])
def test_plus_words_are_those_of_uniforms_below_p_plus(p_plus):
    # The words on either side of the threshold, and of every uniform within
    # a few steps of p_plus, compare as their uniforms do.
    below = protocol._plus_below(p_plus)
    steps = [math.floor(p_plus * 2**53) + d for d in range(-2, 3)]
    words = {0, 2**64 - 1, *((m << 11) + d for m in steps for d in (-1, 0, 2047, 2048))}
    words = np.array(sorted(w for w in words if 0 <= w < 2**64), np.uint64)
    plus = np.ones(len(words), bool) if below is None else words < below
    assert np.array_equal(plus, (words >> 11) * 2.0**-53 < p_plus)
    assert (below is None) == (p_plus == 1.0)


def _sample_like_uniforms(config: SimConfig, u: np.ndarray):
    # A chunk drawn from double uniforms, as every round was before runs
    # drew raw words: preparation, component and both parities.
    cumulative, sampler, eve = protocol._kind_samplers(config)
    plus = u[:, 0] < config.p_plus
    kind = plus.astype(np.intp)
    if len(cumulative) > 1:
        component = np.searchsorted(cumulative, u[:, 1], side="right")
        kind = kind * len(cumulative) + np.minimum(component, len(cumulative) - 1)
    bob_odd = batch_parity_is_odd(sampler._lams[kind], u[:, 2])
    return plus, bob_odd, None if eve is None else batch_parity_is_odd(sampler._lams[kind + eve], u[:, 3])


@pytest.mark.parametrize("channel", ["ideal", "clone", "mixture"])
@pytest.mark.parametrize("p_plus", [0.25, 0.3])
def test_words_sample_like_their_uniforms(channel, p_plus):
    # Random words, and words on either side of p_plus and of each mixture
    # weight's cumulative sum in the preparation and component columns.
    config = SimConfig(alpha=1.0, beta=0.5, p_plus=p_plus, channel=GOLDEN_CHANNELS[channel])
    w = np.random.Philox(key=5).random_raw((4096, 4))
    edges = [(math.floor(t * 2**53) + d << 11) + e for t in (p_plus, 0.25, 0.75)
             for d in (-1, 0, 1) for e in (0, 2047)]
    w[:len(edges), :2] = np.array(edges, np.uint64)[:, None]
    drawn = protocol._sample_chunk(protocol._kind_samplers(config), protocol._plus_below(p_plus), w)
    expected = _sample_like_uniforms(config, (w >> 11) * 2.0**-53)
    for a, b in zip(drawn, expected):
        assert (a is None and b is None) or np.array_equal(a, b)


def test_a_component_of_weight_zero_is_never_drawn():
    # The weights sum to 1 - 5e-13, within the channel's tolerance, so
    # component uniforms from there up to 1 - 2**-53 lie beyond every
    # cumulative weight.  They go to component 0, the last of nonzero
    # weight, and not to component 1.
    channel = LhsMixtureChannel(states=(0.0, 1.0), weights=(1 - 5e-13, 0.0))
    config = SimConfig(alpha=1.0, beta=0.5, p_plus=1.0, channel=channel, rounds=2)
    cumulative, sampler, eve = protocol._kind_samplers(config)
    kinds = []
    samplers = (cumulative, lambda kind, words: kinds.append(kind.copy()) or sampler(kind, words), eve)
    w = np.zeros((2, 4), np.uint64)
    w[:, 1] = [(2**53 - 1) << 11, int((1 - 1e-13) * 2**53) << 11]
    assert np.all((w[:, 1] >> 11) * 2.0**-53 >= cumulative[-1])
    protocol._sample_chunk(samplers, protocol._plus_below(config.p_plus), w)
    assert len(kinds) == 1 and kinds[0].tolist() == [2, 2]  # PLUS, component 0


@pytest.mark.parametrize("key,offset,count",[(0, 0, 9), (67, 5, 1000), (2**64 - 1, 2**40 + 3, 333)])
def test_raw_philox_words_are_the_generators_uniforms(key, offset, count):
    # Generator.random() of a Philox stream is (word >> 11) * 2**-53 of its
    # raw words, word for word, also after a counter offset.
    words = np.random.Philox(key=key).advance(offset).random_raw(count)
    uniforms = np.random.Generator(np.random.Philox(key=key).advance(offset)).random(count)
    assert words.dtype == np.uint64
    assert np.array_equal((words >> 11) * 2.0**-53, uniforms)


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
    workers=st.sampled_from([1, 2, 3, 5]),
    channel=st.one_of(
        st.just(IdealChannel()),
        st.floats(min_value=0.0, max_value=math.pi / 2).map(lambda eta: GaussianCloneChannel(eta=eta)),
        st.just(GOLDEN_CHANNELS["mixture"]),
    ),
)
def test_chunk_size_changes_no_output(seed, chunk_and_rounds, whole_run_slack, workers, channel):
    # Philox is counter-based, so drawing the rounds chunk by chunk, in
    # ranges that each start their own generator at their first round,
    # gives the stream of one draw of the whole run, and every count adds up.
    chunk, rounds = chunk_and_rounds
    config = SimConfig(alpha=1.0, beta=0.5, channel=channel, rounds=rounds, seed=seed)
    with mock.patch.object(protocol, "_LINES", rounds + whole_run_slack), \
            mock.patch.object(protocol, "_WORKERS", 1):
        whole = run_protocol(config)
    with mock.patch.object(protocol, "_LINES", chunk), mock.patch.object(protocol, "_WORKERS", workers):
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


def _run_error(config: SimConfig, workers: int) -> str:
    with mock.patch.object(protocol, "_WORKERS", workers), pytest.raises(ValueError) as error:
        run_protocol(config, keep_transcript=False)
    return str(error.value)


# Six chunks of rounds: two workers take three chunks each, three take two.
_SIX_CHUNKS = 6 * protocol._LINES


@pytest.mark.parametrize(
    "seed,minus_rounds",
    [(0, [65_901]), (4, [3542])],
    ids=["second-half-fails", "first-range-fails"],
)
def test_worker_count_raises_the_serial_error(seed, minus_rounds):
    # Every PLUS round has means 0; a MINUS round's means need tables far
    # above the limit, so the run fails at the chunk of its first MINUS round.
    p_plus = 1 - 1.5e-5
    config = SimConfig(
        alpha=5e6, beta=-5e6, p_plus=p_plus, channel=GaussianCloneChannel(eta=0.7),
        rounds=_SIX_CHUNKS, seed=seed,
    )
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random((_SIX_CHUNKS, 4))
    assert np.flatnonzero(uniforms[:, 0] >= p_plus).tolist() == minus_rounds
    serial = _run_error(config, 1)
    assert serial.startswith("Poisson mean 5.52992e+12 needs a Poisson table")
    assert _run_error(config, 2) == _run_error(config, 3) == serial


def test_lowest_failing_range_raises():
    # Components 1 and 2 have means 9e12 and 3.6e13, both beyond any table.
    # The first of them is component 1's at round 24676, in the first range
    # of two or three workers; every later range first meets component 2,
    # at round 50231 or 66949, and may fail sooner, but its error is not
    # the one a serial run raises.
    channel = LhsMixtureChannel(states=(0.0, 3e6, 6e6), weights=(1 - 2e-5, 1e-5, 1e-5))
    config = SimConfig(alpha=0.0, beta=0.0, channel=channel, rounds=_SIX_CHUNKS, seed=223)
    serial = _run_error(config, 1)
    assert serial.startswith("Poisson mean 9e+12 needs a Poisson table")
    assert _run_error(config, 2) == _run_error(config, 3) == serial
    # Started at round 49152, the second of two ranges alone fails otherwise.
    with pytest.raises(ValueError, match="mean 3.6e"):
        protocol._sample_range(
            config, protocol._kind_samplers(config), 3 * protocol._LINES, _SIX_CHUNKS, None,
            lambda: False,
        )


@pytest.mark.parametrize(
    "rounds,threads", [(1, 0), (protocol._LINES, 0), (protocol._LINES + 1, 1), (_SIX_CHUNKS, 2)]
)
def test_threads_start_only_for_runs_of_several_chunks(rounds, threads):
    # One range per chunk at most, up to _WORKERS; the first runs in the
    # calling thread.
    started = []
    real = protocol.threading.Thread

    def thread(*args, **kwargs):
        started.append(kwargs["args"])
        return real(*args, **kwargs)

    config = SimConfig(alpha=1.0, beta=0.5, channel=GOLDEN_CHANNELS["clone"], rounds=rounds, seed=2)
    with mock.patch.object(protocol, "_WORKERS", 3), mock.patch.object(protocol.threading, "Thread", thread):
        run_protocol(config)
    assert len(started) == threads


@pytest.mark.parametrize("eta,tables", [(math.pi / 4, 2), (0.785, 4)])
def test_each_mean_is_tabulated_once_per_run(monkeypatch, eta, tables):
    # At alpha 3000 every table is long (about 21100 entries).  At eta pi/4
    # Eve's mean of each kind is bitwise Bob's, so a run builds one table
    # per preparation, however many chunks and workers draw it; at 0.785
    # the four means differ.
    built = []
    cdf = coherent._poisson_cdf
    monkeypatch.setattr(coherent, "_poisson_cdf", lambda lam, lo, hi: built.append(lam) or cdf(lam, lo, hi))
    config = SimConfig(alpha=3000.0, beta=0.5, channel=GaussianCloneChannel(eta=eta), rounds=1000, seed=3)
    outputs = []
    for lines, workers in [(protocol._LINES, 1), (200, 1), (200, 3)]:  # 1 chunk, then 5
        built.clear()
        with mock.patch.object(protocol, "_LINES", lines), mock.patch.object(protocol, "_WORKERS", workers):
            result = run_protocol(config)
        assert len(built) == len(set(built)) == tables
        text = io.StringIO()
        write_transcript(result.transcript, text)
        outputs.append((result.stats, text.getvalue()))
    assert outputs[1:] == outputs[:1] * 2


@pytest.mark.parametrize(
    "p_plus,tables", [(0.0, 2), (5e-324, 4), (0.5, 4), (1 - 2**-53, 4), (1.0, 2)]
)
def test_a_preparation_that_cannot_be_drawn_builds_no_table(monkeypatch, p_plus, tables):
    # Four distinct means at eta 0.785, two per preparation.  p_plus 0 and
    # 1 rule one preparation out, and the sampler is made with nan means
    # for it; any other p_plus leaves both drawable, however unlikely.
    built = []
    cdf = coherent._poisson_cdf
    monkeypatch.setattr(coherent, "_poisson_cdf", lambda lam, lo, hi: built.append(lam) or cdf(lam, lo, hi))
    config = SimConfig(alpha=3000.0, beta=0.5, p_plus=p_plus, channel=GaussianCloneChannel(eta=0.785), rounds=10)
    cumulative, sampler, eve = protocol._kind_samplers(config)
    assert len(built) == len(set(built)) == tables
    assert np.isnan(sampler._lams).sum() == 4 - tables
    stats = run_protocol(config).stats
    if tables == 2:
        assert stats.n_plus == 10 * p_plus


@pytest.mark.parametrize("channel", ["clone", "mixture"])
def test_more_threads_than_cores_agree_with_one(monkeypatch, channel):
    # Tiny chunks, more workers than cores and a short switch interval, so
    # that the threads interleave between nearly every numpy call while
    # they set up the one sampler and fill one array of codes.
    built = []
    cdf = coherent._poisson_cdf
    monkeypatch.setattr(coherent, "_poisson_cdf", lambda lam, lo, hi: built.append(lam) or cdf(lam, lo, hi))
    config = SimConfig(alpha=1.0, beta=0.5, channel=GOLDEN_CHANNELS[channel], rounds=20_000, seed=8)
    with mock.patch.object(protocol, "_LINES", 101):
        with mock.patch.object(protocol, "_WORKERS", 1):
            serial = run_protocol(config)
        means = sorted(built)
        built.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(protocol, "_WORKERS", 9):
                threaded = run_protocol(config)
        finally:
            sys.setswitchinterval(interval)
    assert threaded.stats == serial.stats
    assert np.array_equal(threaded.transcript._codes, serial.transcript._codes)
    assert sorted(built) == means and len(set(means)) == len(means)  # each mean built once


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


def _assert_decodes_like_reference(text: str | bytes, tmp_path) -> None:
    # Text is read from a text file object and from a file of its UTF-8
    # bytes; bytes, which need not be UTF-8, only from a file.
    path = tmp_path / "case.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))

    def file_text():
        with open(path, encoding="utf-8") as fh:
            return fh.read()  # universal newlines, as a path source is read

    sources = [(lambda: path, file_text)]
    if isinstance(text, str):
        sources.append((lambda: io.StringIO(text), lambda: text))
    for source, reference_text in sources:
        try:
            expected = _reference_decode(reference_text())
        except Exception as exc:
            with pytest.raises(type(exc)):
                read_transcript(source())
        else:
            assert _exact(read_transcript(source())) == _exact(expected)


_TAIL = ',"prep":"+","gamma_re":-1.5,"gamma_im":0.0,"bob":"E","eve":"O"}'
# Two canonical lines put _TAIL among the decoder's known tails, so the
# line under test meets the fast path.
_PRIMER = '{"i":0' + _TAIL + "\n" + '{"i":1' + _TAIL + "\n"


_LINES_AFTER_THE_PRIMER = [
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
    '{"i":999999999999999999' + _TAIL,
    '{"i":1000000000000000000' + _TAIL,
    '{"i":9999999999999999999' + _TAIL,
    '{"i":100000000000000000000' + _TAIL,
]


@pytest.mark.parametrize("line", _LINES_AFTER_THE_PRIMER)
def test_fast_path_decodes_like_json_loads(tmp_path, line):
    _assert_decodes_like_reference(_PRIMER + line + "\n" + '{"i":16' + _TAIL + "\n", tmp_path)


def test_bulk_pass_decodes_like_json_loads(tmp_path):
    # Blocks of a few lines each, so that every line after the primer's
    # first meets the bulk pass with _TAIL learned.
    with mock.patch.object(protocol, "_BLOCK", 1):
        for line in _LINES_AFTER_THE_PRIMER:
            text = _PRIMER + line + "\n" + '{"i":16' + _TAIL + "\n"
            _assert_decodes_like_reference(text, tmp_path)


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
# The tail of _KIND_D is 16 bytes wider than that of _KIND_A.
_KIND_D = (Prep.PLUS, complex(-0.30000000000000004, 0.0), Parity.ODD, Parity.ODD)

# Indices on both sides of each digit count the encoder renders with numpy,
# of the int64 range, and of zero; those from 10**18 up and below zero are
# rendered one by one, and those outside int64 make an index array of objects.
_EDGE_INDICES = sorted(
    {10**k + d for k in range(1, 19) for d in (-1, 0, 1)}
    | {0, 1, -1, 2**63 - 1, 2**63, 2**64 + 5, -(2**63), -(2**63) - 1, -(10**20)}
)
_ANY_INDEX = st.one_of(st.sampled_from(_EDGE_INDICES), st.integers())
_MIXED_KINDS = st.sampled_from([_KIND_A, _KIND_B, _KIND_C, _KIND_D])


def _written_each_way(transcript, directory) -> list[str]:
    """What write_transcript writes into a StringIO, to a path, into an
    open_atomic handle, and into a text file and a TextIOWrapper over a
    BytesIO, in both of which text written around it keeps its place."""
    buf = io.StringIO()
    write_transcript(transcript, buf)
    path, atomic, text = directory / "path.jsonl", directory / "atomic.jsonl", directory / "text.jsonl"
    write_transcript(transcript, path)
    with open_atomic(str(atomic)) as fh:
        write_transcript(transcript, fh)
    wrapper = io.TextIOWrapper(io.BytesIO(), "utf-8", newline="\n")
    with open(text, "w", encoding="utf-8", newline="\n") as fh:
        for sink in (fh, wrapper):
            sink.write("before\n")
            write_transcript(transcript, sink)
            sink.write("after\n")
    wrapper.flush()
    around = [text.read_bytes(), wrapper.buffer.getvalue()]
    assert all(b.startswith(b"before\n") and b.endswith(b"after\n") for b in around)
    written = [path.read_bytes(), atomic.read_bytes(), *(b[len("before\n"):-len("after\n")] for b in around)]
    return [buf.getvalue(), *(b.decode("utf-8") for b in written)]


@settings(max_examples=80, deadline=None)
@given(
    lines=st.sampled_from([1, 3, 4096]),
    indices=st.lists(_ANY_INDEX, min_size=1, max_size=50),
    ascending=st.booleans(),
    kinds=st.lists(_MIXED_KINDS, min_size=50, max_size=50),
)
def test_decoded_views_encode_like_json_dumps(lines, indices, ascending, kinds):
    # A file whose indices have gaps decodes to a view with an index array,
    # of objects when an index is outside int64; written back, in pieces of
    # any size, it must be the file again.
    if ascending:
        indices = sorted(indices)
    records = [RoundRecord(i, *kind) for i, kind in zip(indices, kinds)]
    text = _reference_encode(records)
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "source.jsonl"
        source.write_bytes(text.encode("utf-8"))
        view = read_transcript(source)
        assert view._index is not None or indices == list(range(len(indices)))
        with mock.patch.object(protocol, "_LINES", lines):
            assert _written_each_way(view, Path(tmp)) == [text] * 5


@settings(max_examples=80, deadline=None)
@given(
    lines=st.sampled_from([1, 3, 4096]),
    records=st.lists(
        st.builds(
            RoundRecord,
            index=_ANY_INDEX,
            prep=st.sampled_from(Prep),
            announced_gamma=st.one_of(st.sampled_from([kind[1] for kind in (_KIND_A, _KIND_D)]), _GAMMAS),
            bob_outcome=st.sampled_from(Parity),
            eve_outcome=st.one_of(st.none(), st.sampled_from(Parity)),
        ),
        max_size=50,
    ),
)
def test_records_encode_like_json_dumps(lines, records):
    text = _reference_encode(records)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(protocol, "_LINES", lines):
        assert _written_each_way(records, Path(tmp)) == [text] * 5


def test_every_sink_gets_the_same_bytes(tmp_path):
    # A path and open_atomic's temp file are written as bytes, as are the
    # text files, through their buffer after a flush; a StringIO gets str.
    view = run_protocol(
        SimConfig(alpha=1.0, beta=0.5, channel=GOLDEN_CHANNELS["clone"], rounds=2 * protocol._LINES + 77, seed=19)
    ).transcript
    assert _written_each_way(view, tmp_path) == [_reference_encode(list(view))] * 5


def test_float_indices_render_as_python_does():
    # Not ints in [0, 10**18), so not rendered by numpy, even where
    # integral: each line is still what json.dumps writes.
    indices = (4, 2.5, 3.0, 5, 1e20, math.inf, -math.inf, math.nan, True, False, -3, 10**20)
    records = [RoundRecord(i, *_KIND_A) for i in indices]
    buf = io.StringIO()
    write_transcript(records, buf)
    assert buf.getvalue() == _reference_encode(records)
    heads = [line[:line.index(",")] for line in buf.getvalue().splitlines()]
    assert heads[2] == '{"i":3.0'
    assert heads[5:] == ['{"i":Infinity', '{"i":-Infinity', '{"i":NaN', '{"i":true', '{"i":false',
                         '{"i":-3', '{"i":100000000000000000000']


class _Label:
    """An index that json.dumps cannot render, written as its str."""

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        return self.text


def test_a_piece_with_an_index_numpy_cannot_render_is_written_line_by_line(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a mixed piece reached _render")

    monkeypatch.setattr(protocol, "_render", refuse)
    records = [RoundRecord(i, *_KIND_A) for i in (0, 1, _Label("é"), 3)]
    buf = io.StringIO()
    write_transcript(records, buf)
    assert [line[:line.index(",")] for line in buf.getvalue().splitlines()] == [
        '{"i":0', '{"i":1', '{"i":é', '{"i":3'
    ]
    write_transcript(records, tmp_path / "label.jsonl")
    assert (tmp_path / "label.jsonl").read_bytes() == buf.getvalue().encode("utf-8")
    # A lone surrogate passes to a StringIO and fails strict UTF-8 to a path.
    records[2] = records[2]._replace(index=_Label("\udc80"))
    buf = io.StringIO()
    write_transcript(records, buf)
    assert buf.getvalue().splitlines()[2].startswith('{"i":\udc80,')
    with pytest.raises(UnicodeEncodeError):
        write_transcript(records, tmp_path / "surrogate.jsonl")


class _WriteRecorder:
    """A text sink that keeps the number of lines of each write."""

    def __init__(self):
        self.lines: list[int] = []

    def write(self, text: str) -> None:
        assert text.endswith("\n")
        self.lines.append(text.count("\n"))


def test_writer_streams_at_most_a_chunk_of_lines_per_write():
    config = SimConfig(
        alpha=1.0, beta=0.5, channel=GOLDEN_CHANNELS["clone"], rounds=3 * protocol._LINES, seed=5
    )
    view = run_protocol(config).transcript
    for transcript in (view, list(view)):
        sink = _WriteRecorder()
        write_transcript(transcript, sink)
        assert sum(sink.lines) == 3 * protocol._LINES
        assert len(sink.lines) >= 3 and max(sink.lines) <= protocol._LINES


def test_run_pieces_have_one_digit_count():
    # A run's own indices are also cut at each power of ten, so that every
    # piece takes the whole-line path; one of mixed digit counts would
    # encode alike, only more slowly.
    view = run_protocol(SimConfig(alpha=1.0, beta=0.5, rounds=1234, seed=3)).transcript
    with mock.patch.object(protocol, "_LINES", 300):
        pieces = [(int(index[0]), len(index)) for index, _, _ in protocol._pieces(view)]
    assert pieces == [
        (0, 10), (10, 90), (100, 200), (300, 300), (600, 300), (900, 100), (1000, 200), (1200, 34)
    ]


@pytest.mark.parametrize("gaps", [False, True])
def test_view_of_more_kinds_than_lines_per_piece_encodes_like_json_dumps(tmp_path, gaps):
    # Every line of the file has a gamma of its own, so a decoded view holds
    # far more kinds than a piece has lines; with gaps, it keeps an index array.
    records = [
        RoundRecord(3 * i if gaps else i, Prep.PLUS, complex(-i / 7, 0.0), Parity.ODD, Parity.EVEN)
        for i in range(3000)
    ]
    text = _reference_encode(records)
    source = tmp_path / "source.jsonl"
    source.write_bytes(text.encode("utf-8"))
    view = read_transcript(source)
    assert len(view._kinds) == 3000 and (view._index is None) is not gaps
    for lines in (7, 64):
        with mock.patch.object(protocol, "_LINES", lines):
            buf = io.StringIO()
            write_transcript(view, buf)
            assert buf.getvalue() == text


def _chunk_boundary_records() -> list[RoundRecord]:
    """More than two chunks of rounds, with the decoder's edge cases placed
    at and around the chunk boundaries."""
    chunk = protocol._LINES
    rounds = 2 * chunk + 1000
    records = [RoundRecord(i, *(_KIND_A if i % 3 else _KIND_B)) for i in range(rounds)]
    records[chunk] = RoundRecord(chunk, *_KIND_C)  # first seen: first line of chunk 2
    records[100] = records[100]._replace(index=10**20)
    records[chunk + 7] = records[chunk + 7]._replace(index=-1)
    for k in range(chunk + 5_000, chunk + 5_500):  # a descending run
        records[k] = records[k]._replace(index=3 * (chunk + 6_000 - k))
    records[-1] = records[-1]._replace(index=rounds - 2)  # a repeated index
    return records


def test_chunk_boundaries_decode_like_json_loads(tmp_path):
    records = _chunk_boundary_records()
    buf = io.StringIO()
    write_transcript(records, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    # Non-canonical lines last in chunks 1 and 2: json.loads reads both.
    lines[protocol._LINES - 1] = lines[protocol._LINES - 1][:-1] + "   \n"
    lines[2 * protocol._LINES - 1] = (
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
    assert view[protocol._LINES + 7].index == -1
    assert _exact(view) == _exact(records)
    rewritten = io.StringIO()
    write_transcript(view, rewritten)
    assert rewritten.getvalue() == buf.getvalue()


def _records_digest(records) -> str:
    """SHA-256 of each record's fields as text, gammas by repr."""
    text = "".join(
        f"{r.index!r} {r.prep.value} {r.announced_gamma!r} {r.bob_outcome.value} "
        f"{None if r.eve_outcome is None else r.eve_outcome.value}\n"
        for r in records
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_mixed_width_clone_transcript_pin(tmp_path):
    # Gammas -0.5 and -0.30000000000000004: lines of two widths in every
    # piece.  Recorded while the encoder still spliced the lines of indices
    # numpy cannot render into the bytes it rendered for the rest.
    rounds = 2 * 16_384 + 77
    assert rounds == 2 * protocol._LINES + 77
    config = SimConfig(alpha=0.4, beta=0.1, channel=GaussianCloneChannel(eta=0.7), rounds=rounds, seed=19)
    path = tmp_path / "mixed.jsonl"
    write_transcript(run_protocol(config).transcript, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "b73a1abd46934c288a0bb427c0d95fd0d27cfb378c3b5ffe13b77f9b07b3d23c"
    )
    assert _records_digest(read_transcript(path)) == (
        "018bb85b4c6e8f94ec94d90d8e0f487844513b78886998bc4a305e6922f0df3d"
    )


def test_pieces_of_mixed_indices_pin(tmp_path):
    # Indices numpy cannot render (outside [0, 10**18), or not ints) next to
    # ones it can, in the pieces on both sides of the first piece boundary,
    # among kinds of two tail widths.  Recorded while the encoder still
    # spliced such lines into the bytes numpy rendered for the rest.
    chunk = 16_384
    assert chunk == protocol._LINES
    kinds = [_KIND_A, _KIND_B, _KIND_C, _KIND_D]
    indices = [*range(chunk - 2), 10**20, -1, 2.5, *range(chunk, 2 * chunk + 40), True, 10**18]
    records = [RoundRecord(i, *kinds[k % 7 % 4]) for k, i in enumerate(indices)]
    buf = io.StringIO()
    write_transcript(records, buf)
    path, text = tmp_path / "path.jsonl", tmp_path / "text.jsonl"
    write_transcript(records, path)
    with open(text, "w", encoding="utf-8", newline="\n") as fh:
        write_transcript(records, fh)
    digest = "8f3ee94d974137c8cbdd3663b2a0e214bd88643b4c5c510c0e9b207ddf468b8b"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert hashlib.sha256(text.read_bytes()).hexdigest() == digest
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
    assert buf.getvalue() == _reference_encode(records)


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


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_lines_across_block_boundaries_decode_like_json_loads(tmp_path, newline):
    # Every block size up to two lines and a bit cuts the file at every
    # offset of its first lines: lines split across blocks, "\r\n" split
    # between two reads, and the last line read with or without its newline.
    records = [RoundRecord(i, *(_KIND_A if i % 3 else _KIND_B)) for i in range(8)]
    text = _reference_encode(records).replace("\n", newline)
    for block in range(1, 2 * text.index(newline) + 8):
        with mock.patch.object(protocol, "_BLOCK", block):
            _assert_decodes_like_reference(text, tmp_path)
            _assert_decodes_like_reference(text[:-len(newline)], tmp_path)


def _spy(name):
    """Patches the decoder's method ``name`` with a spy that calls it."""
    return mock.patch.object(
        protocol._LineDecoder, name, autospec=True, side_effect=getattr(protocol._LineDecoder, name)
    )


def test_kind_first_seen_mid_block_decodes_like_json_loads(tmp_path):
    # Kinds A and B fill the first block of the file.  Kind C first appears
    # in the second, after that block's bulk pass, with about 1900 lines of
    # C left in it; the pass runs again over them once C's tail is learned,
    # so each source decodes only some 130 lines one by one.
    records = [RoundRecord(i, *(_KIND_A if i % 3 else _KIND_B)) for i in range(4000)]
    records += [RoundRecord(i, *(_KIND_C if i % 2 else _KIND_A)) for i in range(4000, 8000)]
    text = _reference_encode(records)
    with mock.patch.object(protocol, "_BLOCK", 1 << 18), _spy("decode_line") as one_by_one:
        _assert_decodes_like_reference(text, tmp_path)
        assert one_by_one.call_count < 2 * 200


def test_more_gammas_than_cached_tails_decode_like_json_loads(tmp_path):
    # Lines cycle through 100 gammas, and so 100 tails, over several blocks:
    # the decoder learns no more than its cap, and runs the bulk pass at
    # most once per block and once per tail learned.
    gammas = [complex(-k / 8, 0.0) for k in range(100)]
    records = [RoundRecord(i, Prep.PLUS, gammas[i % 100], Parity.EVEN, None) for i in range(3000)]
    text = _reference_encode(records)
    blocks = -(-len(text) // 8192)
    with (
        mock.patch.object(protocol, "_BLOCK", 8192),
        _spy("_learn") as learn,
        _spy("decode_fast") as bulk,
    ):
        _assert_decodes_like_reference(text, tmp_path)
        assert learn.call_count == 2 * protocol._MAX_CACHED_TAILS
        assert bulk.call_count <= 2 * (blocks + protocol._MAX_CACHED_TAILS)


def test_tails_of_two_widths_decode_in_bulk(tmp_path):
    # The tail with eve below is 11 bytes longer than the one without, and
    # has a comma where the shorter one would start: each line must still
    # meet the check of its own tail, not go one by one.
    with_eve = RoundRecord(0, Prep.PLUS, complex(-1.5, 0.0), Parity.EVEN, Parity.ODD)
    without = RoundRecord(0, Prep.MINUS, complex(1.0, 0.0), Parity.ODD, None)
    long, short = (_reference_encode([r])[len('{"i":0'):] for r in (with_eve, without))
    assert len(long) - len(short) == 11 and long[11] == ","
    records = [(with_eve if i % 2 else without)._replace(index=i) for i in range(3000)]
    with _spy("decode_line") as one_by_one:
        _assert_decodes_like_reference(_reference_encode(records), tmp_path)
        assert one_by_one.call_count < 2 * 200


_RUN_LINES = _reference_encode(
    run_protocol(SimConfig(alpha=1.0, beta=0.5, channel=GOLDEN_CHANNELS["clone"], rounds=3000, seed=29)).transcript
).splitlines(keepends=True)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    line=st.integers(min_value=1100, max_value=2900),
    column=st.data(),
    byte=st.sampled_from(b"0179EOeipz:"),
)
def test_one_bad_byte_deep_in_a_group_decodes_like_json_loads(line, column, byte):
    # Lines 1000 to 2999 of a run file, in one block, are one group of
    # 4-digit lines with tails of one width.  One byte of a line deep inside
    # it, in a digit, a letter, a comma or a quote, is replaced: the bulk
    # check must leave that line to json.loads and decode the others.
    text = _RUN_LINES[line]
    columns = [k for k, c in enumerate(text) if c.isalnum() or c in ',"']
    k = column.draw(st.sampled_from(columns))
    lines = list(_RUN_LINES)
    lines[line] = text[:k] + chr(byte) + text[k + 1:]
    assert len("".join(lines)) < protocol._BLOCK
    with tempfile.TemporaryDirectory() as tmp:
        _assert_decodes_like_reference("".join(lines), Path(tmp))


# Lines 1000 to 1511 of the run file above: 4-digit lines whose tails all
# have one width, so that blocks of whole lines of them are arrays of rows.
_ONE_WIDTH = "".join(_RUN_LINES[1000:1512]).encode("ascii")
_WIDTH = len(_RUN_LINES[1000])
assert len(_ONE_WIDTH) == 512 * _WIDTH


def _blocks_decoded_line_by_line(spy) -> int:
    """How many blocks the ``decode_fast`` spy saw, one ``data`` array each."""
    return len({id(call.args[1]) for call in spy.call_args_list})


def test_blocks_of_one_width_are_decoded_as_rows(tmp_path):
    # Blocks of 64 lines: the first is decoded line by line and learns the
    # tails, and each of the other seven as one array of rows.
    with mock.patch.object(protocol, "_BLOCK", 64 * _WIDTH), _spy("decode_fast") as bulk:
        _assert_decodes_like_reference(_ONE_WIDTH, tmp_path)
        assert _blocks_decoded_line_by_line(bulk) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    line=st.integers(min_value=0, max_value=511),
    column=st.integers(min_value=0, max_value=_WIDTH - 1),
    byte=st.sampled_from(b'\n\r0179EOeipz," \xc3\xff'),
)
@example(line=0, column=0, byte=ord("z"))
@example(line=63, column=_WIDTH - 1, byte=ord("\r"))
@example(line=64, column=5, byte=ord("\n"))
@example(line=127, column=_WIDTH - 2, byte=ord("\r"))
@example(line=200, column=7, byte=0xC3)
@example(line=511, column=_WIDTH - 1, byte=ord(" "))
@example(line=511, column=_WIDTH - 3, byte=0xFF)
def test_one_bad_byte_in_a_block_of_one_width_decodes_like_json_loads(line, column, byte):
    # The blocks of test_blocks_of_one_width_are_decoded_as_rows, with one
    # byte of any line replaced, the first and the last of a block and of
    # the file included: its block must fall back to the lines, and decode
    # like json.loads or raise as text mode does.
    data = bytearray(_ONE_WIDTH)
    data[line * _WIDTH + column] = byte
    with mock.patch.object(protocol, "_BLOCK", 64 * _WIDTH), tempfile.TemporaryDirectory() as tmp:
        _assert_decodes_like_reference(bytes(data), Path(tmp))


def test_a_run_file_is_decoded_as_rows_but_for_a_few_blocks(tmp_path):
    # The benchmark's file: 2e5 clone rounds at alpha 1, beta 0.5.  Only the
    # first block, where the tails are learned, and the two where the index
    # gains a digit are decoded line by line.
    view = run_protocol(
        SimConfig(alpha=1.0, beta=0.5, channel=GaussianCloneChannel(eta=math.pi / 4), rounds=200_000, seed=31)
    ).transcript
    path = tmp_path / "run.jsonl"
    write_transcript(view, path)
    with _spy("decode_fast") as bulk:
        assert _exact(read_transcript(path)) == _exact(view)
        assert _blocks_decoded_line_by_line(bulk) <= 3


def test_a_text_source_keeps_its_own_lines(tmp_path):
    # Read with newline="\r", a source's lines end at "\r" only.  Ended by
    # "\r", each record is one source line, though one holds a "\n" where
    # JSON allows whitespace; split at its newlines, the text would not be
    # the same lines.  Ended by "\n", lines of one width are one source
    # line, which json.loads cannot read, though as rows of the width of
    # its first "\n"-ended line each would be a learned line.
    records = [RoundRecord(i, *_KIND_A) for i in range(50)]
    path = tmp_path / "cr.jsonl"
    for text, lines in (
        (_reference_encode(records).replace("\n", "\r").replace(',"prep"', ',\n"prep"', 1), 50),
        (_reference_encode(records[:10]), 1),
    ):
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8", newline="\r") as fh:
            assert len(list(fh)) == lines
        with open(path, encoding="utf-8", newline="\r") as fh:
            if lines == 1:
                with pytest.raises(json.JSONDecodeError):
                    read_transcript(fh)
            else:
                assert _exact(read_transcript(fh)) == _exact(records)


@pytest.mark.parametrize(
    "raw",
    [
        b"\xff",  # never UTF-8
        b"\xc3",  # a truncated two-byte character
        b'{"i":2' + _TAIL.encode()[:-2] + b"\xe9}",  # Latin-1 in a learned line
        b"\xed\xa0\x80",  # an encoded surrogate
        b"  \xe2\x80\x83",  # valid: blank but for an em space
    ],
)
def test_non_utf8_bytes_from_a_path_raise_like_text_mode(tmp_path, raw):
    # A file that is not UTF-8 raises UnicodeDecodeError, as a file read in
    # text mode does, whether or not the bad bytes straddle a block boundary.
    text = _PRIMER.encode() + raw + b"\n" + ('{"i":3' + _TAIL + "\n").encode()
    for block in (1, 3, 100, 1 << 19):
        with mock.patch.object(protocol, "_BLOCK", block):
            _assert_decodes_like_reference(text, tmp_path)
