import contextlib
import datetime
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from steerlab import protocol
from steerlab.cli import build_parser, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParityCommand:
    def test_vacuum(self, capsys):
        code, out, _ = run_cli(["parity", "--re", "0", "--im", "0"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "source,p_even,p_odd"
        assert lines[1].startswith("closed_form,1,")

    def test_oracle_agreement(self, capsys):
        code, out, _ = run_cli(["parity", "--re", "1", "--im", "0", "--oracle"], capsys)
        assert code == 0
        rows = {line.split(",")[0]: line.split(",")[1:] for line in out.splitlines()[1:]}
        assert set(rows) == {"closed_form", "truncated", "abs_diff"}
        assert float(rows["abs_diff"][0]) <= 1e-10
        assert float(rows["abs_diff"][1]) <= 1e-10

    def test_malformed_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parity", "--re", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["--re", "1e10"], ["--cutoff", "10000000000"]],
    )
    def test_oversized_oracle_table_exits_1(self, capsys, argv):
        code, _, err = run_cli(["parity", "--oracle", *argv], capsys)
        assert code == 1
        assert "Poisson table" in err

    def test_infinite_mean_exits_1_with_the_table_message(self, capsys):
        # |1e200|^2 overflows to inf, which default_cutoff cannot round.
        code, _, err = run_cli(["parity", "--oracle", "--re", "1e200"], capsys)
        assert code == 1
        assert "mean photon number inf needs a Poisson table" in err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # Recorded before the oracle and the sampler shared one table
            # builder; --re 26 is mean 676, below the 700 switch.
            (["--re", "0"], "31e56a56ce20b3abecc261d8e7172e0d3be9541201bf6e5bbd2accef7fad0642"),
            (["--re", "1"], "90817c7c15d31eed9f5177871dea13c12e08b0c8347251cfb5bc1ab2ad8b95f0"),
            (["--re", "10"], "002a30d4714b50c50b7823280cff2face100e36dd0bdda0d6bd268ba59cec481"),
            (["--re", "26"], "99318d519a358b5ea75839675ab7e0191f133f9b96a49db3310d420424bc9c6c"),
            (["--re", "2.5", "--im", "1"],
             "ec252d2bf4b93e6286110f0442ddb666f6fd0555793bb76bd066d5943396fa67"),
        ],
    )
    def test_oracle_csv_bytes(self, capsys, argv, digest):
        code, out, _ = run_cli(["parity", "--oracle", *argv], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# Amplitude parts from every corner an argument can reach: zero, small
# values, the edge of the oracle's table limit (|mu| near 2048), huge and
# tiny magnitudes, subnormals and non-finite values.
_EXTREME_PARTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -2.5e-310,
         math.inf, -math.inf, math.nan]
    ),
    st.floats(-30.0, 30.0),
    st.floats(2041.0, 2049.0),
)


def _run_to_a_clean_end(argv):
    """Exit code and stdout of one in-process run that ended cleanly."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("steerlab: error:")
        assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=80, deadline=datetime.timedelta(seconds=5))
@given(
    re=_EXTREME_PARTS,
    im=_EXTREME_PARTS,
    cutoff=st.sampled_from([None, -1, 0, 5, 2**22 - 1, 2**22, 10**30]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_every_parity_oracle_input_ends_cleanly(re, im, cutoff, fmt):
    argv = ["parity", "--oracle", f"--re={re!r}", f"--im={im!r}", "--format", fmt]
    if cutoff is not None:
        argv.append(f"--cutoff={cutoff}")
    code, out = _run_to_a_clean_end(argv)
    if code == 0:
        if fmt == "csv":
            rows = [line.split(",") for line in out.splitlines()[1:]]
        else:
            rows = [list(row.values()) for row in _strict_json(out)["rows"]]
        assert [row[0] for row in rows] == ["closed_form", "truncated", "abs_diff"]
        assert all(float(value) <= 1e-8 for value in rows[2][1:])


# Flag values from every corner, and p bounds that often form a valid range.
_EXTREME_VALUES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -2.5e-310,
         math.inf, -math.inf, math.nan]
    ),
    st.floats(-5.0, 5.0),
)
_P_BOUNDS = st.one_of(st.floats(0.0, 1.0), _EXTREME_VALUES)


@st.composite
def _sweep_argv(draw):
    if draw(st.booleans()):
        steps = draw(st.one_of(st.integers(-1, 30), st.just(500)))
        argv = ["steer-region", "--steps", str(steps),
                "--channel", draw(st.sampled_from(["ideal", "clone"]))]
        flags = {"--alpha": _EXTREME_VALUES, "--beta-min": _EXTREME_VALUES,
                 "--beta-max": _EXTREME_VALUES, "--p-min": _P_BOUNDS, "--p-max": _P_BOUNDS,
                 "--eta": _EXTREME_VALUES}
    else:
        steps = draw(st.one_of(st.integers(-1, 100), st.just(2000)))
        argv = ["keyrate", "--steps", str(steps)]
        flags = {"--alpha": _EXTREME_VALUES, "--beta": _EXTREME_VALUES}
    argv += [f"{flag}={draw(values)!r}" for flag, values in flags.items()]
    return [*argv, "--format", draw(st.sampled_from(["csv", "json", "svg"]))]


@settings(max_examples=150, deadline=datetime.timedelta(seconds=5))
@given(argv=_sweep_argv())
def test_every_sweep_input_ends_cleanly(argv):
    # Steps stay within the caps, so no example allocates past them.
    code, out = _run_to_a_clean_end(argv)
    if code == 0:
        fmt = argv[-1]
        if fmt == "json":
            _strict_json(out)
        elif fmt == "svg":
            assert out.startswith("<svg") and out.endswith("</svg>\n")
        else:
            assert out.endswith("\n") and len(out.splitlines()) > 1


# Amplitudes up to +-3000 keep every admitted sampler window below about
# 3e5 entries (means up to 1.44e8), so no example allocates much.
_PROTOCOL_VALUES = st.one_of(_EXTREME_VALUES, st.floats(-3000.0, 3000.0))


@st.composite
def _protocol_argv(draw):
    argv = ["protocol", "--channel", draw(st.sampled_from(["ideal", "clone"])),
            "--rounds", str(draw(st.integers(0, 40))),
            "--seed", str(draw(st.integers(-1, 2**64)))]
    flags = {"--alpha": _PROTOCOL_VALUES, "--beta": _PROTOCOL_VALUES,
             "--p-plus": _P_BOUNDS, "--eta": _EXTREME_VALUES}
    argv += [f"{flag}={draw(values)!r}" for flag, values in flags.items()]
    return [*argv, "--format", draw(st.sampled_from(["csv", "json"]))]


@settings(max_examples=150, deadline=datetime.timedelta(seconds=5))
@given(argv=_protocol_argv())
def test_every_protocol_input_ends_cleanly(argv):
    code, out = _run_to_a_clean_end(argv)
    if code == 0:
        rounds = int(argv[argv.index("--rounds") + 1])
        if argv[-1] == "json":
            stats = _strict_json(out)["rows"][0]
        else:
            header, row = out.splitlines()
            stats = dict(zip(header.split(","), row.split(",")))
        assert int(stats["n_plus"]) + int(stats["n_minus"]) == rounds


@st.composite
def _uncertainty_argv(draw):
    # --sigma-x also from its whole admitted range, [1e-150, 1e150], which
    # the extreme values mostly miss.
    flags = {"--sigma-x": st.one_of(_EXTREME_VALUES, st.floats(1e-150, 1e150)),
             "--x0": _EXTREME_VALUES, "--k0": _EXTREME_VALUES,
             "--state-re": _EXTREME_VALUES, "--state-im": _EXTREME_VALUES,
             "--beta-re": _EXTREME_VALUES, "--beta-im": _EXTREME_VALUES, "--p-beta": _P_BOUNDS}
    argv = ["uncertainty", *(f"{flag}={draw(values)!r}" for flag, values in flags.items())]
    return [*argv, "--format", draw(st.sampled_from(["csv", "json"]))]


# Most draws fail a check and exit 1, so more of them are taken.
@settings(max_examples=400, deadline=datetime.timedelta(seconds=5))
@given(argv=_uncertainty_argv())
def test_every_uncertainty_input_ends_cleanly(argv):
    code, out = _run_to_a_clean_end(argv)
    if code == 0:
        if argv[-1] == "json":
            quantities = [row["quantity"] for row in _strict_json(out)["rows"]]
        else:
            quantities = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert quantities[0] == "variance_product" and len(quantities) == 9


# SHA-256 of each output file, recorded before the table writers were
# rewritten to stream per-column formatted text.  The clone sweep at
# alpha -0.7 has a distinct sum in every cell (the ideal grid is all ones);
# the one-step sweep from beta -0.0 puts a negative zero on the beta axis;
# protocol with p_plus 1 leaves None cells (JSON null).
_CLONE_SWEEP = ["steer-region", "--steps", "150", "--channel", "clone", "--eta", "0.3", "--alpha=-0.7"]
_NEGATIVE_ZERO_SWEEP = ["steer-region", "--steps", "1", "--beta-min=-0.0"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        ([*_CLONE_SWEEP, "--format", "csv"],
         "5f2511901192c1f1127b0bac6677c3461117e8d30be684ca6f2bbe8b55844d34"),
        ([*_CLONE_SWEEP, "--format", "json"],
         "78741e83077dcedf8c85ffbfc6ef7c94a705379d69f2dd1a3640c4dc3a1fabf1"),
        ([*_CLONE_SWEEP, "--format", "svg"],
         "3391463b49f03995e92df5ed52e1801a1027abd95e6fe67b4836e15fbf97c54a"),
        (["steer-region", "--steps", "300", "--channel", "clone", "--format", "json"],
         "02620b600c850ef77e8eef729dd6343f423e21bad0db7cc0afb155ee0150b2eb"),
        ([*_NEGATIVE_ZERO_SWEEP, "--format", "csv"],
         "c309810083b12a91404869bf32273c40bb7f933dfa63a838031f4b27c9592d9d"),
        ([*_NEGATIVE_ZERO_SWEEP, "--format", "json"],
         "c1769ca9de9f1b0b8bac2df243c2daf3ec8096edc3543e3ba313b7b87886b821"),
        (["keyrate", "--steps", "1000", "--format", "csv"],
         "fa2212161d7edfe22cdae963b3431cb65cff6ef63f705ce7be0d9365262ae2f1"),
        (["keyrate", "--steps", "1000", "--format", "json"],
         "0ac349486a71bab43676aad61356ca3d695a347617919a6ffb430a7266af92a3"),
        (["keyrate", "--steps", "64", "--format", "svg"],
         "073d22c7055335454b676a835d710251387b11c0959ef58dc8d9394e6e053b3f"),
        (["protocol", "--rounds", "5", "--p-plus", "1", "--format", "csv"],
         "08c059dc0b6e97b2ae9904f40eba647f9746df250aca425b0da5cbeda9ff0204"),
        (["protocol", "--rounds", "5", "--p-plus", "1", "--format", "json"],
         "5d265fda21fab1935a5b65b30e9fefd65b55a4d78692e22009e42e35e5478ae4"),
        # Re-recorded when the meta gained "cutoff": null; rows unchanged.
        (["parity", "--oracle", "--re", "1", "--format", "json"],
         "a4c32b5673503e1fea88ae2a801e0e1679cf10f716a69b7d4f56e84266a99e20"),
        (["uncertainty", "--format", "json"],
         "fb23cd86c1242f4d24a52bff17236c4a834a8b0ea25e79581419b8133d0526c3"),
    ],
)
def test_table_writer_bytes(tmp_path, capsys, argv, digest):
    out_path = tmp_path / "out"
    code, _, _ = run_cli([*argv, "--out", str(out_path)], capsys)
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


class TestRepeatedCalls:
    def test_options_do_not_carry_into_the_next_call(self, capsys):
        # main() reuses one parser across calls in a process.
        _, first, _ = run_cli(["parity", "--re", "1", "--oracle"], capsys)
        with pytest.raises(SystemExit):
            main(["parity", "--re", "x"])
        capsys.readouterr()
        _, plain, _ = run_cli(["parity"], capsys)
        _, again, _ = run_cli(["parity", "--re", "1", "--oracle"], capsys)
        assert again == first
        assert plain.splitlines()[1].startswith("closed_form,1,")
        assert len(plain.splitlines()) == 2


# Every option of each table command at a value other than its default.
_EVERY_OPTION = {
    "parity": ["--re", "0.5", "--im=-0.25", "--oracle", "--cutoff", "40"],
    "steer-region": ["--alpha", "0.8", "--beta-min", "0.1", "--beta-max", "2", "--p-min", "0.1",
                     "--p-max", "0.9", "--steps", "3", "--channel", "clone", "--eta", "0.3"],
    "keyrate": ["--alpha", "0.9", "--beta", "0.4", "--steps", "4"],
    "protocol": ["--alpha", "0.9", "--beta", "0.4", "--p-plus", "0.3", "--rounds", "50",
                 "--seed", "5", "--channel", "clone", "--eta", "0.3"],
    "uncertainty": ["--sigma-x", "1.5", "--x0", "0.1", "--k0", "0.2", "--state-re", "0.9",
                    "--state-im", "0.1", "--beta-re", "0.4", "--beta-im", "0.05", "--p-beta", "0.4"],
}


class TestDispatch:
    @pytest.mark.parametrize("command", ["parity", "protocol", "uncertainty"])
    def test_svg_not_allowed(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "svg"])
        assert exc.value.code == 2
        assert "invalid choice: 'svg'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["steer-region", "--steps", "0"], "--steps must be at least 1"),
            (["keyrate", "--steps", "0"], "--steps must be at least 1"),
            (["protocol", "--seed", "-1"], "--seed must be nonnegative"),
        ],
    )
    def test_handler_usage_errors_read_as_the_subcommands_own(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: steerlab {argv[0]} ")
        assert err.endswith(f"steerlab {argv[0]}: error: {message}\n")

    @pytest.mark.parametrize("command", sorted(_EVERY_OPTION))
    def test_meta_params_are_the_parsed_arguments(self, tmp_path, capsys, command):
        argv = [command, *_EVERY_OPTION[command], "--format", "json"]
        if command == "protocol":
            argv += ["--transcript", str(tmp_path / "run.jsonl")]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        meta = json.loads(out)["meta"]
        parsed = vars(build_parser().parse_args(argv))
        defaults = vars(build_parser().parse_args([command]))
        for name in ("command", "run", "out", "format", "transcript"):
            parsed.pop(name, None)
        assert meta["command"] == command
        assert list(meta["params"].items()) == list(parsed.items())  # in declaration order
        assert all(value != defaults[name] for name, value in parsed.items())

    @pytest.mark.parametrize("command", ["steer-region", "protocol"])
    def test_eta_is_null_without_the_clone_channel(self, capsys, command):
        code, out, _ = run_cli([command, "--channel", "ideal", "--eta", "0.3", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["meta"]["params"]["eta"] is None


class TestSteerRegionCommand:
    def test_csv_columns_and_ideal_values(self, tmp_path, capsys):
        out_path = tmp_path / "region.csv"
        code, _, _ = run_cli(
            ["steer-region", "--steps", "5", "--out", str(out_path)], capsys
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "beta,p,sum,verdict"
        assert len(lines) == 26
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[2] == "1"
            assert fields[3] == "violates_upper"

    def test_hundred_square_grid_fast_and_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        start = time.monotonic()
        for path in paths:
            code, _, _ = run_cli(
                ["steer-region", "--steps", "100", "--out", str(path)], capsys
            )
            assert code == 0
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"two 100x100 sweeps took {elapsed:.2f}s"
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_schema(self, tmp_path, capsys):
        out_path = tmp_path / "region.json"
        code, _, _ = run_cli(
            ["steer-region", "--steps", "4", "--format", "json", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"meta", "rows"}
        assert doc["meta"]["command"] == "steer-region"
        assert {"alpha", "steps", "channel"} <= set(doc["meta"]["params"])
        for row in doc["rows"]:
            assert set(row) == {"beta", "p", "sum", "verdict"}

    def test_svg_includes_region_and_boundary(self, tmp_path, capsys):
        out_path = tmp_path / "region.svg"
        code, _, _ = run_cli(
            ["steer-region", "--steps", "20", "--format", "svg", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        svg = out_path.read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") > 20
        assert "<polyline" in svg

    # SHA-256 of the 40-step CSV, recorded before the sweep was reduced to
    # two branch probabilities per beta.
    @pytest.mark.parametrize(
        "channel,digest",
        [
            ("ideal", "53244abf1f6a31ac2c77bd5ed985209baebaa53b026658ec1a0f29fdd478ddeb"),
            ("clone", "cfc92c022082247a6d3ddefe736b25cc273c7b27d6ed4b66d760bc6514bfa93e"),
        ],
    )
    def test_forty_step_csv_bytes(self, tmp_path, capsys, channel, digest):
        out_path = tmp_path / "region.csv"
        code, _, _ = run_cli(
            ["steer-region", "--steps", "40", "--channel", channel, "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    # SHA-256 of the 40-step SVG and JSON, recorded before the sweep
    # returned one (beta, p) array.
    @pytest.mark.parametrize(
        "channel,fmt,digest",
        [
            ("ideal", "svg", "e7245a0aeb72ac3189eccd03bd90c943d0a9a6cce7f7802ed74c9d3db7ea8425"),
            ("clone", "svg", "2c300592ed5c0e5a4baa0af61c4a347633534675172c9c1a358e3998898589bf"),
            ("ideal", "json", "c6dd21b8a5d36ae70229f1d66b9840711d2942737f0520b8dc26f4aeefd68786"),
            ("clone", "json", "33ad4fb8cc7132b736bf9f62b15c4a9231caddefac0f17e990c29dcb2b1ceb8b"),
        ],
    )
    def test_forty_step_svg_and_json_bytes(self, tmp_path, capsys, channel, fmt, digest):
        out_path = tmp_path / f"region.{fmt}"
        code, _, _ = run_cli(
            ["steer-region", "--steps", "40", "--channel", channel, "--format", fmt,
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    # SHA-256 recorded at the same commit.  The first three ranges hold 10
    # grid points but only 2 or 3 distinct values, which set the cell size
    # (on the subnormal ranges counting repeats would change the bytes); the
    # last two put betas at and near 0, where the boundary formula is skipped.
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["--beta-min", "1", "--beta-max", "1.0000000000000002", "--steps", "10"],
                "0cf91ea93e988c7e068c1babc8a37040e28dfdaa839687aa2298795b1c8271ac",
            ),
            (
                ["--beta-min", "0", "--beta-max", "1e-323", "--steps", "10"],
                "af3f0a7bb457f7697978ee1615aff664e132dbab481ef806943b5db7f0ca7c67",
            ),
            (
                ["--p-min", "0", "--p-max", "1e-323", "--steps", "10"],
                "d946227b8914c8eab1a7e04e117d83f29f39f355cad242f8f2541c6be5a9a859",
            ),
            (
                ["--beta-min=-1", "--beta-max", "1", "--steps", "11"],
                "787344e4b9d48d7526bb3993812f781f0b04a47511baa0552681814146523458",
            ),
            (
                ["--beta-min=-2e-6", "--beta-max", "2e-6", "--steps", "5"],
                "77351fc6fe7e7e2d301cfe0815cbdd0f3c8dda6d980214f567065465a25f967a",
            ),
        ],
    )
    def test_edge_range_svg_bytes(self, tmp_path, capsys, argv, digest):
        out_path = tmp_path / "region.svg"
        code, _, _ = run_cli(
            ["steer-region", *argv, "--format", "svg", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    # SHA-256 of the largest admitted clone sweep, recorded while the sweep
    # still took its branch probabilities one beta at a time and the SVG
    # formatted each cell on its own.
    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("csv", "c79c547b7ac1ff33a8563695b8c061222a52a4e00c41871457240956b5ac2ba8"),
            ("svg", "96b750be500783b46b9a955bdfc73b7ff85d2f096681e68f54b576d9479fb94b"),
        ],
    )
    def test_largest_clone_sweep_bytes(self, tmp_path, capsys, fmt, digest):
        out_path = tmp_path / f"region.{fmt}"
        code, _, _ = run_cli(
            ["steer-region", "--steps", "500", "--channel", "clone", "--format", fmt,
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_invalid_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["steer-region", "--beta-min", "2", "--beta-max", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["steer-region", "--p-max", "1.5"])
        assert exc.value.code == 2

    def test_infinite_range_bound_exits_2(self, capsys):
        # With one step the upper bound is never swept, and it once reached
        # the JSON meta as a bare Infinity.
        with pytest.raises(SystemExit) as exc:
            main(["steer-region", "--steps", "1", "--beta-max", "inf", "--format", "json"])
        assert exc.value.code == 2
        assert "ranges must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # Finite bounds whose third grid point, 0.05 + (1e308 - 0.05) * 2 / 49,
            # overflows.
            (["--alpha=1e308", "--beta-max=1e308"],
             "displacement beta is not finite: beta_grid[2] is inf"),
            (["--alpha=1e308", "--beta-min=1e308", "--beta-max=1.5e308", "--steps", "2"],
             "displacement alpha + beta overflows at alpha 1e+308 and beta 1e+308"),
            (["--alpha=-1e308", "--beta-min=1e308", "--beta-max=1.5e308", "--steps", "2"],
             "displacement alpha - beta overflows at alpha -1e+308 and beta 1e+308"),
            # Bob's clone at eta = pi is -(alpha + beta), displaced by as much again.
            (["--alpha=8e307", "--beta-min=0", "--beta-max=1e307", "--steps", "2",
              "--channel", "clone", f"--eta={math.pi!r}"],
             "a displaced channel output is not finite: -inf"),
        ],
    )
    def test_overflowing_displacement_exits_1_naming_it(self, capsys, argv, message):
        code, out, err = run_cli(["steer-region", *argv], capsys)
        assert code == 1
        assert out == ""
        assert err == f"steerlab: error: {message}\n"

    def test_too_many_steps_exits_2(self, capsys):
        # Rejected before any grid is built: the sweep's memory grows with steps^2.
        with pytest.raises(SystemExit) as exc:
            main(["steer-region", "--steps", "501"])
        assert exc.value.code == 2
        assert "--steps must be at most 500" in capsys.readouterr().err


class TestKeyrateCommand:
    def test_pivot_row_and_endpoints(self, capsys):
        code, out, _ = run_cli(["keyrate", "--steps", "8"], capsys)
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        assert header == [
            "eta", "p01", "q01", "i_ab", "i_ae", "rate", "p01_sinh_form", "q01_sinh_form",
        ]
        rows = [line.split(",") for line in lines[1:]]
        rate_idx = header.index("rate")
        pivot = rows[4]
        assert abs(float(pivot[0]) - math.pi / 4) < 1e-15
        assert abs(float(pivot[rate_idx])) < 1e-12
        first, last = rows[0], rows[-1]
        assert float(first[header.index("i_ab")]) == 1.0
        assert float(first[rate_idx]) >= 0.0
        assert float(last[header.index("i_ae")]) == 1.0
        assert float(last[rate_idx]) <= 0.0

    def test_svg_output(self, tmp_path, capsys):
        out_path = tmp_path / "rate.svg"
        code, _, _ = run_cli(
            ["keyrate", "--steps", "16", "--format", "svg", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "<polyline" in out_path.read_text()

    def test_invalid_step_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["keyrate", "--steps", "0"])
        assert exc.value.code == 2

    def test_too_many_steps_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["keyrate", "--steps", "100001"])
        assert exc.value.code == 2
        assert "--steps must be at most 100000" in capsys.readouterr().err

    def test_largest_curve_bytes(self, tmp_path, capsys):
        # SHA-256 recorded while the curve was still a list of scalar points.
        out_path = tmp_path / "rate.csv"
        code, _, _ = run_cli(["keyrate", "--steps", "100000", "--out", str(out_path)], capsys)
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "2c70e72a2f90f8b9b418294c371593231a52e7b99c8cd9d21a1b8e97defdc859"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # Recorded before the sinh form gained its overflow fallback;
            # alpha 26 reaches |delta|^2 = 702, just below where sinh overflows.
            (["--alpha", "20"], "60a246248d05115acffa356b1c18c10983bdc5d918930a84a555cdb2f6bef5c7"),
            (["--alpha", "26", "--format", "json"],
             "dd06ceaf3c06d08bb7e8bf4efcd242b72de663c4e8a1048d60865d899c62fd83"),
        ],
    )
    def test_sinh_columns_keep_their_bytes(self, capsys, argv, digest):
        code, out, _ = run_cli(["keyrate", "--steps", "8", *argv], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "flag, value, shown",
        [("--alpha", "inf", "inf and 0.5"), ("--beta", "nan", "1.0 and nan")],
    )
    def test_non_finite_amplitude_exits_1_naming_it(self, capsys, flag, value, shown):
        code, out, err = run_cli(["keyrate", flag, value], capsys)
        assert code == 1
        assert out == ""
        assert err == f"steerlab: error: alpha and beta must be finite, got {shown}\n"

    def test_sinh_overflow_no_longer_fails(self, capsys):
        # |delta|^2 reaches 930.25: math.sinh overflows, the value does not.
        code, out, _ = run_cli(["keyrate", "--alpha", "30", "--steps", "4"], capsys)
        assert code == 0
        last = out.splitlines()[-1].split(",")
        m2 = 30.5**2
        assert float(last[6]) == pytest.approx(math.exp(m2 / 2) / 4, rel=1e-12)
        assert math.isfinite(float(last[7]))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_sinh_column_exits_1(self, tmp_path, capsys, fmt):
        out_path = tmp_path / f"rate.{fmt}"
        code, _, err = run_cli(
            ["keyrate", "--alpha", "60", "--steps", "4", "--format", fmt, "--out", str(out_path)],
            capsys,
        )
        assert code == 1
        # Eve's offset at eta = 0 is the whole amplitude, 60.5.
        assert "column q01_sinh_form is not finite at eta 0.0: inf" in err
        assert not out_path.exists()

    def test_svg_has_no_sinh_columns_to_overflow(self, tmp_path, capsys):
        out_path = tmp_path / "rate.svg"
        code, _, _ = run_cli(
            ["keyrate", "--alpha", "60", "--steps", "4", "--format", "svg", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out_path.read_text().startswith("<svg")


class TestProtocolCommand:
    def test_fixed_seed_reproducible_json(self, tmp_path, capsys):
        args = [
            "protocol", "--rounds", "2000", "--seed", "11",
            "--channel", "clone", "--format", "json",
        ]
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(args + ["--out", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        doc = json.loads(paths[0].read_text())
        stats = doc["rows"][0]
        assert {"n_plus", "n_minus", "empirical_p01", "empirical_q01",
                "stderr_p01", "empirical_rate"} == set(stats)

    def test_transcript_file_is_valid_jsonl(self, tmp_path, capsys):
        transcript = tmp_path / "t.jsonl"
        code, _, _ = run_cli(
            [
                "protocol", "--rounds", "100", "--seed", "2", "--channel", "clone",
                "--transcript", str(transcript), "--format", "json",
                "--out", str(tmp_path / "s.json"),
            ],
            capsys,
        )
        assert code == 0
        lines = transcript.read_text().splitlines()
        assert len(lines) == 100
        for line in lines:
            obj = json.loads(line)
            assert obj["bob"] in ("E", "O")

    def test_stdout_transcript_bytes(self):
        # The transcript, then the CSV statistics, as the installed script
        # writes them to stdout; recorded while every transcript line was
        # rendered by an f-string.  The run crosses index 10**5 and two
        # chunk boundaries.
        src = os.path.dirname(os.path.dirname(protocol.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "steerlab.cli", "protocol", "--channel", "clone",
             "--rounds", "150000", "--seed", "5", "--transcript", "-"],
            env=env, check=True, capture_output=True, timeout=120,
        ).stdout
        assert hashlib.sha256(out).hexdigest() == (
            "7977587a4e031ae9a7f80febf60716df444e830dafdb4efd39b35c9296a298a6"
        )

    _BOTH_ON_STDOUT = [
        "protocol", "--channel", "ideal", "--p-plus", "0.3", "--rounds", "40000", "--seed", "13",
        "--transcript", "-", "--out", "-",
    ]

    @pytest.mark.parametrize("how", ["subprocess", "in-process"])
    def test_transcript_then_stats_on_stdout_bytes(self, capsys, how):
        # Both outputs on stdout: the transcript of a run without an
        # eavesdropper, in several pieces, then its CSV statistics, from the
        # installed script's stdout and from pytest's captured one alike.
        if how == "subprocess":
            src = os.path.dirname(os.path.dirname(protocol.__file__))
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run(
                [sys.executable, "-m", "steerlab.cli", *self._BOTH_ON_STDOUT],
                env=env, check=True, capture_output=True, timeout=120,
            ).stdout
        else:
            print("before")  # text written before stays before
            code, text, _ = run_cli(self._BOTH_ON_STDOUT, capsys)
            assert code == 0 and text.startswith("before\n")
            out = text[len("before\n"):].encode("utf-8")
        assert out.endswith(b"\nn_plus,n_minus,empirical_p01,empirical_q01,stderr_p01,empirical_rate\n"
                            b"12052,27948,0,None,0,None\n")
        assert hashlib.sha256(out).hexdigest() == (
            "b757586143273741b8d244e1ee9587b9e0b7f636b6a90211f88648def159ddf3"
        )

    def test_too_many_rounds_exits_2_before_any_draw(self, capsys, monkeypatch):
        # The cap bounds a run's time and transcript size; the patched run
        # fails if the cap lets the request through.
        def fail(*args, **kwargs):
            raise AssertionError("protocol ran past the --rounds cap")

        monkeypatch.setattr(protocol, "run_protocol", fail)
        with pytest.raises(SystemExit) as exc:
            main(["protocol", "--rounds", "100000001"])
        assert exc.value.code == 2
        assert "--rounds must be at most 100000000" in capsys.readouterr().err

    def test_oversized_poisson_table_exits_1(self, tmp_path, capsys):
        # alpha 1e7 would need a sampler window of about 7e7 entries; the
        # limit check raises before any table is built.
        out_path = tmp_path / "stats.csv"
        code, _, err = run_cli(
            ["protocol", "--channel", "clone", "--alpha", "1e7", "--rounds", "10",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 1
        assert "Poisson table" in err
        assert not out_path.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_means_exit_1_naming_them(self, capsys):
        # Bob's and Eve's means overflow to inf for both preparations.  The
        # warning filter stands for a console, where numpy warnings are no
        # errors.
        code, _, err = run_cli(
            ["protocol", "--channel", "clone", "--alpha=1e300", "--eta", "0.7", "--rounds", "2"],
            capsys,
        )
        assert code == 1
        assert err == "steerlab: error: Poisson means must be finite and nonnegative\n"

    @pytest.mark.parametrize("alpha, beta", [("5e6", "-5e6"), ("1e200", "-1e200")])
    def test_a_preparation_that_never_occurs_needs_no_table(self, capsys, alpha, beta):
        # p_plus 1: every round prepares alpha + beta = 0.  The other
        # preparation's means (about 5.7e12, or an overflow to inf) would
        # need a table past the limit, or none at all.
        code, out, err = run_cli(
            ["protocol", "--channel", "clone", f"--alpha={alpha}", f"--beta={beta}",
             "--p-plus=1", "--eta", "0.7", "--rounds", "2"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "2,0,0,0,0,0"

    @pytest.mark.parametrize("flag", ["--alpha", "--eta"])
    def test_huge_ideal_channel_flags_run(self, capsys, flag):
        # The ideal channel cancels any finite amplitude exactly and
        # ignores --eta, so both runs end with every round even.
        code, out, err = run_cli(["protocol", flag, "1e300", "--rounds", "2"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[2] == "0"

    def test_large_alpha_runs(self, capsys):
        # Means of about 3.1e6: windows of about 4.2e4 entries, where a
        # full 0..cutoff table would need 3.1e6.
        code, out, _ = run_cli(
            ["protocol", "--channel", "clone", "--alpha", "6000", "--rounds", "10",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        stats = json.loads(out)["rows"][0]
        assert stats["n_plus"] + stats["n_minus"] == 10

    def test_csv_stats(self, capsys):
        code, out, _ = run_cli(
            ["protocol", "--rounds", "500", "--seed", "1", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n_plus,n_minus,empirical_p01")
        assert len(lines) == 2


class TestUncertaintyCommand:
    def test_default_table(self, capsys):
        code, out, _ = run_cli(["uncertainty"], capsys)
        assert code == 0
        rows = {line.split(",")[0]: line.split(",")[1:] for line in out.splitlines()[1:]}
        assert float(rows["variance_product"][0]) == 0.25
        assert abs(float(rows["entropic_sum_nats"][0]) - math.log(math.pi * math.e)) < 1e-4
        assert rows["entropic_sum_nats"][1] == "satisfied"

    def test_excluded_region_flag(self, capsys):
        code, out, _ = run_cli(
            [
                "uncertainty", "--state-re", "0", "--state-im", "0",
                "--beta-re", "0", "--beta-im", "0",
            ],
            capsys,
        )
        assert code == 0
        rows = {line.split(",")[0]: line.split(",")[1:] for line in out.splitlines()[1:]}
        assert rows["fine_grained_even"][1] == "excluded_region"

    # SHA-256 of the CSV, recorded while the fine-grained sum still took
    # one input object per branch.
    @pytest.mark.parametrize(
        "args,digest",
        [
            ([], "04af23688d8e705cf711ddeb0c612b99585314f211dc11d5dd8777edce415957"),
            (
                ["--state-re=0", "--beta-re=0"],
                "2f4fb59168e47166cd8478ab872114dfb68b9e0f67c39beefb8125f5db7cef92",
            ),
            (
                [
                    "--state-re=0.3", "--state-im=-0.4", "--beta-re=0.7",
                    "--beta-im=0.2", "--p-beta=0.3",
                ],
                "7281d91ac5a0871a44dd52ace07e2a68065b6cce1658fba1309d469d40e855bc",
            ),
        ],
    )
    def test_csv_bytes(self, capsys, args, digest):
        code, out, _ = run_cli(["uncertainty"] + args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sigma_x**2 underflows to 0 below about 1e-162, and overflows above
    # about 1e154; both once ended in a bare arithmetic error.
    @pytest.mark.parametrize("sigma_x", ["1e-300", "1e300"])
    def test_unrepresentable_sigma_x_exits_1(self, tmp_path, capsys, sigma_x):
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(
            ["uncertainty", "--sigma-x", sigma_x, "--out", str(out_path)], capsys
        )
        assert code == 1
        assert f"steerlab: error: --sigma-x must lie in [1e-150, 1e+150], got {float(sigma_x)!r}" in err
        assert not out_path.exists()

    # At 1e200 every grid point rounded to x0 and the run exited 0 with a
    # false "violated" flag on entropic_sum_nats.
    @pytest.mark.parametrize("x0", ["1e200", "1e17"])
    def test_x0_the_grid_cannot_resolve_exits_1(self, tmp_path, capsys, x0):
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(["uncertainty", "--x0", x0, "--out", str(out_path)], capsys)
        assert code == 1
        assert f"steerlab: error: x0 {float(x0)!r} is too far from 0" in err
        assert not out_path.exists()


class TestExitCodes:
    def test_runtime_error_exits_1_without_partial_file(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir"
        code, _, err = run_cli(
            ["parity", "--re", "1", "--out", str(missing_dir / "out.csv")], capsys
        )
        assert code == 1
        assert "error" in err
        assert not missing_dir.exists()

    def test_failed_transcript_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        from steerlab import protocol

        write_transcript = protocol.write_transcript

        def fail_midway(transcript, sink):
            write_transcript(transcript[:5], sink)
            raise RuntimeError("write failed midway")

        monkeypatch.setattr(protocol, "write_transcript", fail_midway)
        code, _, err = run_cli(
            [
                "protocol", "--rounds", "100", "--transcript", str(tmp_path / "t.jsonl"),
                "--out", str(tmp_path / "s.json"),
            ],
            capsys,
        )
        assert code == 1
        assert "write failed midway" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["protocol", "--rounds", "5000000", "--transcript"],
            ["protocol", "--rounds", "5000000", "--out"],
            ["keyrate", "--steps", "100000", "--out"],
        ],
    )
    @pytest.mark.parametrize("case", ["directory", "missing directory", "empty", "separator"])
    def test_unwritable_output_path_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch, argv, case):
        # Refused as typed before the run, which would otherwise write its
        # whole output to a temp file of open_atomic and then fail to move
        # it onto the path.
        from steerlab import keyrate

        calls = []
        monkeypatch.setattr(protocol, "run_protocol", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(keyrate, "key_rate_curve", lambda *args: calls.append(args))
        monkeypatch.chdir(tmp_path)
        path, problem = {
            "directory": (str(tmp_path), "is a directory"),
            "missing directory": (
                str(tmp_path / "no" / "out.csv"), f"directory {str(tmp_path / 'no')!r} does not exist"
            ),
            "empty": ("", "names no file"),
            "separator": ("new/", "names no file"),
        }[case]
        code, out, err = run_cli([*argv, path], capsys)
        assert (code, out, calls) == (1, "", [])
        assert err == f"steerlab: error: {argv[-1]} {path!r}: {problem}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("transcript", ["same.out", "./same.out", "sub/../same.out", "link.out", "ABS"])
    def test_transcript_naming_the_out_file_exits_1_before_any_work(
        self, tmp_path, capsys, monkeypatch, transcript
    ):
        # The statistics would replace the transcript by their rename, so
        # the run would exit 0 with the transcript lost.  Resolved paths are
        # compared: relative, through "..", through a symlink, absolute.
        calls = []
        monkeypatch.setattr(protocol, "run_protocol", lambda *args, **kwargs: calls.append(args))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.out").symlink_to("same.out")
        transcript = str(tmp_path / "same.out") if transcript == "ABS" else transcript
        code, out, err = run_cli(
            ["protocol", "--rounds", "5", "--transcript", transcript, "--out", "same.out"], capsys
        )
        assert (code, out, calls) == (1, "", [])
        assert err == f"steerlab: error: --transcript {transcript!r}: names the same file as --out\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.out", "sub"]

    def test_transcript_and_out_may_both_be_stdout(self, tmp_path, capsys, monkeypatch):
        code, out, err = run_cli(
            ["protocol", "--rounds", "2", "--transcript", "-", "--out", "-", "--format", "csv"], capsys
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[0].startswith('{"i":0,') and out.splitlines()[2].startswith("n_plus,")
        # A file named "-" is not stdout.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            ["protocol", "--rounds", "2", "--transcript", "./-", "--out", "-", "--format", "csv"], capsys
        )
        assert (code, err) == (0, "")
        assert out.startswith("n_plus,") and (tmp_path / "-").read_text().startswith('{"i":0,')

    def test_success_returns_zero(self, capsys):
        code, _, _ = run_cli(["parity"], capsys)
        assert code == 0


class TestReportCommand:
    def test_sections_and_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "r1.md", tmp_path / "r2.md"]
        for path in paths:
            code, _, _ = run_cli(["report", "--out", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        text = paths[0].read_text()
        assert "## 1. Odd-parity error probability" in text
        assert "## 2. Steerable-region boundary" in text
        assert "## 3. Displacement choice targeting odd parity" in text
        assert "## 4. Eve's optimal cloning parameter" in text

    def test_numbers_match_library(self, tmp_path, capsys):
        from steerlab.keyrate import bob_error

        path = tmp_path / "r.md"
        run_cli(["report", "--out", str(path)], capsys)
        text = path.read_text()
        value = format(bob_error(1.0, 0.5, math.pi / 4), ".17g")
        assert value in text
