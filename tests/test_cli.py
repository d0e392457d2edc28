import hashlib
import json
import math
import time

import pytest

from steerlab import protocol
from steerlab.cli import main


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

    def test_svg_not_allowed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parity", "--format", "svg"])
        assert exc.value.code == 2


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

    def test_invalid_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["steer-region", "--beta-min", "2", "--beta-max", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["steer-region", "--p-max", "1.5"])
        assert exc.value.code == 2

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

    def test_too_many_rounds_exits_2_before_any_draw(self, capsys, monkeypatch):
        # The run holds every round in memory; the cap keeps it near 0.5 GB.
        def fail(*args, **kwargs):
            raise AssertionError("protocol ran past the --rounds cap")

        monkeypatch.setattr(protocol, "run_protocol", fail)
        with pytest.raises(SystemExit) as exc:
            main(["protocol", "--rounds", "5000001"])
        assert exc.value.code == 2
        assert "--rounds must be at most 5000000" in capsys.readouterr().err

    def test_oversized_poisson_table_exits_1(self, tmp_path, capsys):
        # alpha 1e5 would need a table of about 8.6e8 entries; the limit
        # check raises before any table is built.
        out_path = tmp_path / "stats.csv"
        code, _, err = run_cli(
            ["protocol", "--channel", "clone", "--alpha", "1e5", "--rounds", "10",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 1
        assert "Poisson table" in err
        assert not out_path.exists()

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
