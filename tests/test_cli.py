import hashlib
import json
import math
import time

import pytest

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

    def test_svg_not_allowed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parity", "--format", "svg"])
        assert exc.value.code == 2


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

    def test_invalid_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["steer-region", "--beta-min", "2", "--beta-max", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["steer-region", "--p-max", "1.5"])
        assert exc.value.code == 2


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
