"""Record the goldens that the workloads' output checks compare against.

    python3 perfbench/make_goldens.py

Draws the input pools from a fixed generator, runs each pooled input
through the CLI of the checkout's ``src/steerlab`` and writes
``perfbench/goldens.json``.  Re-running it on a later commit would pin
that commit's output instead, so do it only to re-pin on purpose, and
record why.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import steerlab  # noqa: E402
from steerlab import cli, protocol  # noqa: E402

import workloads as w  # noqa: E402

POOL_SIZES = {
    "full": {"transcript": 32, "montecarlo": 128, "steer": 8},
    "tiny": {"transcript": 4, "montecarlo": 8, "steer": 2},
}


def _run(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"steerlab {' '.join(argv)} exited {code}")


def transcript_pool(rng: random.Random, size: int, rounds: int, tmp: Path) -> list[dict]:
    pool = []
    transcript, stats = tmp / "t.jsonl", tmp / "t.json"
    for _ in range(size):
        seed = rng.randrange(2**32)
        _run(w.transcript_argv(seed, rounds, transcript, stats))
        pool.append({
            "seed": seed,
            "stats_sha256": w.sha256_file(stats),
            "transcript_sha256": w.sha256_file(transcript),
            "records_sha256": w.records_digest(protocol.read_transcript(str(transcript))),
        })
    return pool


def montecarlo_pool(rng: random.Random, channel: str, size: int, rounds: int, tmp: Path) -> list[dict]:
    pool = []
    out = tmp / "m.json"
    for _ in range(size):
        entry = {
            "channel": channel,
            "alpha": rng.uniform(0.5, 2.0),
            "beta": rng.uniform(0.2, 1.0),
            "eta": rng.uniform(0.0, w.HALF_PI) if channel == "clone" else None,
            "seed": rng.randrange(2**32),
        }
        _run(w.montecarlo_argv(entry, rounds, out))
        entry["stats_sha256"] = w.sha256_file(out)
        pool.append(entry)
    return pool


def steer_pool(rng: random.Random, steps: int, channel: str, size: int, tmp: Path) -> list[dict]:
    pool = []
    out = tmp / "s.csv"
    for _ in range(size):
        entry = {
            "steps": steps,
            "channel": channel,
            "alpha": rng.uniform(0.5, 2.0),
            "eta": rng.uniform(0.0, w.HALF_PI) if channel == "clone" else None,
        }
        _run(w.steer_argv(entry, "csv", out))
        entry.update(w.steer_fingerprint(*w.read_csv(out)))
        pool.append(entry)
    return pool


def main() -> int:
    rng = random.Random("perfbench-goldens")
    goldens = {
        "recorded_with": {
            "steerlab": steerlab.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "scales": {},
    }
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp_name:
        tmp = Path(tmp_name)
        for scale, sizes in w.SCALES.items():
            counts = POOL_SIZES[scale]
            pools = {
                "transcript": transcript_pool(rng, counts["transcript"], sizes["transcript_rounds"], tmp),
            }
            for channel in ("ideal", "clone"):
                pools[f"montecarlo_{channel}"] = montecarlo_pool(
                    rng, channel, counts["montecarlo"], sizes["montecarlo_rounds"], tmp
                )
            for steps in sizes["steer_steps"]:
                for channel in ("ideal", "clone"):
                    pools[f"steer_{steps}_{channel}"] = steer_pool(rng, steps, channel, counts["steer"], tmp)
            goldens["scales"][scale] = pools
            print(f"{scale}: {', '.join(f'{k}={len(v)}' for k, v in pools.items())}", file=sys.stderr)
        report = tmp / "report.md"
        _run(["report", "--out", str(report)])
        sections = w.report_sections(report.read_text(encoding="utf-8"))
        goldens["report_sections_1_3"] = "\n## ".join(sections[:4])
    w.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
