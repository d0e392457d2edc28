"""steerlab benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports ``src/steerlab``
from that checkout and writes only under ``.perfbench_work/`` there,
which it removes when it ends.

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json:
it times set-up in a few probe children, then one workload child runs
seeded batches of operations in a closed loop (one caller, each
operation waiting for the previous one) for ``--seconds``.  Batch and
operation times are reported in units of a reference task run around
each batch (reference.py), which cancels the host's speed drift; the
same figures in seconds are printed too, outside the result line.

``--trace 1`` reports the per-layer metrics: an untraced and a traced
child run the same fixed number of batches, and the traced one wraps the
layers' public functions (see tracer.py).

Every line but the last is for people: machine and run facts, then one
line per metric with its unit and sample count.  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

SETUP_PROBES = 7
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "steerlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_facts(args, workload: str, child: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "steerlab": child.get("steerlab"),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_sha256(ROOT),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def spawn(deadline: float, *child_args: str) -> dict:
    """Run one child to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    argv = [sys.executable, str(CHILD), "--t0", repr(time.monotonic()), *child_args]
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(child_args)} exceeded the run deadline") from None
    if done.returncode != 0:
        raise BenchError(f"child {' '.join(child_args)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_times(batches: list) -> list[float]:
    return [elapsed for ops in batches for _, elapsed, _ in ops]


def batch_walls(batches: list) -> list[float]:
    return [sum(elapsed for _, elapsed, _ in ops) for ops in batches]


def failures(batches: list) -> int:
    return sum(error is not None for ops in batches for _, _, error in ops)


def relative_batches(child: dict) -> list[list[float]]:
    """Each operation's time over its batch's reference time: the mean of the
    reference-task runs just before and just after the batch."""
    refs = child["refs"]
    return [[elapsed / ((refs[i] + refs[i + 1]) / 2.0) for _, elapsed, _ in ops]
            for i, ops in enumerate(child["batches"])]


def end_to_end(args, workload: str, workdir: Path, deadline: float) -> tuple[dict, dict, list]:
    common = ("--workload", workload, "--seed", str(args.seed), "--scale", args.scale)
    spawn(deadline, "--mode", "probe")  # warms the file cache and the bytecode cache; not timed
    probes = [spawn(deadline, "--mode", "probe") for _ in range(SETUP_PROBES)]
    child = spawn(deadline, "--mode", "timed", "--seconds", str(args.seconds), "--workdir", str(workdir), *common)
    setups = [p["setup_s"] for p in probes] + [child["setup_s"]]
    times = op_times(child["batches"])
    walls = batch_walls(child["batches"])
    rel_batches = relative_batches(child)
    rel_times = [t for batch in rel_batches for t in batch]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_ref": (statistics.fmean(sum(batch) for batch in rel_batches), len(rel_batches)),
        # Every batch has the same mix, so each batch's median estimates the same
        # thing; their mean is far steadier than one median over a wide spread of
        # operation times (large_mean), where it hangs on a few operations.
        "op_p50_ref": (statistics.fmean(statistics.median(batch) for batch in rel_batches), len(rel_times)),
        "op_p90_ref": (quantile(rel_times, 90), len(rel_times)),
        "peak_rss_mb": (child["maxrss_kb"] / 1024.0, 1),
        # The same figures in seconds, for people; on a shared host they drift with its speed.
        "wall_s": (statistics.fmean(walls), len(walls)),
        "op_p50_s": (statistics.fmean(statistics.median(t for _, t, _ in ops) for ops in child["batches"]), len(times)),
        "op_p90_s": (quantile(times, 90), len(times)),
        "reference_s": (statistics.median(child["refs"]), len(child["refs"])),
    }
    return values, child, [child]


def traced(args, workload: str, workdir: Path, deadline: float) -> tuple[dict, dict, list]:
    batches = max(1, math.ceil(args.seconds / (2.0 * workloads.NOMINAL_BATCH_S[workload])))
    common = ("--mode", "fixed", "--batches", str(batches), "--workload", workload,
              "--seed", str(args.seed), "--scale", args.scale, "--workdir", str(workdir))
    plain = spawn(deadline, *common)
    wrapped = spawn(deadline, *common, "--traced")
    values = {name: (value, batches) for name, value in wrapped["trace"].items()}
    overhead = statistics.median(batch_walls(wrapped["batches"])) - statistics.median(batch_walls(plain["batches"]))
    values["trace.overhead_s"] = (overhead, batches)
    values["trace.batches"] = (batches, batches)
    values["process.cpu_s"] = (plain["cpu_s"], 1)
    return values, plain, [plain, wrapped]


def run_one(args, workload: str, declared: list[dict]) -> int:
    """Measure one workload and print its facts, metric lines and result line."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        values, facts_child, children = (traced if args.trace else end_to_end)(args, workload, workdir, deadline)
    except BenchError as exc:
        print(f"perfbench: {workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(len(ops) for child in children for ops in child["batches"])
    failed = sum(failures(child["batches"]) for child in children)
    print("facts " + json.dumps(machine_facts(args, workload, facts_child), sort_keys=True))
    print(f"run workload={workload} seed={args.seed} trace={args.trace} "
          f"batches={len(children[0]['batches'])} ops={attempted}")
    metrics = {}
    for metric in declared:
        value, count = values.get(metric["name"], (0.0, 0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<44} {value:>16.6g} {metric['unit']:<6} n={count}")
    print(f"  {'fail_ratio':<44} {failed / max(attempted, 1):>16.6g} {'ratio':<6} n={attempted}")
    for name in sorted(set(values) - {m["name"] for m in declared}):
        print(f"  {name:<44} {values[name][0]:>16.6g} (not in BENCHMARK.json)")
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "steerlab" / "cli.py").is_file():
        print(f"perfbench: no steerlab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    return max(run_one(args, workload, declared) for workload in names)


if __name__ == "__main__":
    sys.exit(main())
