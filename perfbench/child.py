"""One workload child: import steerlab, run batches, report on stdout.

Started by run.py with the parent's ``time.monotonic()`` at spawn time,
so the child can report its own set-up time: interpreter start plus the
import of ``steerlab.cli`` (and numpy under it).  CLOCK_MONOTONIC is
system-wide on Linux, so the two readings are comparable.

Modes:
    probe   import, report set-up time, exit
    timed   run batches 0, 1, ... while the next one, at the mean batch time
            so far, ends within --seconds (at least one), with the
            reference task (reference.py) before the first and after each
    fixed   run exactly --batches batches, optionally under the tracer

The last stdout line is one JSON object.  Inside a batch a single caller
runs the operations one after another; each operation's time covers the
CLI call and any library call that belongs to it, not its output check.
"""

import sys
import time

T_START_ARG = "--t0"

# In a timed run the reference task (reference.py) runs before the first
# batch and after every batch, each time for this share of the batch's
# time (the first time, of its nominal time), so that it samples the
# host's speed long enough.
REFERENCE_SHARE = 0.3


def _spawn_time() -> float:
    return float(sys.argv[sys.argv.index(T_START_ARG) + 1])


def main() -> int:
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import steerlab.cli

    setup_s = time.monotonic() - _spawn_time()

    import argparse
    import json
    import resource
    from contextlib import nullcontext
    from time import perf_counter
    from types import SimpleNamespace

    import numpy as np
    import steerlab
    import steerlab.keyrate
    import steerlab.protocol

    import reference
    import tracer as tracing
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument(T_START_ARG, type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "timed", "fixed"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--batches", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--workdir")
    args = parser.parse_args()

    expected_src = root / "src" / "steerlab"
    if Path(steerlab.__file__).resolve().parent != expected_src.resolve():
        print(f"perfbench: imported steerlab from {steerlab.__file__}, not {expected_src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s, "numpy": np.__version__, "steerlab": steerlab.__version__}
    if args.mode == "probe":
        print(json.dumps(result))
        return 0

    lab = SimpleNamespace(cli=steerlab.cli, protocol=steerlab.protocol, keyrate=steerlab.keyrate)
    run = workloads.Run(args.workload, args.seed, args.scale, Path(args.workdir), workloads.load_goldens())
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracer.install(tracing.layer_modules())
    paused = tracer.paused if tracer else nullcontext

    def execute(op: workloads.Op) -> tuple[float, str | None]:
        extra, error = None, None
        start = perf_counter()
        try:
            code = lab.cli.main(op.argv)
            if code == 0 and op.after is not None:
                extra = op.after(lab)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the loop must go on; the failure is counted
            code, error = 1, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                with paused():
                    op.check(lab, extra)
            except workloads.CheckFailed as exc:
                error = str(exc)
            except Exception as exc:  # a crashing check is a failed operation too
                error = f"check raised {type(exc).__name__}: {exc}"
        return elapsed, error

    timed = args.mode == "timed"
    batches = []
    refs = []  # timed mode: mean reference-task time before batch 0, then after each batch
    if timed:
        reference.reference_task()  # warm-up, not recorded
    loop_start = time.monotonic()
    if timed:
        refs.append(reference.reference_time(REFERENCE_SHARE * workloads.NOMINAL_BATCH_S[args.workload]))
    try:
        index = 0
        while True:
            if args.mode == "fixed" and index >= args.batches:
                break
            if timed and index > 0:
                spent = time.monotonic() - loop_start
                if spent + spent / index > args.seconds:  # the next batch would end past --seconds
                    break
            ops = []
            for op in run.batch(index):
                elapsed, error = execute(op)
                if error is not None:
                    print(f"perfbench: {args.workload} batch {index} {op.kind}: {error}", file=sys.stderr)
                ops.append([op.kind, elapsed, error])
            batches.append(ops)
            index += 1
            if timed:
                refs.append(reference.reference_time(REFERENCE_SHARE * sum(elapsed for _, elapsed, _ in ops)))
    finally:
        if tracer is not None:
            tracer.uninstall()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        batches=batches,
        refs=refs,
        maxrss_kb=usage.ru_maxrss,
        cpu_s=usage.ru_utime + usage.ru_stime,
        trace=tracer.metrics() if tracer else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
