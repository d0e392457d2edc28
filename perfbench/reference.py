"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the speed one process gets drifts by 20-40% over
seconds to minutes, and it moves every timing with it.  The workload
child runs this task before its first batch and after every batch; the
mean of the two runs around a batch is that batch's local reference
time.  run.py divides each batch and operation time by it, which cancels
the drift that the batch and the task share.

The task uses no steerlab code, so no change to the program can move it.
It mixes the kinds of work the workloads do: small Python objects and
their JSON codec (as in transcripts), vectorized numpy over a Philox
stream (as in the protocol), and scalar float arithmetic in the
interpreter (as in the sweeps and the optimizer).  It takes about 0.08 s.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np


def reference_task() -> tuple[int, int, float]:
    # Small pieces at a time, so the task adds almost nothing to a child's peak memory.
    decoded = 0
    for i in range(8000):
        row = {"index": i, "prep": "plus" if i % 3 else "minus", "gamma": [i * 0.5, -i * 0.25], "bob": i % 2}
        decoded += len(json.loads(json.dumps(row)))
    generator = np.random.Generator(np.random.Philox(12345))
    odd = 0
    for _ in range(10):
        uniforms = generator.random(20_000)
        odd += int((np.cumsum(np.exp(-uniforms) * 3.0) % 2.0 > 1.0).sum())
    acc = 0.0
    for i in range(30000):
        acc += (i * 0.5) % 7.0
    return decoded, odd, acc


def reference_time(budget_s: float = 0.0) -> float:
    """Mean wall time of the reference task, run at least once and until ``budget_s`` has passed."""
    runs = 0
    start = perf_counter()
    while True:
        reference_task()
        runs += 1
        elapsed = perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / runs
