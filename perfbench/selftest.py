"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the tiny scale, end to end and traced, and checks
the result lines, the metric names, that tracing restores every wrapped
function, and that the traced counts repeat exactly under one seed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_SUFFIXES = (".calls", ".entries", ".bytes", ".cells", ".draws", ".distinct_means")


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    results: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in workloads.BUILDERS:
            for trace in (0, 1):
                code, lines = bench(workload, trace)
                cls.results[workload, trace] = (code, lines)

    def test_every_run_succeeds_with_every_declared_metric(self):
        for (workload, trace), (code, lines) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                declared = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
                for metric in declared:
                    self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
                if not trace:
                    for name, entry in result["metrics"].items():
                        self.assertGreater(entry["value"], 0.0, name)

    def test_traced_counts_repeat_under_one_seed(self):
        for workload in workloads.BUILDERS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 1)
                self.assertEqual(code, 0)
                again = json.loads(lines[-1])["metrics"]
                first = json.loads(self.results[workload, 1][1][-1])["metrics"]
                counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first[name]["value"], again[name]["value"], name)


class MetricNameTest(unittest.TestCase):
    def test_declared_names_are_plain(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_every_traced_name_is_plain(self):
        t = tracing.Tracer()
        modules = tracing.layer_modules()
        for layer, module in modules.items():
            for name in tracing.public_functions(layer, module).values():
                t.records[name] = [1, 0.0, 0.0]
        for name in t.metrics():
            self.assertTrue(NAME.fullmatch(name), name)


class TracerRestoreTest(unittest.TestCase):
    def test_uninstall_restores_every_wrapped_function(self):
        modules = tracing.layer_modules()
        before = {layer: dict(vars(module)) for layer, module in modules.items()}
        t = tracing.Tracer()
        t.install(modules)
        try:
            wrapped = t.patched
            self.assertTrue(any(a == "batch_parity_is_odd" and m is modules["protocol"] for m, a, _ in wrapped))
            self.assertTrue(any(a == "parity_probabilities" and m is modules["steering"] for m, a, _ in wrapped))
            with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                run = workloads.Run("analysis", 3, "tiny", Path(tmp), workloads.load_goldens())
                for op in run.batch(0):
                    self.assertEqual(modules["cli"].main(op.argv), 0)
        finally:
            t.uninstall()
        self.assertGreater(t.records["cli.main"][0], 0)
        for layer, module in modules.items():
            for attr, obj in before[layer].items():
                self.assertIs(getattr(module, attr), obj, f"{layer}.{attr}")


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("analysis", 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
