"""Smoke test of the benchmark at minimal size.

    python3 -m pytest perfbench/test_smoke.py     (or: python3 perfbench/test_smoke.py)

Each workload runs in a temporary copy of the checkout (src/, perfbench/ and
BENCHMARK.json), untraced and traced.  The test asserts that every metric
BENCHMARK.json names is emitted with its unit, that the correctness gate
passes, and that nothing is written outside the benchmark's output
directory.  A copy without src/ must exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = Path(".bench_build") / "perfbench"
SMOKE = ["--seed", "1", "--seconds", "0.5", "--frames", "6"]


def snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """Size and mtime of every path outside the benchmark's output directory."""
    out = {}
    for path in root.rglob("*"):
        parts = path.relative_to(root).parts
        n = min(len(parts), len(OUTPUT_DIR.parts))
        if parts[:n] == OUTPUT_DIR.parts[:n]:   # the output dir or its parents
            continue
        rel = "/".join(parts)
        st = path.lstat()
        out[rel] = (st.st_size, st.st_mtime_ns)
    return out


def copy_checkout(dest: Path, with_src: bool = True) -> None:
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls._tmp = tempfile.TemporaryDirectory()
        cls.checkout = Path(cls._tmp.name) / "checkout"
        cls.checkout.mkdir()
        copy_checkout(cls.checkout)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def check_run(self, workload: str, trace: int) -> None:
        before = snapshot(self.checkout)
        proc = run_bench(self.checkout, "--workload", workload, "--trace",
                         str(trace), *SMOKE)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(snapshot(self.checkout), before,
                         "the run wrote outside its output directory")

        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:   # end-to-end metrics are bounded as shares
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_refuses_without_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            copy_checkout(bare, with_src=False)
            proc = run_bench(bare, "--workload", "capture-chain", *SMOKE)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
