#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark (tiny budgets, ~1 minute).

Run from the root of a tsc3d checkout:

    python3 perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
WORKLOADS = ("tsc_n100", "pa_n1000", "campaign_mix")
# Names the human-readable lines carry besides the JSON metrics.
ALIASES = {"tsc_n100": "flow_s", "pa_n1000": "flow_s",
           "campaign_mix": "campaign_s"}
# Per-layer metrics each workload must report as bypassed: everything of
# the listed layers, plus single metrics.  All others must be measured.
CAMPAIGN_LAYERS = ("service.", "campaign.", "mitigation.", "attack.")
FLOW_LAYERS = ("floorplan.", "thermal.", "leakage.", "tsv.", "power.")
DUMMY_TSV = {"thermal.sampling_solves", "thermal.sampling_vcycles",
             "tsv.dummy_insert_ms", "tsv.dummy_iterations"}
BYPASSED = {"tsc_n100": (CAMPAIGN_LAYERS, set()),
            "pa_n1000": (CAMPAIGN_LAYERS, DUMMY_TSV),
            "campaign_mix": (FLOW_LAYERS, set())}


def run_bench(workload, seed=1, trace=0):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    return proc


def parse(stdout):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fields = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 2:
            fields[parts[0]] = parts[1:]
    return result, lines[:-1], fields


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class PerfbenchTest(unittest.TestCase):
    def test_tiny_run_of_each_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, lines, _ = parse(run_bench(workload,
                                                       trace=trace).stdout)
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    for m in spec()[kind]:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIn(
                            f"metric {m['name']} ", "\n".join(lines))
                    self.assertEqual(list(result["metrics"]),
                                     [m["name"] for m in spec()[kind]])
                    text = "\n".join(lines)
                    self.assertIn("fail_frac 0 ratio", text)
                    self.assertIn("host nproc=", text)
                    self.assertIn("avx2_sweep=", text)
                    if trace == 0:
                        self.assertIn(f"\n{ALIASES[workload]} ", "\n" + text)
                    else:
                        layers, extra = BYPASSED[workload]
                        expected = {m["name"] for m in spec()[kind]
                                    if m["name"].startswith(layers)} | extra
                        bypassed = {line.split()[1] for line in lines
                                    if line.endswith("(layer bypassed)")}
                        self.assertEqual(bypassed, expected)

    def test_seed_changes_designs_and_repeat_reproduces_digest(self):
        for workload in ("tsc_n100", "campaign_mix"):
            with self.subTest(workload=workload):
                _, _, a = parse(run_bench(workload, seed=1).stdout)
                _, _, b = parse(run_bench(workload, seed=1).stdout)
                _, _, c = parse(run_bench(workload, seed=2).stdout)
                self.assertEqual(a["design_digest"], b["design_digest"])
                self.assertEqual(a["output_digest"], b["output_digest"])
                self.assertNotEqual(a["design_digest"], c["design_digest"])
                self.assertNotEqual(a["output_digest"], c["output_digest"])

    def test_refuses_to_run_without_the_tsc3d_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in spec()["paths"]:
                shutil.copytree(ROOT / path, bare / path)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tsc_n100",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
