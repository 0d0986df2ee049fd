"""Self-tests of the benchmark: metric lists, the correctness gate and
workload isolation. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the drivers (as run.py does).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

QUICK = ["--setup-reps", "1"]  # with a tiny budget: the minimum reps


def drive(workload, seed, *flags, traced=False):
    binary = run.build()["traced" if traced else "untraced"]
    return run.drive(binary, workload, seed, 0.01,
                     QUICK + list(flags) + (["--trace"] if traced else []))


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_matches_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)
        self.assertLessEqual({w["name"] for w in bench["workloads"]},
                             set(run.WORKLOADS))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class CorrectnessGateTest(unittest.TestCase):
    def test_pinned_seed_passes(self):
        out = drive("paper_livenet", 1)
        self.assertEqual(run.check("paper_livenet", 1, [out]), [])

    def test_perturbed_config_is_caught(self):
        # A 1% nudge of the CDN base loss rate must change the digest.
        self.assertIn("1", run.load_reference_digests()["paper_livenet"])
        out = drive("paper_livenet", 1, "--perturb-loss")
        problems = run.check("paper_livenet", 1, [out])
        self.assertTrue(any("pinned" in p for p in problems), problems)

    def test_tracing_does_not_change_output(self):
        plain = drive("chaos_recovery", 2)
        traced = drive("chaos_recovery", 2, traced=True)
        self.assertEqual(run.check("chaos_recovery", 2, [plain, traced]), [])

    def test_runner_fails_without_sources(self):
        # Only BENCHMARK.json and perfbench/: the build must fail, and no
        # result line may be printed.
        os.makedirs(run.BUILD_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper_livenet", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class WorkloadIsolationTest(unittest.TestCase):
    """Config drift that silently disables a workload's mechanism (or
    leaks work into a workload meant to bypass it) fails here."""

    @staticmethod
    def per_layer(workload):
        out = drive(workload, 1, traced=True)
        return run.per_layer_metrics(out, out)

    def test_brain_600_runs_no_data_plane(self):
        m = self.per_layer("brain_600")
        for name, value in m.items():
            if name.endswith(".calls") and name.startswith(
                    ("sim.", "transport.", "overlay.")):
                self.assertEqual(value, 0, name)
        self.assertEqual(m["sim.events"], 0)
        self.assertGreater(m["brain.recompute.calls"], 0)
        self.assertGreater(m["brain.discovery.on_report.calls"], 0)

    def test_paper_hier_has_no_fast_path_and_no_brain(self):
        m = self.per_layer("paper_hier")
        self.assertEqual(m["overlay.forwarding.fast_forward.calls"], 0)
        self.assertEqual(m["brain.recompute.calls"], 0)
        self.assertGreater(m["sim.send.calls"], 0)

    def test_chaos_recovery_exercises_recovery(self):
        m = self.per_layer("chaos_recovery")
        self.assertGreater(m["media.fec.decode.calls"], 0)
        self.assertGreater(m["overlay.link_sender.on_nack.calls"], 0)
        self.assertGreater(m["faults.injected"], 0)

    def test_paper_livenet_uses_fast_path_without_faults(self):
        m = self.per_layer("paper_livenet")
        self.assertGreater(m["overlay.forwarding.fast_forward.calls"], 0)
        self.assertEqual(m["media.fec.decode.calls"], 0)
        self.assertEqual(m["faults.injected"], 0)


if __name__ == "__main__":
    unittest.main()
