"""Self-tests of the benchmark itself (not of hopfcleft).

    python3 bench/selftest.py

They cover the self-time arithmetic on a synthetic span tree, that the
tracer's wrappers are removed cleanly and change no output, that a tampered
golden output makes the gate fail, and that ``BENCHMARK.json`` names only
metrics the benchmark produces.
"""

from __future__ import annotations

import contextlib
import inspect
import io as stdio
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import unittest
from unittest import mock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402

TINY = "census qline_kc2_f3.had --report json"


def tiny_jobs():
    return [[run.Job(TINY.split(), run._notes_include("restricted cocycles: 3"))]]


class SpanArithmetic(unittest.TestCase):
    # id, name, start, end, parent, hot seconds
    SPANS = [
        (1, "cli.census", 0.0, 10.0, 0, 0.5),
        (2, "linalg.compose", 1.0, 4.0, 1, 0.0),
        (3, "linalg.compose", 5.0, 6.0, 1, 0.25),
        (4, "fields.euler_phi", 2.0, 3.0, 2, 0.0),
        (5, "launch.import", -2.0, -1.0, 0, 0.0),
    ]

    def test_self_time_is_duration_minus_children_and_hot_time(self):
        own = tracer.self_times(self.SPANS)
        self.assertEqual(own, {1: 5.5, 2: 2.0, 3: 0.75, 4: 1.0, 5: 1.0})

    def test_children_overlapping_each_other_or_the_parent_count_once(self):
        spans = [(1, "a.f", 0.0, 4.0, 0, 0.0), (2, "a.g", 1.0, 3.0, 1, 0.0),
                 (3, "a.h", 2.0, 6.0, 1, 0.0)]
        self.assertEqual(tracer.self_times(spans)[1], 1.0)

    def test_coverage_counts_the_union_of_top_level_spans(self):
        self.assertEqual(tracer.covered_time(self.SPANS), 11.0)

    def test_layer_metrics(self):
        dump = {"spans": self.SPANS, "hot_calls": {"fields.mul": 7},
                "hot_seconds": {"fields.mul": 0.75},
                "counters": {"linalg.max_map_dim": 4, "oracle.SearchSpace.assignments.items": 10,
                             "oracle.accepted": 2}}
        m = tracer.layer_metrics([dump, dump], 44.0, 2.0, 3.0)
        self.assertEqual(m["linalg.compose.calls"], 4)
        self.assertEqual(m["linalg.compose.self_s"], 5.5)
        self.assertEqual(m["fields.mul.calls"], 14)
        self.assertEqual(m["fields.self_s"], 2 * (1.0 + 0.75))
        self.assertEqual(m["linalg.max_map_dim"], 4)
        self.assertEqual(m["oracle.accept_ratio"], 0.2)
        self.assertEqual(m["trace.coverage"], 0.5)
        self.assertEqual(m["trace.overhead_ratio"], 1.5)


def _namespace_snapshot():
    """Every function-valued attribute and dict entry the tracer may touch."""
    snap = {}
    for name, mod in sys.modules.items():
        if name.startswith("hopfcleft."):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
                if type(value) is dict:
                    snap.update({(name, key, k): v for k, v in value.items()
                                 if inspect.isfunction(v)})
    from hopfcleft.fields import Scalar
    from hopfcleft.linalg import LinearMap
    from hopfcleft.oracle import SearchSpace

    for cls in (Scalar, LinearMap, SearchSpace):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


class TracerWrappers(unittest.TestCase):
    def _census(self):
        from click.testing import CliRunner

        from hopfcleft import cli

        path = os.path.join(run.FIXTURES, "qline_kc2_f3.had")
        result = CliRunner().invoke(cli.main, ["census", path, "--report", "json"])
        return result.exit_code, result.output

    def test_install_changes_no_output_and_uninstall_restores_everything(self):
        before = _namespace_snapshot()
        plain = self._census()
        t = tracer.Tracer()
        t.install()
        try:
            self.assertNotEqual(_namespace_snapshot(), before)
            traced = self._census()
        finally:
            t.uninstall()
        after = _namespace_snapshot()
        self.assertEqual(after.keys(), before.keys())
        self.assertTrue(all(after[k] is before[k] for k in before))
        self.assertEqual(traced, plain)
        names = {s[1] for s in t.spans}
        self.assertIn("lifting.cleft_prime_census", names)
        self.assertIn("linalg.compose", names)
        self.assertGreater(t.hot_calls["fields.mul"], 0)
        spans = len(t.spans)
        self.assertEqual(self._census(), plain)
        self.assertEqual(len(t.spans), spans)

    def test_traced_launch_prints_the_same_bytes(self):
        with tempfile.TemporaryDirectory() as work:
            run.prepare_inputs([run.Job(TINY.split())], work)
            env = dict(os.environ, PYTHONPATH=run.SRC)
            plain = subprocess.run([sys.executable, "-m", "hopfcleft.cli", *TINY.split()],
                                   cwd=work, env=env, capture_output=True)
            record = os.path.join(work, "record.json")
            traced = subprocess.run(
                [sys.executable, run.LAUNCH, record, repr(time.monotonic()), "1", "--",
                 *TINY.split()], cwd=work, env=env, capture_output=True)
            self.assertEqual((traced.returncode, traced.stdout), (plain.returncode, plain.stdout))
            with open(record, encoding="utf-8") as fh:
                self.assertTrue(json.load(fh)["trace"]["spans"])


class GoldenGate(unittest.TestCase):
    def _main(self, goldens):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "goldens.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(goldens, fh)
            out, err = stdio.StringIO(), stdio.StringIO()
            with mock.patch.dict(run.WORKLOADS, {"tiny": (tiny_jobs, [])}), \
                    mock.patch.object(run, "GOLDENS", path), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run.main(["--workload", "tiny", "--seconds", "0"])
        return code, json.loads(out.getvalue().splitlines()[-1])

    def _goldens(self):
        with open(run.GOLDENS, encoding="utf-8") as fh:
            goldens = json.load(fh)
        return {key: goldens[key] for key in (TINY, run.SETUP_PROBE.key)}

    def test_recorded_golden_passes(self):
        code, result = self._main(self._goldens())
        self.assertEqual((code, result["correct"], result["failed"]), (0, True, 0))
        self.assertGreater(result["metrics"]["run_s"]["value"], 0)

    def test_tampered_golden_fails(self):
        goldens = self._goldens()
        goldens[TINY]["stdout"] = goldens[TINY]["stdout"][::-1]
        code, result = self._main(goldens)
        self.assertEqual((code, result["correct"]), (1, False))
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_every_seeded_job_has_a_golden(self):
        with open(run.GOLDENS, encoding="utf-8") as fh:
            goldens = json.load(fh)
        for workload in run.WORKLOADS:
            for seed in range(40):
                keys = [job.key for job in run.seeded_jobs(workload, seed)]
                self.assertEqual(keys, [job.key for job in run.seeded_jobs(workload, seed)])
                self.assertLessEqual({run.SETUP_PROBE.key, *keys}, goldens.keys())

    def test_generated_inputs_match_the_shipped_fixtures(self):
        with tempfile.TemporaryDirectory() as work:
            for name in ("qline_kc2_f3.had", "qline_kc4_f5.had"):
                path = os.path.join(work, name)
                run.generate_quantum_line(name, path)
                with open(path, "rb") as a, open(os.path.join(run.FIXTURES, name), "rb") as b:
                    self.assertEqual(a.read(), b.read())


class BenchmarkSpec(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    DERIVED = {
        "linalg.max_map_dim", "linalg.max_map_nnz", "lifting.twist_candidates",
        "lifting.twist_candidate_ratio", "oracle.candidates", "oracle.verified",
        "oracle.accepted", "oracle.accept_ratio", "cocycle.coalgebra_builds",
        "cocycle.coalgebra_cache_hit_ratio", "io.bytes_read", "io.bytes_written",
        "trace.coverage", "trace.overhead_ratio",
    }

    def setUp(self):
        self.spec = run.load_spec()

    def test_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(set(e2e), {"setup_s", "run_s", "cpu_s", "peak_rss_mb"})
        self.assertEqual(max(m["bound"] for m in e2e.values()), e2e["setup_s"]["bound"])
        self.assertLessEqual(max(m["bound"] for m in e2e.values()), 0.25)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(self.NAME.match(n) for n in names))

    def test_per_layer_names_exist(self):
        import hopfcleft.cli  # noqa: F401  (imports every module)

        hot = set(tracer.SCALAR_OPS.values()) | {tracer.LINEARMAP_INIT}
        for m in self.spec["per_layer"]:
            name = m["name"]
            if name in self.DERIVED:
                continue
            base, _, stat = name.rpartition(".")
            self.assertIn(stat, ("calls", "self_s"), name)
            if base in hot or f"hopfcleft.{base}" in sys.modules:
                continue
            module, _, func = base.partition(".")
            self.assertTrue(inspect.isfunction(
                getattr(sys.modules[f"hopfcleft.{module}"], func, None)), name)


if __name__ == "__main__":
    unittest.main()
