"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench

They run a few small requests in this process, and a few short worker and
run.py launches.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
import unittest

import gate
import worker
from tracing import MissingHook, Tracer, is_count

MODS = worker.import_program(worker.ROOT)
WORKLOADS = worker.load_workloads()
SWEEP = WORKLOADS["sweep"]["requests"]
REFERENCE = gate.load_reference(worker.reference_path("sweep"))
# small l=2 and l=3 blocks that pass every check, and one l=4 block that
# crashes at this version of the program
SMALL = [r for r in SWEEP if r[:3] in ([2, 4, [0, 2]], [3, 6, [0, 2, 4]]) and r[3] <= 6]
CRASHING = [r for r in SWEEP if r[0] == 4 and r[3] == 11][:1]


def known_failing(workload, reason):
    """The first request of ``workload`` recorded as failing for
    ``reason``, with the workload's reference."""
    reference = gate.load_reference(worker.reference_path(workload))
    request = next(
        r
        for r in WORKLOADS[workload]["requests"]
        if reason in reference[gate.request_id(r)]["known_failures"]
    )
    return request, reference


def run_and_gate(requests, reference=REFERENCE, tracer=None, route="library"):
    params_of = worker.make_params(MODS, requests)
    os.makedirs(worker.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.OUT) as workdir:
        outcomes, _ = worker.run_requests(
            MODS, route, requests, params_of, workdir, tracer
        )
        reports = [worker.report_of(output) for _, _, output in outcomes]
        verdicts = worker.gate_requests(MODS, requests, params_of, outcomes, reference)
    return reports, verdicts, gate.tally(verdicts, requests, reference)


class GateTest(unittest.TestCase):
    def test_small_requests_pass(self):
        _, verdicts, tally = run_and_gate(SMALL)
        self.assertGreater(len(SMALL), 10)
        self.assertEqual(tally["failed"], 0)
        self.assertEqual(tally["unexpected"], [])

    def test_tampered_reference_table_is_caught(self):
        reference = copy.deepcopy(REFERENCE)
        target = SMALL[-1]
        entry = reference[gate.request_id(target)]
        entry["standard_dims"][0]["poly"][0][1] += 1
        _, verdicts, tally = run_and_gate(SMALL, reference)
        self.assertEqual(list(verdicts[-1]), ["reference"])
        self.assertEqual(tally["failed_by_reason"]["reference"], 1)
        self.assertEqual(tally["unexpected"][0]["request"], gate.request_id(target))

    def test_injected_exception_is_a_crash(self):
        dec = MODS["decomposition"]
        original = dec.kn_oracle

        def broken(*args, **kwargs):
            raise KeyError("injected")

        dec.kn_oracle = broken
        try:
            _, verdicts, tally = run_and_gate(SMALL[:3])
        finally:
            dec.kn_oracle = original
        self.assertEqual([list(v) for v in verdicts], [["crash"]] * 3)
        self.assertEqual(tally["failed_by_reason"]["crash"], 3)
        self.assertEqual(len(tally["unexpected"]), 3)

    def test_internal_mismatch_is_a_cross_check_failure(self):
        dec = MODS["decomposition"]
        original = dec.matrices_equal
        dec.matrices_equal = lambda a, b: False
        try:
            _, verdicts, tally = run_and_gate(SMALL[:2])
        finally:
            dec.matrices_equal = original
        self.assertEqual([list(v) for v in verdicts], [["cross_check"]] * 2)

    def test_known_failure_without_tables_is_unexpected(self):
        # a deep-l2 request fails the character cross-check at this version;
        # if decomposition_matrix raised instead, its tables would go
        # unchecked unless the missing tables count as a failure
        request, reference = known_failing("deep-l2", "cross_check")
        dec = MODS["decomposition"]
        original = dec.decomposition_matrix

        def mismatch(*args, **kwargs):
            raise MODS["soergel"].InternalMismatch("injected")

        dec.decomposition_matrix = mismatch
        try:
            _, verdicts, tally = run_and_gate([request], reference)
        finally:
            dec.decomposition_matrix = original
        self.assertEqual(list(verdicts[0]), ["cross_check", "reference"])
        self.assertEqual(
            tally["unexpected"],
            [{"request": gate.request_id(request),
              "reasons": {"reference": verdicts[0]["reference"]}}],
        )

    def test_failing_cli_request_is_compared_with_the_reference(self):
        # a wide-l3 request that exits 3 writes no report; its tables are
        # made again through the library and still compared
        request, reference = known_failing("wide-l3", "cross_check")
        _, verdicts, tally = run_and_gate([request], reference, route="cli")
        self.assertEqual(list(verdicts[0]), ["cross_check"])
        self.assertEqual(tally["unexpected"], [])
        reference = copy.deepcopy(reference)
        reference[gate.request_id(request)]["decomposition_numbers"][0]["poly"] = [[5, 1]]
        _, verdicts, tally = run_and_gate([request], reference, route="cli")
        self.assertEqual(list(verdicts[0]), ["cross_check", "reference"])
        self.assertEqual(list(tally["unexpected"][0]["reasons"]), ["reference"])

    def test_known_crash_is_counted_but_expected(self):
        _, verdicts, tally = run_and_gate(CRASHING)
        self.assertEqual(list(verdicts[0]), ["crash"])
        self.assertEqual(tally["failed"], 1)
        self.assertEqual(tally["unexpected"], [])

    def test_closed_form_catches_a_wrong_level_two_entry(self):
        request = next(r for r in SMALL if r[0] == 2)
        reports, _, _ = run_and_gate([request])
        report = copy.deepcopy(reports[0])
        report["decomposition_numbers"][0]["poly"] = [[5, 1]]
        params = worker.make_params(MODS, [request])[(2, 4, (0, 2))]
        found = gate.verdict(
            "ok", "", report, request, params, MODS["decomposition"], REFERENCE
        )
        self.assertEqual(list(found), ["cross_check", "reference"])


class TimingTest(unittest.TestCase):
    def test_times_are_scaled_by_the_reference_loop(self):
        # a host on which the loop takes twice its reference time runs at
        # half speed, so every time is halved
        original = worker.loop_ns
        worker.loop_ns = lambda: 2 * worker.REFERENCE_LOOP_NS
        try:
            params_of = worker.make_params(MODS, SMALL)
            _, timing = worker.run_requests(MODS, "library", SMALL, params_of, worker.OUT)
        finally:
            worker.loop_ns = original
        self.assertEqual(len(timing["latencies_ns"]), len(SMALL))
        self.assertAlmostEqual(timing["wall_ns"], timing["raw_wall_ns"] / 2)
        self.assertEqual(timing["loop_ns"], 2 * worker.REFERENCE_LOOP_NS)
        self.assertLess(sum(timing["latencies_ns"]), timing["wall_ns"])


class TracingTest(unittest.TestCase):
    def test_traced_and_untraced_tables_are_identical(self):
        plain, _, _ = run_and_gate(SMALL)
        star = MODS["geometry.Geometry"].__dict__["star"]
        tracer = Tracer()
        restore = tracer.install(MODS)
        try:
            traced, _, tally = run_and_gate(SMALL, tracer=tracer)
        finally:
            restore()
        self.assertEqual(plain, traced)
        self.assertEqual(tally["failed"], 0)
        layers = tracer.summary()
        self.assertEqual(layers["decomposition.blocks.calls"], len(SMALL))
        self.assertGreater(layers["geometry.star.calls"], 0)
        self.assertIs(MODS["geometry.Geometry"].__dict__["star"], star)

    def test_a_hook_that_is_gone_fails_and_patches_nothing(self):
        blocks = MODS["decomposition"].__dict__["blocks"]
        mods = dict(MODS, paths=types.ModuleType("paths"))
        with self.assertRaises(MissingHook):
            Tracer().install(mods)
        self.assertIs(MODS["decomposition"].__dict__["blocks"], blocks)

    def test_counts_repeat_across_order_seeds(self):
        layers = []
        for seed in ("1/0", "2/5"):
            proc = subprocess.run(
                [sys.executable, os.path.join(worker.HERE, "worker.py"),
                 "--workload", "wide-l3", "--order-seed", seed, "--trace"],
                capture_output=True, text=True, check=True,
            )
            layers.append(json.loads(proc.stdout.splitlines()[-1])["layers"])
            spans = worker.spans_path("wide-l3", seed)
            self.assertTrue(os.path.isfile(spans))
            os.remove(spans)
        counts = [{m: v for m, v in got.items() if is_count(m)} for got in layers]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["cli.main.calls"], 0)


class ContractTest(unittest.TestCase):
    def test_refuses_a_directory_without_the_program(self):
        os.makedirs(worker.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=worker.OUT) as bare:
            shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                worker.HERE,
                os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
