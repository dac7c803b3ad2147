"""Tests of the benchmark itself: the PAR-2 charge and the metrics built on
it, corpus determinism, environment hygiene, and the printed metric names
and units against BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests

The corpus tests build postr_perf first (as run.py does).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import metrics  # noqa: E402
import run  # noqa: E402

CAP = 1000.0  # ms; failures are charged 2000 ms


def figures(lat, oks):
    return metrics.latency_metrics(lat, oks, CAP)


class ChargeTest(unittest.TestCase):
    def test_failure_is_charged_twice_the_cap(self):
        self.assertEqual(metrics.charged([5.0, 7.0], [True, False], CAP),
                         [5.0, 2000.0])

    def test_par2_sums_charged_latency(self):
        m = figures([100.0, 300.0, 1.0], [True, True, False])
        self.assertAlmostEqual(m["par2_s"], (100 + 300 + 2000) / 1000.0)
        self.assertEqual(m["solved"], 2.0)

    def test_fast_failure_never_reads_fast(self):
        # A query that gives up after 1 ms is charged more than one that
        # takes 900 ms and answers.
        fail_fast = figures([10.0, 1.0], [True, False])
        slow_ok = figures([10.0, 900.0], [True, True])
        for name in ("par2_s", "geomean_ms", "p90_ms"):
            self.assertGreater(fail_fast[name], slow_ok[name], name)
        self.assertLess(fail_fast["solved"], slow_ok["solved"])

    def test_newly_deciding_a_query_only_improves(self):
        lat = [3.0, 40.0, 250.0, 700.0, 12.0, 90.0, 5.0, 1.0, 60.0, 8.0]
        before = [True] * 10
        before[3] = False
        after = [True] * 10
        for decided_in in (1.0, 700.0, 1999.0):
            lat_after = list(lat)
            lat_after[3] = decided_in
            b, a = figures(lat, before), figures(lat_after, after)
            self.assertGreater(a["solved"], b["solved"])
            self.assertLess(a["par2_s"], b["par2_s"])
            self.assertLess(a["geomean_ms"], b["geomean_ms"])
            for name in ("p50_ms", "p90_ms"):
                self.assertLessEqual(a[name], b[name], name)
            self.assertGreater(a["qps"], b["qps"])

    def test_percentiles_on_a_hand_made_sample(self):
        sample = [float(v) for v in range(1, 21)]  # 1..20
        # Rank 10 and its four nearest neighbours: 8..12.
        self.assertEqual(metrics.percentile(sample, 0.5), 10.0)
        # Rank 18 with the window clamped to the top five: 16..20.
        self.assertEqual(metrics.percentile(sample, 0.9), 18.0)
        self.assertEqual(metrics.percentile([4.0], 0.9), 4.0)
        self.assertEqual(metrics.percentile([1.0, 2.0, 3.0], 0.5), 2.0)
        # p90 reads 2T once more than 10% of the queries (plus the two
        # ranks below the window's centre) fail.
        oks = [True] * 15 + [False] * 5
        self.assertEqual(figures(sample, oks)["p90_ms"], 2 * CAP)

    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([1.0, 100.0]), 10.0)
        self.assertGreater(metrics.geomean([0.0, 1.0]), 0.0)

    def test_qps_is_clients_over_mean_latency(self):
        self.assertEqual(figures([100.0] * 10, [True] * 10)["qps"], 10.0)
        m = metrics.latency_metrics([100.0] * 10, [True] * 10, CAP, clients=2)
        self.assertEqual(m["qps"], 20.0)

    def test_best_of_passes(self):
        lat, oks = metrics.best_of([[5.0, 9.0], [7.0, 3.0]],
                                   [[True, True], [True, False]])
        self.assertEqual(lat, [5.0, 3.0])
        self.assertEqual(oks, [True, False])

    def test_best_of_skips_left_out_queries(self):
        # A light pass leaves the heavy query out (-1, not answered): it
        # neither wins the best-of nor counts as a failure.
        lat, oks = metrics.best_of([[5.0, 900.0], [4.0, -1.0]],
                                   [[True, True], [True, False]])
        self.assertEqual(lat, [4.0, 900.0])
        self.assertEqual(oks, [True, True])
        with self.assertRaises(ValueError):
            metrics.best_of([[-1.0]], [[False]])


def fake_pass(trace):
    """A minimal pass record with every field run.py reads."""
    q = [2.0, 1.5, "sat", 1, 0, "none", ""]
    return {
        "workload": "symex", "trace": trace, "light": 0, "fingerprint": "0",
        "timeout_ms": CAP, "setup_cpu_s": [0.2, 0.21, 0.19],
        "peak_rss_mb": 30.0, "queries": [q, q],
        "expected": ["sat", "sat"], "span_records": 12,
        "spans": {"solver.solve": [2, 3.0, 2.5], "eq.stabilize": [2, 1.0, 1.0],
                  "strings.normalize": [2, 0.2, 0.2]},
        "layers": {"eq.disjuncts": 2.0, "solver.mp_calls": 1.0},
        "checks": {},
    }


class EndToEndTest(unittest.TestCase):
    def test_latencies_are_raw_best_of_passes(self):
        fast, slow = fake_pass(0), fake_pass(0)
        slow["queries"] = [[2.0, 3.0, "sat", 1, 0, "none", ""]] * 2
        self.assertAlmostEqual(run.end_to_end([slow, fast])["p50_ms"], 1.5)
        self.assertAlmostEqual(run.end_to_end([slow])["p50_ms"], 3.0)
        self.assertAlmostEqual(run.end_to_end([slow])["setup_s"], 0.2)

    def test_host_scale_applies_to_times_but_not_the_charge(self):
        # A run whose reference reads twice the nominal level ran on a
        # host half as fast: its CPU times are halved, its failures are
        # still charged 2T, its memory is untouched.
        p = fake_pass(0)
        p["queries"] = [[2.0, 3.0, "sat", 1, 0, "none", ""],
                        [2.0, 5.0, "unknown", 0, 0, "timeout", ""]]
        scale = run.host_scale([2 * run.NOMINAL_REF_MS] * 3
                               + [9 * run.NOMINAL_REF_MS])
        self.assertAlmostEqual(scale, 0.5)
        m = run.end_to_end([p], scale)
        self.assertAlmostEqual(m["par2_s"], (1.5 + 2 * CAP) / 1000.0)
        self.assertAlmostEqual(m["setup_s"], 0.1)
        self.assertEqual(m["peak_rss_mb"], 30.0)

    def test_host_level_is_the_mean_of_the_best_readings(self):
        self.assertAlmostEqual(run.host_level([9.0, 4.0, 6.0, 5.0, 7.0]), 5.0)
        self.assertAlmostEqual(run.host_level([4.0]), 4.0)

    def test_memory_is_taken_from_full_passes(self):
        full, light = fake_pass(0), fake_pass(0)
        light["light"], light["peak_rss_mb"] = 1, 5.0
        self.assertEqual(
            run.end_to_end([full, light, light])["peak_rss_mb"], 30.0)


class PassCountTest(unittest.TestCase):
    def test_pass_count_is_fixed_per_workload(self):
        # The count depends on the arguments only, never on how fast the
        # passes run, so best-of is taken over the same number of readings.
        for w, n in run.PASSES_AT_30S.items():
            self.assertEqual(run.pass_count(w, 30, False), n)
            self.assertEqual(run.pass_count(w, 60, False), 2 * n)
            self.assertGreaterEqual(run.pass_count(w, 1, False), 1)
            self.assertGreaterEqual(run.pass_count(w, 1, True), 2)


class NamesAndUnitsTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(PERFBENCH),
                               "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_end_to_end_names_and_units(self):
        printed = {n: u for n, u, _ in metrics.END_TO_END}
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(printed, declared)
        self.assertEqual(set(run.end_to_end([fake_pass(0)])), set(declared))

    def test_per_layer_names_and_units(self):
        values = run.per_layer([fake_pass(0)], [fake_pass(1)], 6.5)
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual({k: run.layer_unit(k) for k in values}, declared)

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)


class CorpusTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def corpus(self, workload, seed):
        return run.postr_perf("corpus", workload, seed)

    def test_same_seed_same_fingerprint(self):
        for w in run.WORKLOADS:
            a, b = self.corpus(w, 4), self.corpus(w, 4)
            self.assertEqual(a["fingerprint"], b["fingerprint"], w)
            self.assertEqual(a["verdicts"], b["verdicts"], w)
            # symex holds fewer, costlier queries (see Corpus.cpp)
            self.assertGreaterEqual(a["queries"], 32 if w == "symex" else 100,
                                    w)

    def test_other_seed_other_draw(self):
        for w in run.WORKLOADS:
            self.assertNotEqual(self.corpus(w, 4)["fingerprint"],
                                self.corpus(w, 5)["fingerprint"], w)

    def test_symex_mix_follows_the_pool(self):
        # Each (family, cost stratum) cell gets its share of the pool's
        # entries, by largest remainder.
        pool = {}
        with open(os.path.join(run.DATA_DIR, "symex_pool.tsv")) as f:
            for line in f:
                if not line.startswith("#"):
                    fam, gen, idx, _, cpu, _ = line.split("\t")
                    ms = float(cpu)
                    st = "A" if ms < 5 else "B" if ms < 150 else "C"
                    pool[f"{fam}/{gen}/{idx}"] = (fam, st)
        cells = sorted(set(pool.values()))
        sizes = [sum(1 for v in pool.values() if v == c) for c in cells]
        total, n = sum(sizes), int(self.corpus("symex", 1)["queries"])
        want = [n * s // total for s in sizes]
        order = sorted(range(len(cells)), key=lambda i: -(n * sizes[i] % total))
        for i in order[:n - sum(want)]:
            want[i] += 1
        for seed in (1, 4):
            got = [pool[o] for o in self.corpus("symex", seed)["origins"]]
            self.assertEqual([got.count(c) for c in cells], want, seed)

    def test_reference_reads_every_sample(self):
        samples = run.run_binary(["5"], run.REF_BINARY)["ref_cpu_ms"]
        self.assertEqual(len(samples), 5)
        self.assertTrue(all(v > 0 for v in samples))

    def test_recorded_seeds_still_match(self):
        for w in run.WORKLOADS:
            with open(run.expected_path(w, 1)) as f:
                rec = json.load(f)
            c = self.corpus(w, 1)
            self.assertEqual(c["fingerprint"], rec["fingerprint"], w)
            self.assertEqual(c["verdicts"], rec["verdicts"], w)


class EnvironmentTest(unittest.TestCase):
    def test_refuses_solver_variables(self):
        env = dict(os.environ)
        env[run.ENV_PREFIX + "SELFCHECK"] = "paranoid"
        out = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
             "symex", "--seed", "1", "--seconds", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(out.returncode, 2)
        self.assertEqual(out.stdout, "")
        self.assertIn("refusing", out.stderr)


if __name__ == "__main__":
    unittest.main()
