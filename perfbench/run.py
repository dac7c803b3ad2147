#!/usr/bin/env python3
"""perfbench: the PosTr end-to-end benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload symex --seed 3 --seconds 30 --trace 0

Builds postr_perf from the checkout's sources into .bench_build/, then
runs a fixed number of fresh postr_perf processes ("passes") of the
workload one after another, and prints every metric by name and unit.
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead instead. --record-expected writes the expected-verdict
file of the given workload and seed.

Exit codes: 0 ok; 1 wrong verdict or fingerprint mismatch (the JSON line
still reports it); 2 refused or failed to build/run (no JSON line).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "postr_perf")
REF_BINARY = os.path.join(BUILD_DIR, "postr_perf_ref")
DATA_DIR = os.path.join(HERE, "data")
EXPECTED_DIR = os.path.join(HERE, "expected")

WORKLOADS = ("symex", "position-hard", "serve-replay")
# Per-query wall cap T in ms: over 3x the recorded time of every pool
# query (< 1.5 s of CPU), and inside the 2.8-6.7 s gap of the symex
# families' decided-time distribution on generator seed 97, so `solved`
# repeats exactly.
CAP_MS = 5000
# Timed set-ups per pass; setup_s is the median over all of them.
SETUPS = 3
PASS_TIMEOUT_S = 150
SERVE_CLIENTS = 2  # client threads of postr_perf's serve replay
# Passes per run at --seconds 30: what fits in about 30 s on a 4-vCPU
# Xeon VM at the commit that introduced the benchmark. The count is
# fixed, not timed, so the best-of over passes is taken over the same
# number of readings whatever the speed of the commit or the host; other
# --seconds scale it. Every query gets at least six readings: with two,
# a shared host moved the heavy queries' best-of by 16-28% between runs.
PASSES_AT_30S = {"symex": 6, "position-hard": 8, "serve-replay": 14}
# Light passes per full pass of an untraced run: the draw without its
# heavy queries. On symex the 5 heavy queries take ~90% of a pass; a
# light pass doubles the readings of the other 27 for ~0.3 s.
LIGHT_PER_PASS = {"symex": 1}
# The host-speed reference (postr_perf_ref, src/Reference.cpp) runs in a
# fresh process before every pass and after the last one. A process's
# reading is its median sample after the first REF_WARMUP; the run's host
# level is the mean of its REF_BEST best readings -- a best-of, as each
# query keeps its best, over three so one lucky process cannot set it.
# The run's CPU times are scaled by NOMINAL_REF_MS / host level: the
# figures are CPU times on a host where the reference takes
# NOMINAL_REF_MS (about its best level on the 4-vCPU Xeon VM the
# benchmark was introduced on). README.md, "Host drift", says why.
REF_SAMPLES = 12
REF_WARMUP = 2
REF_BEST = 3
NOMINAL_REF_MS = 5.0
ENV_PREFIX = "POSTR_"


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def refuse_solver_env():
    """Variables with the solver's prefix change it process-wide
    (self-check modes, pivot rules, fault injection, MBQI caps, stats
    printers); a measurement under any of them is not comparable."""
    found = sorted(k for k in os.environ if k.startswith(ENV_PREFIX))
    if found:
        raise BenchError("refusing to run with solver environment variables "
                         f"set: {', '.join(found)}")


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "postr_perf",
           "postr_perf_ref", "-j4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")


def run_binary(args, binary=BINARY):
    name = os.path.basename(binary)
    try:
        out = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                             text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} {args[0]} exceeded {PASS_TIMEOUT_S} s")
    if out.returncode:
        raise BenchError(f"{name} {args[0]} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def postr_perf(mode, workload, seed, extra=()):
    return run_binary([mode, "--workload", workload, "--seed", str(seed),
                       "--data", DATA_DIR, "--timeout-ms", str(CAP_MS),
                       *extra])


def reference():
    """One reading of the host-speed reference in ms, from a fresh
    process: its median sample after the warm-up ones."""
    samples = run_binary([str(REF_SAMPLES)], REF_BINARY)["ref_cpu_ms"]
    return metrics.median(samples[REF_WARMUP:])


def expected_path(workload, seed):
    return os.path.join(EXPECTED_DIR, f"{workload}-{seed}.json")


def record_expected(workload, seed):
    c = postr_perf("corpus", workload, seed)
    rec = {"workload": workload, "seed": seed,
           "fingerprint": c["fingerprint"], "verdicts": c["verdicts"]}
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(expected_path(workload, seed), "w") as f:
        json.dump(rec, f)
        f.write("\n")
    log(f"recorded {expected_path(workload, seed)}")


def pass_count(workload, seconds, trace):
    n = max(1, round(PASSES_AT_30S[workload] * seconds / 30))
    return max(n, 2) if trace else n


def run_passes(workload, seed, seconds, trace, recorded):
    """A fixed number of fresh processes, one at a time. With trace,
    untraced and traced passes alternate; without, each full pass is
    followed by the workload's light passes. The reference runs before
    every pass and after the last. Returns the passes and the reference
    readings."""
    passes, refs = [], []
    light = 0 if trace else LIGHT_PER_PASS.get(workload, 0)
    for i in range(pass_count(workload, seconds, trace)):
        for kind in ["full"] + ["light"] * light:
            refs.append(reference())
            extra = ["--setups", str(SETUPS)]
            if trace and i % 2 == 1:
                extra.append("--trace")
            if kind == "light":
                extra.append("--light")
            if not recorded and not passes:
                extra.append("--recheck")  # independent Unsat evidence
            passes.append(postr_perf("pass", workload, seed, extra))
    refs.append(reference())
    return passes, refs


def gate(workload, seed, passes):
    """Wrong verdicts and corpus drift. Returns a list of failures."""
    problems = []
    path = expected_path(workload, seed)
    recorded = None
    if os.path.isfile(path):
        with open(path) as f:
            recorded = json.load(f)
    for p in passes:
        if recorded and p["fingerprint"] != recorded["fingerprint"]:
            problems.append(f"FINGERPRINT MISMATCH: corpus {p['fingerprint']}"
                            f" != recorded {recorded['fingerprint']} ({path})")
        if recorded and p["expected"] != recorded["verdicts"]:
            problems.append("expected verdicts differ from " + path)
        wrong = sum(int(q[metrics.WRONG]) for q in p["queries"])
        if wrong:
            problems.append(f"{wrong} wrong verdict(s) in a pass")
        if p["checks"].get("unsat_eqred_disagree"):
            problems.append("eq-reduction found Sat for an Unsat answer")
    return problems


def host_level(refs):
    """The run's host level in ms: the mean of the reference's best
    readings."""
    best = sorted(refs)[:REF_BEST]
    return sum(best) / len(best)


def host_scale(refs):
    """Factor from this run's CPU times to the nominal host's."""
    return NOMINAL_REF_MS / host_level(refs)


def end_to_end(passes, scale=1.0):
    """End-to-end metrics of repeated passes over one draw. Latencies are
    CPU time: the process's one-shot, the requesting client thread's
    served (in-process workers solve on the caller's thread, so that is
    the request's whole service time). Each query keeps its best reading
    over the passes, since contention only ever slows a reading down.
    Latencies and set-up times are multiplied by `scale` (host_scale);
    the charge for a failure is not. Memory is the median full pass,
    set-up the median of all set-ups."""
    serve = passes[0]["workload"] == "serve-replay"
    lat, oks = metrics.best_of(
        [[q[metrics.CPU] for q in p["queries"]] for p in passes],
        [[bool(q[metrics.OK]) for q in p["queries"]] for p in passes])
    out = metrics.latency_metrics([scale * v for v in lat], oks,
                                  passes[0]["timeout_ms"],
                                  SERVE_CLIENTS if serve else 1)
    out["peak_rss_mb"] = metrics.median(
        [p["peak_rss_mb"] for p in passes if not p["light"]])
    out["setup_s"] = scale * metrics.median(
        [s for p in passes for s in p["setup_cpu_s"]])
    return out


def per_layer(untraced, traced, host_ms):
    """Per-layer figures of the traced passes (medians over passes), in
    CPU time as measured; host_ms is the run's host level."""
    rows = []
    for p in traced:
        sp, ly = p["spans"], p["layers"]
        n = max(1, len(p["queries"]))

        def ms(name):
            return sp.get(name, [0, 0.0, 0.0])[1]

        def count(name):
            return sp.get(name, [0, 0.0, 0.0])[0]

        def mean(name):
            return ms(name) / max(1, count(name))

        probed = max(1, count("solver.solve"))
        disj = ly.get("eq.disjuncts", 0.0)
        qs = p["queries"]
        requests = ly.get("serve.requests", 0.0)
        rows.append({
            "eq.stabilize_ms": ms("eq.stabilize") / probed,
            "eq.disjuncts": disj,
            "eq.disjuncts_used_ratio":
                ly.get("solver.mp_calls", 0.0) / disj if disj else 0.0,
            "automata.intersect_calls": count("automata.intersect"),
            "automata.intersect_ms": ms("automata.intersect") / probed,
            "automata.determinize_calls": count("automata.determinize"),
            "automata.determinize_ms": ms("automata.determinize") / probed,
            "solver.solve_ms": ms("solver.solve") / probed,
            "solver.solve_self_ms":
                sp.get("solver.solve", [0, 0.0, 0.0])[2] / probed,
            "solver.rest_ms": (ms("solver.solve") - ms("eq.stabilize"))
                / probed - mean("strings.normalize"),
            "solver.fastpath": ly.get("solver.fastpath", 0.0),
            "lia.mbqi.candidates": ly.get("lia.mbqi.candidates", 0.0),
            "lia.mbqi.outer_solves": ly.get("lia.mbqi.outer_solves", 0.0),
            "lia.mbqi.inner_queries": ly.get("lia.mbqi.inner_queries", 0.0),
            "lia.mbqi.context_reuses":
                ly.get("lia.mbqi.context_reuses", 0.0),
            "smtlib.parse_ms": mean("smtlib.parse"),
            "smtlib.print_ms": mean("smtlib.print"),
            "strings.normalize_ms": mean("strings.normalize"),
            "serve.hit_rate":
                ly.get("serve.hits", 0.0) / requests if requests else 0.0,
            "serve.hit_p50_ms": ly.get("serve.hit_p50_ms", 0.0),
            "serve.miss_p50_ms": ly.get("serve.miss_p50_ms", 0.0),
            "serve.evictions": ly.get("serve.evictions", 0.0),
            "serve.shed": ly.get("serve.shed", 0.0),
            "serve.quarantines": ly.get("serve.quarantines", 0.0),
            "solver.timeouts": float(sum(1 for q in qs
                                         if q[metrics.STOP] == "timeout")),
            "solver.overrun_ms": ly.get("solver.overrun_ms", 0.0),
            "solver.overrun_max_ms": ly.get("solver.overrun_max_ms", 0.0),
            "solver.deadline_probes": ly.get("solver.deadline_probes", 0.0),
            "solver.budget_trips": ly.get("solver.budget_trips", 0.0),
            "solver.degraded_retries":
                ly.get("solver.degraded_retries", 0.0),
            "solver.cpu_ms":
                sum(q[metrics.CPU] for q in qs) / n,
            "solver.wait_ms":
                sum(q[metrics.WALL] - q[metrics.CPU] for q in qs) / n,
            "trace.spans": float(p["span_records"]),
            "host.reference_ms": host_ms,
        })
    out = {k: metrics.median([r[k] for r in rows]) for k in rows[0]}
    plain = end_to_end(untraced)
    with_trace = end_to_end(traced)
    for name in ("geomean_ms", "p50_ms", "par2_s"):
        out[f"trace.overhead_{name.split('_')[0]}_pct"] = \
            100.0 * (with_trace[name] / plain[name] - 1.0)
    return out


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio") or name.endswith("_rate"):
        return "ratio"
    return "count"


def main():
    # A terminated run raises SystemExit inside subprocess.run, which then
    # kills and reaps the running pass instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true")
    a = ap.parse_args()
    try:
        refuse_solver_env()
        build()
        if a.record_expected:
            record_expected(a.workload, a.seed)
            return 0
        recorded = os.path.isfile(expected_path(a.workload, a.seed))
        if not recorded:
            log(f"no recorded verdicts for seed {a.seed}: checking Unsat "
                "answers independently (untimed)")
        passes, refs = run_passes(a.workload, a.seed, a.seconds,
                                  a.trace == 1, recorded)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    problems = gate(a.workload, a.seed, passes)
    for msg in problems:
        log(msg)
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    e2e = end_to_end(untraced, host_scale(refs))
    n = len(untraced[0]["queries"])
    if a.trace:
        values = per_layer(untraced, traced, host_level(refs))
        units = {k: layer_unit(k) for k in values}
    else:
        values = e2e
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
    print(f"perfbench {a.workload} seed {a.seed}: {len(passes)} passes, "
          f"{n} queries per pass, cap {CAP_MS} ms, failures charged "
          f"{2 * CAP_MS} ms; host level {host_level(refs):.3f} ms, CPU times "
          f"scaled by {host_scale(refs):.4f}")
    for k in sorted(values):
        print(f"  {k:28s} {values[k]:14.4f} {units[k]}")
    failed = n - int(e2e["solved"])
    print(json.dumps({
        "correct": not problems,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
