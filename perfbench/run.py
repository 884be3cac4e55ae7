#!/usr/bin/env python3
"""Simulator ledger: host time, memory and per-layer cost of the fleet simulator.

Runs one workload (rollout12, fleet256 or autopilot-ddos) as repeated batch
jobs of the `ledger` harness, one process per job, for --seconds of host time,
and prints every metric by name with its unit. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload rollout12 --seed 42 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test   # fleet256 digests identical at 1 and 4 threads
  python3 perfbench/run.py --pin         # rewrite digests.json (default seed only)

--trace 0 reports the end-to-end metrics from untraced jobs. --trace 1
alternates traced and untraced jobs: the per-layer metrics come from the traced
ones, and trace.overhead_pct compares their stepping time with the untraced
ones. A job fails when it crashes, when its workload verdict fails, when its
report differs from the other jobs of the same seed, or, at the default seed,
when the report's sha256 differs from the digest pinned in digests.json. The
share of failed jobs is the mismatch rate; any failure makes the exit code 1.

The harness is built from source with CMake (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rollout12", "fleet256", "autopilot-ddos")
DEFAULT_SEED = 42
MIN_JOBS = 3        # Per kind (traced / untraced), whatever --seconds says.
TIME_LIMIT_S = 170  # Never start a job that could end past this.


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", out, "--target", "ledger", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "ledger")


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def run_job(binary, workload, seed, tag, traced=False, threads=None, sim_ms=None):
    """Runs one ledger job; returns (result dict or None, report sha256 or None)."""
    out = os.path.join(build_dir(), "out")
    os.makedirs(out, exist_ok=True)
    report = os.path.join(out, "report-%s-%d-%s.json" % (workload, seed, tag))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--report", report]
    if traced:
        cmd += ["--trace", os.path.join(out, "spans-%s-%d-%s.json" % (workload, seed, tag))]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if sim_ms is not None:
        cmd += ["--sim-ms", str(sim_ms)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        log("ledger job failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
        return None, None
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(report, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
    except (ValueError, IndexError, OSError) as e:
        log("ledger job output unreadable: %s" % e)
        return None, None
    return result, digest


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(binary, workload, seed, seconds, trace):
    metrics_doc = load_json("metric_catalog.json")
    pinned = load_json("digests.json").get(workload)
    start = time.monotonic()
    deadline = start + seconds
    loadavg = os.getloadavg()[0]
    jobs = {False: [], True: []}  # traced? -> results
    digests = set()
    attempted = failed = 0
    longest = 0.0
    while True:
        # Trace mode alternates, so the two kinds see the same host drift.
        traced = trace and attempted % 2 == 0
        t0 = time.monotonic()
        result, digest = run_job(binary, workload, seed, str(attempted), traced=traced)
        longest = max(longest, time.monotonic() - t0)
        attempted += 1
        ok = result is not None and result.get("pass") is True
        if ok and seed == DEFAULT_SEED and digest != pinned:
            log("%s seed %d: report digest %s differs from pinned %s"
                % (workload, seed, digest, pinned))
            ok = False
        if ok:
            digests.add(digest)
            if len(digests) > 1:
                log("%s seed %d: reports differ between identical jobs" % (workload, seed))
                ok = False
        if not ok:
            failed += 1
        else:
            jobs[traced].append(result)
        now = time.monotonic()
        enough = all(len(jobs[k]) >= MIN_JOBS for k in ((False, True) if trace else (False,)))
        if (now >= deadline and enough) or now - start + longest > TIME_LIMIT_S:
            break
        if failed > 0 and now >= deadline:
            break

    plain = jobs[False]
    first = (plain or jobs[True] or [{}])[0]
    print("host: cores=%s compiler=%s build=%s loadavg_at_start=%.2f threads=%s"
          % (first.get("cores"), first.get("compiler"), first.get("build_type"), loadavg,
             first.get("threads")))
    print("workload %s seed %d: %d jobs, %d failed, mismatch_rate %.3f"
          % (workload, seed, attempted, failed, failed / attempted))

    def summarize(name, unit, values, note=""):
        if not values:
            return None
        med = statistics.median(values)
        lo, hi = quartiles(values)
        print("  %-28s %14.6g %-6s median of %d, quartiles %.6g .. %.6g%s"
              % (name, med, unit, len(values), lo, hi, note))
        return med

    metrics = {}
    if not trace:
        for m in metrics_doc["end_to_end"]:
            med = summarize(m["name"], m["unit"], [r[m["name"]] for r in plain])
            if med is not None:
                metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        for name, unit in (("startup_p99_ms", "ms"), ("dp_p99_us", "us")):
            if plain:
                value = plain[0][name]
                print("  %-28s %14.6g %-6s simulated%s"
                      % (name, value, unit, "" if value else " (n/a: no samples)"))
    else:
        traced = jobs[True]
        for m in metrics_doc["per_layer"]:
            if m["name"] == "trace.overhead_pct":
                if traced and plain:
                    on = statistics.median(r["wall_s"] for r in traced)
                    off = statistics.median(r["wall_s"] for r in plain)
                    value = (on / off - 1.0) * 100.0
                    print("  %-28s %14.6g %-6s traced wall_s %.6g vs untraced %.6g"
                          % (m["name"], value, m["unit"], on, off))
                    metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                continue
            if m["name"] == "exp.teardown_ms":
                # From untraced jobs: a traced job's snapshot of every registry
                # leaves sorted copies of each summary for the teardown to free.
                med = summarize(m["name"], m["unit"], [r["teardown_s"] * 1e3 for r in plain])
                if med is not None:
                    metrics[m["name"]] = {"value": med, "unit": m["unit"]}
                continue
            note = ""
            if m["name"] == "fleet.epoch_ms.tail" and traced:
                note = " (p%g)" % traced[0]["layers"]["fleet.epoch_tail_pct"]
            med = summarize(m["name"], m["unit"], [r["layers"][m["name"]] for r in traced],
                            note)
            if med is not None:
                metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def self_test(binary):
    """BENCHMARK.json lists metric_catalog.json's metrics, and fleet256 (shortened)
    writes the same report at 1 and at 4 threads."""
    doc = load_json("metric_catalog.json")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for kind, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                       ("per_layer", ("name", "unit", "better"))):
        if bench[kind] != [{k: m[k] for k in keys} for m in doc[kind]]:
            print("self-test: FAIL: BENCHMARK.json %s differs from metric_catalog.json" % kind)
            return False
    digests = {}
    for threads in (1, 4):
        result, digest = run_job(binary, "fleet256", DEFAULT_SEED, "t%d" % threads,
                                 threads=threads, sim_ms=30)
        if result is None or not result.get("pass"):
            print("self-test: fleet256 at %d threads failed" % threads)
            return False
        digests[threads] = digest
        print("self-test: fleet256 --threads %d report sha256 %s" % (threads, digest))
    ok = digests[1] == digests[4]
    print("self-test: %s" % ("PASS: identical at 1 and 4 threads" if ok else
                             "FAIL: reports differ between 1 and 4 threads"))
    return ok


def pin(binary):
    digests = {}
    for workload in WORKLOADS:
        result, digest = run_job(binary, workload, DEFAULT_SEED, "pin")
        if result is None or not result.get("pass"):
            print("pin: %s failed its verdict; nothing written" % workload)
            return False
        digests[workload] = digest
        print("pin: %s %s" % (workload, digest))
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (args.self_test or args.pin or args.workload):
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.self_test:
        return 0 if self_test(binary) else 1
    if args.pin:
        return 0 if pin(binary) else 1
    result = measure(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
