#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at a tiny scale (under a minute).

Run from the root of the checkout:
    python3 perfbench/selftest.py

Checks that
  1. every workload, traced and untraced, emits exactly the metric names
     BENCHMARK.json lists (serve_mixed, which BENCHMARK.json leaves out,
     adds its serve-only metrics), and `--workload all` runs all four;
  2. a tampered dependency list is detected: the run reports correct=false
     and exits non-zero;
  3. an op that sleeps past its deadline is killed, counted as failed with
     its diagnostic line, and the run carries on with the next op;
  4. a directory holding only BENCHMARK.json and perfbench/ fails to build
     and exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TINY = ["--scale", "0.02", "--seconds", "1"]
# Runnable workloads that BENCHMARK.json does not list, with the per-layer
# metrics they print on top of its list.
EXTRA_WORKLOADS = {
    "serve_mixed": {
        "0": {"job_latency_s_p50", "job_latency_s_p90", "jobs_per_s"},
        "1": {"serve.submit_s_p50", "serve.await_s_p50", "serve.job_run_s_p50",
              "serve.queue_and_transfer_s_p50", "serve.table_cache_hit_ratio",
              "serve.jobs_rejected"},
    },
}
failures = []


def run(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p, result


def check(name, ok, detail=""):
    print(("PASS " if ok else "FAIL ") + name + ("" if ok else ": " + detail))
    if not ok:
        failures.append(name)


def metric_names():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    workloads = [w["name"] for w in SPEC["workloads"]] + list(EXTRA_WORKLOADS)
    for trace, names in (("0", e2e), ("1", layer)):
        for w in workloads:
            want = names | EXTRA_WORKLOADS.get(w, {}).get(trace, set())
            p, r = run("--workload", w, "--seed", "3", "--trace", trace, *TINY)
            got = set(r["metrics"]) if r else set()
            check(f"metric names {w} trace={trace}",
                  p.returncode == 0 and r is not None and got == want
                  and r["attempted"] >= 1 and r["correct"],
                  f"rc={p.returncode} missing={sorted(want - got)} "
                  f"extra={sorted(got - want)}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    p, r = run("--workload", "all", "--seed", "3", "--trace", "0", *TINY)
    want = {f"{w}.{m}" for w in workloads
            for m in e2e | EXTRA_WORKLOADS.get(w, {}).get("0", set())}
    got = set(r["metrics"]) if r else set()
    check("all four workloads in one command",
          p.returncode == 0 and got == want, f"rc={p.returncode} {p.stdout[-2000:]}")


def tampered_fingerprint():
    p, r = run("--workload", "aod_ncvoter", "--seed", "3", "--trace", "0",
               "--tamper-op", "1", *TINY)
    check("tampered dependency list is detected",
          p.returncode != 0 and r is not None and not r["correct"]
          and "output mismatch" in p.stdout,
          f"rc={p.returncode} {p.stdout[-2000:]}")


def sleeping_op():
    # The deadline (0.5 s) is shorter than the CPU-idle window, so this
    # exercises the deadline kill; ops at this scale take a few ms.
    p, r = run("--workload", "aod_ncvoter", "--seed", "3", "--trace", "0",
               "--sleep-op", "1", "--deadline-s", "0.5", *TINY)
    diag = [l for l in p.stdout.splitlines()
            if l.startswith("OP FAILED workload=aod_ncvoter op=1 seed=3 ")]
    check("op sleeping past its deadline is failed and the run continues",
          p.returncode == 0 and r is not None and r["failed"] == 1
          and r["attempted"] >= 3 and r["correct"] and len(diag) == 1
          and "killed at deadline" in diag[0],
          f"rc={p.returncode} {p.stdout[-2000:]}")


def bare_directory():
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "aod_ncvoter", "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=tmp, capture_output=True, text=True, timeout=180)
        check("bare benchmark directory exits non-zero without a result",
              p.returncode != 0 and "correct" not in p.stdout,
              f"rc={p.returncode} {p.stdout[-500:]}")


def main():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    metric_names()
    tampered_fingerprint()
    sleeping_op()
    bare_directory()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
