#!/usr/bin/env python3
"""End-to-end benchmark of the TimberWolfMC flow (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py                      # all workloads, seed 1
  python3 perfbench/run.py --steady 10          # steadiness self-check
  python3 perfbench/run.py --steady 5 --same-seed   # run-to-run noise only
  python3 perfbench/run.py --workload W --seed 2 --record   # store fingerprints

Builds the benchmark package (perfbench/CMakeLists.txt: the library from
src/ plus the twbench program) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs each workload in its own twbench process,
checks every item's fingerprint against perfbench/expected.json when the
seed has stored values, and prints one JSON result as the last line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Exits non-zero when an output check fails.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds twbench; returns its path or None."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        return None
    return os.path.join(out, "twbench")


def host_record(report_host):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {"nproc": os.cpu_count(), "cpu": model,
            "compiler": report_host.get("compiler", ""),
            "build_type": report_host.get("build_type", "")}


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its report."""
    run_dir = os.path.join(ROOT, ".bench_run", "%s-%d" % (workload, os.getpid()))
    trace_dir = os.path.join(ROOT, ".bench_run", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--run-dir", run_dir]
    if trace:
        cmd += ["--trace-file",
                os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError("%s: twbench printed no report (exit %d)"
                           % (workload, proc.returncode))
    return json.loads(lines[-1])


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_items(report, expected):
    """Compares item fingerprints with the stored ones for this seed."""
    want = expected.get(str(report["seed"]), {}).get(report["workload"])
    if want is None:
        return []
    got = report["items"]
    bad = []
    for item, fp in want.items():
        if got.get(item) != fp:
            bad.append("%s: fingerprint %s, expected %s"
                       % (item, got.get(item), fp))
    for item in got:
        if item not in want:
            bad.append("%s: no stored fingerprint" % item)
    return bad


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(report, mismatches, trace, bench):
    attempted = max(1, int(report["attempted"]))
    failed = min(attempted, int(report["failed"]) + len(mismatches))
    have = dict(report["metrics"])
    have["ok_frac"] = {"value": (attempted - failed) / attempted,
                       "unit": "ratio"}
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in have:
            value = have[m["name"]]["value"]
        elif trace:
            value = 0  # a layer this workload does not exercise
        else:
            raise RuntimeError("%s: metric %s missing"
                               % (report["workload"], m["name"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = not report["failures"] and not mismatches
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def one(binary, args, bench):
    report = run_workload(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    if args.record:
        expected = load_expected()
        expected.setdefault(str(args.seed), {})[args.workload] = report["items"]
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
    mismatches = check_items(report, load_expected())
    for why in report["failures"] + mismatches:
        log("CHECK FAILED [%s]: %s" % (args.workload, why))
    result = result_line(report, mismatches, args.trace, bench)
    print("host: " + json.dumps(host_record(report.get("host", {}))))
    for name, m in result["metrics"].items():
        print("%-16s %-28s %16.6g %s" % (args.workload, name, m["value"],
                                          m["unit"]))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def steady(args, bench):
    """Runs each workload k times and reports each end-to-end metric's
    median, quartiles and spread against its bound. The runs take seeds
    seed..seed+k-1, as a comparison of two versions does; with --same-seed
    they all take `seed`, so the spread is run-to-run noise alone."""
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    summary = {}
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.steady):
            seed = args.seed if args.same_seed else args.seed + i
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=RUN_TIMEOUT_S + 10)
            took = time.monotonic() - start
            res = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not res["correct"]:
                log("%s seed %d: output check failed" % (w, seed))
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log("%s seed %d done in %.1f s: flow_s %.4f, setup_s %.4f"
                % (w, seed, took, res["metrics"]["flow_s"]["value"],
                   res["metrics"]["setup_s"]["value"]))
        summary[w] = {}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]["bound"]
            over = spread > bound
            ok = ok and not over
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "bound": bound}
            print("%-16s %-16s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %6.2f%% of bound %5.1f%%%s"
                  % (w, name, med, q1, q3, 100 * spread, 100 * bound,
                     "  OVER" if over else ""))
    print(json.dumps(summary), flush=True)
    return 0 if ok else 1


def main():
    bench = spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="K",
                    help="run each workload K times and report spreads")
    ap.add_argument("--same-seed", action="store_true",
                    help="with --steady: every run takes --seed")
    ap.add_argument("--record", action="store_true",
                    help="store this run's fingerprints in expected.json")
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.steady is not None:
        if args.steady < 2:
            ap.error("--steady needs at least 2 runs")
        return steady(args, bench)
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.workload:
        return one(binary, args, bench)
    status = 0
    for w in [w["name"] for w in bench["workloads"]]:
        args.workload = w
        status |= one(binary, args, bench)
    return status


if __name__ == "__main__":
    sys.exit(main())
