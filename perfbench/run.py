#!/usr/bin/env python3
"""Signaling-path benchmark of the qosbb bandwidth broker.

    python3 perfbench/run.py --workload fed_mixed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload fed_inter --repeat 10     # spread
    python3 perfbench/run.py --selftest                           # checks

Builds qosbbd and the load program `pb` (Release, in .bench_build/perfbench),
runs one workload in a fresh directory under .bench_runs/, and prints, as
its last line, {"correct", "attempted", "failed", "metrics"}. The lines
before it record provenance (git SHA, CPU model, nproc, build type) and
the workload's own counters. Every process the run starts lives in one
process group; a run that leaves one behind kills it and fails.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_runs")
WORKLOADS = ("mem_churn", "journal_churn", "fed_mixed", "fed_inter",
             "front_contended")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 165


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build only pb and qosbbd. False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen,
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    out = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "pb", "qosbbd"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-8000:])
        return False
    return True


def provenance():
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "cpu_model": cpu, "nproc": os.cpu_count(),
            "build_type": BUILD_TYPE}


def group_members(pgid):
    """Live processes in process group `pgid` (zombies excluded)."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 2 and fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(name))
    return pids


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_once(args):
    """One workload run. Returns the process exit code."""
    if not build():
        log("build failed")
        return 1
    os.makedirs(RUNS, exist_ok=True)
    run_dir = os.path.join(RUNS, "%s-%d-%d-%d" % (
        args.workload, args.seed, os.getpid(), time.monotonic_ns()))
    os.makedirs(run_dir)
    cmd = [os.path.join(BUILD, "pb"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace, "--dir=" + run_dir,
           "--qosbbd=" + os.path.join(BUILD, "qosbbd")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    pgid = proc.pid

    def on_signal(signum, _frame):
        kill_group(pgid)
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(pgid)
        proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        log("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    leftover = group_members(pgid)
    if leftover:
        kill_group(pgid)
    shutil.rmtree(run_dir, ignore_errors=True)
    if leftover:
        log("%s left processes behind: %s" % (args.workload, leftover))
        return 1
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log("%s: pb exited %d" % (args.workload, proc.returncode))
        return 1
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    print(json.dumps({"provenance": provenance(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, **detail}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    if not result["correct"]:
        log("%s: output checks FAILED (see stderr above)" % args.workload)
        return 1
    return 0


def repeat(args):
    """Run N seeds and print each metric's median and quartiles."""
    values, shares, ok = {}, [], True
    for i in range(args.repeat):
        seed = args.seed + i
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               "%g" % args.seconds, "--trace", str(args.trace)]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = [l for l in r.stdout.splitlines() if l.strip()]
        if r.returncode != 0 or not lines:
            log("seed %d failed (exit %d)" % (seed, r.returncode))
            ok = False
            continue
        res = json.loads(lines[-1])
        steal = json.loads(lines[-2]).get("detail", {}).get("host_steal_frac")
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log("seed %d: %s host_steal_frac=%s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in res["metrics"].items()),
            steal))
    summary = {}
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = med
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None,
                         "runs": len(vs)}
        log("%-44s median %-12.6g q1 %-12.6g q3 %-12.6g spread %s" % (
            name, med, q1, q3,
            "%.4f" % summary[name]["spread"]
            if summary[name]["spread"] is not None else "-"))
    print(json.dumps({"provenance": provenance(), "workload": args.workload,
                      "runs": args.repeat, "failed_shares": sorted(set(shares)),
                      "metrics": summary}), flush=True)
    return 0 if ok else 1


def selftest():
    if not build():
        log("build failed")
        return 1
    return subprocess.run([os.path.join(BUILD, "pb"), "selftest"]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N seeds (seed, seed+1, ...) and summarize")
    p.add_argument("--selftest", action="store_true",
                   help="show every output check firing on wrong outputs")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.repeat > 0:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
