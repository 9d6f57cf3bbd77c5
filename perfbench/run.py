#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--workers <n>]

Run from the root of a checkout.  The benchmark is compiled into
.bench_build/perfbench (an incremental no-op after the first run).  The
workload process gets OMP_NUM_THREADS=1, so every pipeline worker runs a
one-thread OpenMP team and the compute threads are the workers alone.
On the open-loop workload run.py also keeps every usable CPU from halting
while the workload runs (see start_idle_spinners).  Everything the process
prints is passed through; its last line is the JSON result.  A traced run
also writes its spans to .bench_build/perfbench/traces/<workload>-seed<n>.jsonl.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
# Workloads that leave the CPUs idle between requests.  On a shared host a
# halted vCPU is handed to other guests, and waking it again adds their time
# slices to the latency: the service's median latency spread 28% from run to
# run that way, against ~2% with the CPUs kept awake.
KEEP_CPUS_AWAKE = {"service-int8"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}; nothing to benchmark")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "nc_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def start_idle_spinners():
    """Start one busy loop per usable CPU at SCHED_IDLE priority.

    A SCHED_IDLE task runs only when its CPU has nothing else to run and is
    preempted as soon as any other thread wakes there, so it takes no time
    from the workload; it only keeps the vCPU from halting.  The spinners
    are separate processes, so the workload's CPU time leaves them out, and
    each one exits by itself if run.py dies.
    """
    parent = os.getpid()
    pids = []
    for cpu in sorted(os.sched_getaffinity(0)):
        pid = os.fork()
        if pid == 0:
            try:
                os.sched_setaffinity(0, {cpu})
                os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
                while os.getppid() == parent:
                    pass
            finally:
                os._exit(0)
        pids.append(pid)
    return pids


def stop_processes(pids):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in pids:
        os.waitpid(pid, 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="encode-fp16, decode-fp32 or service-int8")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--workers", type=int, default=0,
                    help="pipeline workers (default: the workload's own)")
    args = ap.parse_args()

    if not build():
        return 2
    cmd = [str(BUILD / "nc_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, OMP_NUM_THREADS="1")
    # A SIGTERM unwinds through subprocess.run, which then kills the workload.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    spinners = start_idle_spinners() if args.workload in KEEP_CPUS_AWAKE else []
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        stop_processes(spinners)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        log(f"workload exited with {done.returncode}")
        return done.returncode
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if not last[0].startswith("{"):
        log("workload printed no result line")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
