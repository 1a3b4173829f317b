#!/usr/bin/env python3
"""The l2sim benchmark: host-side cost of a realistic `l2sim run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/l2sim_perf (the library sources of this checkout, Release)
under .bench_build/perfbench, runs one workload in its own process, checks
the simulated outputs and prints every metric by name and unit. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

--trace 0  end-to-end metrics from untraced repetitions, each one
           trace::generate -> ClusterSimulation -> run(), for --seconds.
--trace 1  per-layer metrics from one run whose policy is wrapped in a
           timing decorator, next to an untraced run of the same inputs
           (trace overhead, digest check); lard-nasa-open-rack also runs
           its observer companion (telemetry and flight recorder off).
--smoke    every trace at 2% of its size: a fast functional check.

--seed offsets the seeds of the request stream and of the simulation;
seed 0 is the `l2sim run` default. All times are host time; end-to-end
times are scaled to the nominal speed of a benchmark-owned reference
kernel timed around every repetition, and the unscaled values are printed
too. Simulated throughput, hit rate, p99 and the result digest are printed
as a correctness record, never as metrics. Workload rationale and
baseline: perfbench/BASELINE.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "l2sim_perf"
DIGESTS = BUILD / "digests.json"

WORKLOADS = ("l2s-calgary-128", "trad-clarknet-16", "lard-nasa-open-rack")
OBSERVED = "lard-nasa-open-rack"  # the one workload with observers on

BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 170  # after an up-to-date build, a run must end within 180 s


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def run_driver(args, mode, out_dir, deadline):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out-dir", str(out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"l2sim_perf --mode {mode} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Correctness of every repetition: conservation, ranges, one digest."""

    def __init__(self, args):
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        sha = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
        self.key = f"{sha}:{args.workload}:{args.seed}:{int(args.smoke)}"

    def check(self, label, rep):
        problems = []
        if rep["completed"] + rep["failed"] != rep["trace_requests"]:
            problems.append(f"completed {rep['completed']} + failed {rep['failed']} "
                            f"!= {rep['trace_requests']} trace requests")
        if not 0.0 <= rep["hit_rate"] <= 1.0:
            problems.append(f"hit rate {rep['hit_rate']} outside [0, 1]")
        if rep["events"] <= 0:
            problems.append("no events processed")
        if self.reference is None:
            self.reference = rep["digest"]
        if rep["digest"] != self.reference:
            problems.append(f"digest {rep['digest']} != {self.reference}")
        self.attempted += rep["trace_requests"]
        self.failed += rep["trace_requests"] if problems else rep["failed"]
        self.problems += [f"{label}: {p}" for p in problems]

    def check_history(self):
        """The digest must also match every earlier run of this build."""
        history = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        known = history.setdefault(self.key, self.reference)
        if known != self.reference:
            self.problems.append(f"digest {self.reference} != {known} of an earlier run")
        DIGESTS.write_text(json.dumps(history, indent=1, sort_keys=True))

    @property
    def correct(self):
        return not self.problems


def e2e_metrics(result, checker):
    """Host times scaled to the reference kernel's nominal speed: a time
    measured while the host ran at speed s (nominal = 1) counts as time * s."""
    reps = result["reps"]
    for i, rep in enumerate(reps):
        checker.check(f"rep {i}", rep)
    run_s = [r["run_s"] * r["host_speed"] for r in reps]
    return reps[0], {
        "sim_req_per_s": (median([r["simulated"] / t for r, t in zip(reps, run_s)]), "req/s"),
        "setup_s": (median(result["setups"]) * result["setup_host_speed"], "s"),
        "ns_per_event": (median([t * 1e9 / r["events"] for r, t in zip(reps, run_s)]), "ns"),
        "events_per_req": (median([r["events"] / r["simulated"] for r in reps]), "events"),
        "peak_rss_mb": (result["peak_rss_mib"], "MiB"),
    }


def raw_host_line(result):
    reps = result["reps"]
    return (f"  unscaled host time: {median([r['simulated'] / r['run_s'] for r in reps]):.6g} "
            f"req/s, {median([r['run_s'] * 1e9 / r['events'] for r in reps]):.6g} ns/event, "
            f"set-up {median(result['setups']):.6g} s; host speed "
            f"{median([r['host_speed'] for r in reps]):.4g}")


def layer_metrics(result, quiet, checker):
    u, t = result["untraced"], result["traced"]
    checker.check("untraced", u)
    checker.check("traced", t)
    if quiet is not None:
        checker.check("observer companion", quiet["untraced"])
    run_s, self_s, via = t["run_s"], t["policy_self_s"], t["via_messages"]
    lookups = t["cache_hits"] + t["cache_misses"]
    rest_s = run_s - self_s
    obs_share = obs_rss = 0.0
    if quiet is not None:
        obs_share = (u["run_s"] - quiet["untraced"]["run_s"]) / u["run_s"]
        obs_rss = result["peak_rss_mib"] - quiet["peak_rss_mib"]
    return t, {
        "trace.generate_s": (t["generate_s"], "s"),
        "core.build_s": (t["build_s"], "s"),
        "core.warmup_s": (t["warmup_s"], "s"),
        "core.measured_s": (t["measured_s"], "s"),
        "des.events_warmup": (t["events_warmup"], "events"),
        "des.events_measured": (t["events"] - t["events_warmup"], "events"),
        "des.max_pending": (t["max_pending"], "events"),
        "policy.calls": (t["policy_calls"], "calls"),
        "policy.self_s": (self_s, "s"),
        "policy.ns_per_call": (self_s * 1e9 / max(1, t["policy_calls"]), "ns"),
        "policy.share": (self_s / run_s, "ratio"),
        "policy.load_broadcasts": (t["load_broadcasts"], "count"),
        "policy.locality_broadcasts": (t["locality_broadcasts"], "count"),
        "net.via_messages": (via, "count"),
        "net.via_per_req": (via / t["trace_requests"], "msg/req"),
        "net.rest_ns_per_via_msg": (rest_s * 1e9 / via if via else 0.0, "ns"),
        "cache.hit_rate": (t["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "cache.evictions": (t["cache_evictions"], "count"),
        "cache.probe_ns_per_lookup": (t["cache_probe_ns_per_lookup"], "ns"),
        "storage.disk_reads": (t["disk_reads"], "count"),
        "storage.disk_util": (t["disk_util"], "ratio"),
        "obs.overhead_share": (obs_share, "ratio"),
        "obs.rss_mb": (obs_rss, "MiB"),
        "obs.export_s": (t["export_s"], "s"),
        "rest.self_s": (rest_s, "s"),
        "bench.trace_overhead": (run_s / u["run_s"] - 1.0, "ratio"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
    except (subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        with tempfile.TemporaryDirectory(dir=BUILD, prefix="exports-") as out_dir:
            if args.trace:
                result = run_driver(args, "traced", out_dir, deadline)
                quiet = (run_driver(args, "quiet", out_dir, deadline)
                         if args.workload == OBSERVED else None)
            else:
                result = run_driver(args, "e2e", out_dir, deadline)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    checker = Checker(args)
    if args.trace:
        record, metrics = layer_metrics(result, quiet, checker)
        runs = "1 traced + 1 untraced run" + (", observer companion" if quiet else "")
    else:
        record, metrics = e2e_metrics(result, checker)
        runs = f"{len(result['reps'])} untraced runs"
    checker.check_history()

    print(f"l2sim benchmark: {args.workload}, seed {args.seed}, {runs}"
          f"{' (smoke)' if args.smoke else ''}")
    print(f"  simulated: {record['throughput_rps']:.1f} req/s, hit rate "
          f"{record['hit_rate'] * 100:.2f}%, p99 {record['p99_ms']:.2f} ms, "
          f"digest {record['digest']}")
    print(f"  failed_share {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} of {checker.attempted} measured requests)")
    if not args.trace:
        print(raw_host_line(result))
    for problem in checker.problems:
        print(f"  INCORRECT {problem}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
