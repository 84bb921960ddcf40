#!/usr/bin/env python3
"""The repository benchmark: host time, memory and simulated time of the CNI
simulator on three workloads. See perfbench/README.md.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the simulator libraries under src/) into .bench_build/,
then runs one simulation point per child process for about S seconds.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--corrupt-reference skews every reference checksum by 0.1 %, so a run must
come out incorrect; it exists to show that the gate can fail.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "cni_perfbench_point")

# What each workload's outputs are checked against. `tolerance` is relative,
# the one the tier-1 tests use for that application; `k1_check` adds a K=1
# point whose simulated results must equal the sharded points' exactly.
WORKLOADS = {
    "jacobi-1024-k4": {"check": "checksum", "tolerance": 1e-12, "k1_check": True},
    "water-343-k1": {"check": "checksum", "tolerance": 1e-6, "k1_check": False},
    "pingpong-1024-k4": {"check": "replies", "k1_check": False},
}

MIN_POINTS = 3          # timed points per run, however short --seconds is
TRACE_ROUNDS = 3        # plain / traced / obs-on rounds in a --trace 1 run
RUN_BUDGET_S = 165      # every child is killed past this, so a run ends < 180 s

# Simulated results a point must repeat exactly: across repetitions, traced
# or not, simulator tracing on or off. K_INVARIANT holds across shard counts.
K_INVARIANT = ("sim_ps", "counters", "events")
REPEATABLE = K_INVARIANT + ("epochs", "critical_path_events", "fused_epochs",
                            "epoch_barriers", "fault_latency_p50_ps",
                            "fault_latency_p99_ps", "adc_tx_wait_p99_ps")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """Every CNI_* variable changes a process-wide simulator default."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CNI_")}


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "cni_perfbench_point"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, env=clean_env())
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


class Runner:
    """Runs points as child processes and keeps the failure accounting."""

    def __init__(self, workload, seed, corrupt_reference):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.corrupt = corrupt_reference
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.slowest = 0.0
        self.build = {}  # compiler and build type, as the point runner reports them

    def time_left(self):
        return self.deadline - time.monotonic()

    def point(self, *extra):
        """One child process; its JSON result, or None when the point failed
        (crash, abort, deadlock, timeout or wrong output)."""
        self.attempted += 1
        cmd = [BINARY, "--workload", self.workload, "--seed", str(self.seed), *extra]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, env=clean_env(),
                                  timeout=max(1.0, self.time_left()))
        except subprocess.TimeoutExpired:
            return self._fail(extra, "timed out")
        self.slowest = max(self.slowest, time.monotonic() - t0)
        lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if result and not self.build:
            self.build = {k: result.get(k) for k in ("compiler", "build_type")}
        if proc.returncode != 0 or not result or not result.get("ok"):
            return self._fail(extra, (result or {}).get("error") or crash_reason(proc))
        if "--probe" not in extra:
            why = self._check_output(result)
            if why:
                return self._fail(extra, why)
        return result

    def _check_output(self, r):
        if self.spec["check"] == "replies":
            if r["replies"] != r["expected_replies"]:
                return f"{r['replies']} replies, expected {r['expected_replies']}"
            return None
        ref = r["reference"] * (1.001 if self.corrupt else 1.0)
        if abs(r["checksum"] - ref) > self.spec["tolerance"] * abs(ref):
            return f"checksum {r['checksum']!r} differs from reference {ref!r}"
        return None

    def _fail(self, extra, why):
        self.failed += 1
        self.errors.append(f"point {' '.join(extra) or '(timed)'}: {why}")
        log(f"perfbench: FAILED {self.errors[-1]}")
        return None

    def agree(self, reference, points, keys, what):
        """Counts every point whose simulated results differ from
        `reference`'s on `keys` as failed; returns the points that agree."""
        kept = []
        for p in points:
            diff = [k for k in keys if p.get(k) != reference.get(k)]
            if diff:
                self.failed += 1
                self.errors.append(f"{what}: {', '.join(diff)} differ")
                log(f"perfbench: FAILED {self.errors[-1]}")
            else:
                kept.append(p)
        return kept

    def more(self, started, seconds, done, minimum, points_per_step=1):
        """Take another step? Until `seconds` have passed and `minimum` steps
        are done, while a step of the slowest points so far still fits."""
        if done >= minimum and time.monotonic() - started >= seconds:
            return False
        return self.time_left() > 1.5 * points_per_step * self.slowest

    def k1_reference(self):
        return self.point("--shards", "1") if self.spec["k1_check"] else None


def crash_reason(proc):
    """The failed check's own line when there is one (CNI_CHECK prints it
    before aborting), else the exit status and the last line of stderr."""
    lines = proc.stderr.strip().splitlines()
    for line in lines:
        if "CNI_CHECK failed" in line:
            return line
    status = (f"killed by signal {-proc.returncode}" if proc.returncode < 0
              else f"exit code {proc.returncode}")
    return f"{status}: {lines[-1]}" if lines else status


def med(points, key):
    return statistics.median(p[key] for p in points)


def timed_run(r, seconds):
    """--trace 0: the end-to-end metrics, medians over the timed points."""
    k1 = r.k1_reference()
    points = []
    started = time.monotonic()
    tries = 0
    while r.more(started, seconds, tries, MIN_POINTS):
        tries += 1
        p = r.point()
        if p is not None:
            points.append(p)
    if points:
        points = r.agree(points[0], points, REPEATABLE, "repetitions")
    if points and k1 is not None:
        points = r.agree(k1, points, K_INVARIANT, "K=1 against sharded")
    if not points:
        return {}
    return {
        "setup_s": med(points, "setup_s"),
        "run_s": med(points, "run_s"),
        "wall_s": med(points, "wall_s"),
        "peak_rss_mb": med(points, "peak_rss_mb"),
        "sim_ms": points[0]["sim_ps"] / 1e9,
    }


def shard_stats(p):
    """Per-shard means of the ShardProfiler phases (seconds), the share of
    shard time spent synchronizing, and max/mean busy time."""
    rows = p["shard_ns"]
    n = len(rows)
    total = {ph: sum(row[ph] for row in rows) for ph in rows[0]}
    sync = total["drain"] + total["barrier_wait"] + total["fused_window"]
    busy = [row["busy"] for row in rows]
    return {
        "shard.busy_s": total["busy"] / n / 1e9,
        "shard.drain_s": total["drain"] / n / 1e9,
        "shard.barrier_wait_s": total["barrier_wait"] / n / 1e9,
        "shard.fused_window_s": total["fused_window"] / n / 1e9,
        "shard.idle_s": total["idle"] / n / 1e9,
        "shard.sync_pct": 100.0 * sync / max(1, sum(total.values())),
        "shard.busy_imbalance": max(busy) / max(1e-9, statistics.mean(busy)),
    }


def traced_run(r, seconds):
    """--trace 1: per-layer metrics. Alternates plain points (tracing off),
    traced points (benchmark spans + ShardProfiler) and obs-on points
    (SimParams::obs.trace), so the overheads compare medians taken under
    the same conditions."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{r.workload}-seed{r.seed}.json")
    probe = r.point("--probe")
    k1 = r.k1_reference()
    kinds = {"plain": [], "traced": [], "obs": []}
    args = {"plain": (), "traced": ("--spans", spans_path), "obs": ("--obs-trace",)}
    order = list(kinds)
    started = time.monotonic()
    rounds = 0
    while r.more(started, seconds, rounds, TRACE_ROUNDS, len(order)):
        for kind in order:
            p = r.point(*args[kind])
            if p is not None:
                kinds[kind].append(p)
        order = order[1:] + order[:1]
        rounds += 1
    everything = [p for kind in kinds.values() for p in kind]
    if not everything or probe is None:
        return {}
    ref = everything[0]
    for kind in kinds:
        kinds[kind] = r.agree(ref, kinds[kind], REPEATABLE, f"{kind} points")
    if k1 is not None:
        for kind in kinds:
            kinds[kind] = r.agree(k1, kinds[kind], K_INVARIANT, f"K=1 against {kind}")
    plain, traced, obs = kinds["plain"], kinds["traced"], kinds["obs"]
    if not (plain and traced and obs):
        return {}

    c = ref["counters"]
    lookups = c["mcache.tx_lookups"]
    run_plain = med(plain, "run_s")
    m = {
        "cluster.build_s": probe["cluster_build_s"],
        "cluster.build_rss_mb": probe["cluster_build_rss_mb"],
        "cluster.teardown_s": probe["cluster_teardown_s"],
        "dsm.build_s": probe["dsm_build_s"],
        "dsm.run_rss_mb": statistics.median(p["peak_rss_mb"] - p["rss_run_begin_mb"]
                                            for p in plain),
        "dsm.read_faults": c["dsm.read_faults"],
        "dsm.write_faults": c["dsm.write_faults"],
        "dsm.pages_fetched": c["dsm.pages_fetched"],
        "dsm.diffs_created": c["dsm.diffs_created"],
        "dsm.diffs_applied": c["dsm.diffs_applied"],
        "dsm.write_notices": c["dsm.write_notices_received"],
        "dsm.lock_acquires": c["dsm.lock_acquires"],
        "dsm.barriers": c["dsm.barriers"],
        "dsm.fault_latency_p50_us": ref["fault_latency_p50_ps"] / 1e6,
        "dsm.fault_latency_p99_us": ref["fault_latency_p99_ps"] / 1e6,
        "sim.events": ref["events"],
        "sim.host_ns_per_event": run_plain * 1e9 / max(1, ref["events"]),
        "sim.epochs": ref["epochs"],
        "sim.fused_epochs": ref["fused_epochs"],
        "sim.epoch_barriers": ref["epoch_barriers"],
        "sim.event_parallelism": ref["events"] / max(1, ref["critical_path_events"]),
    }
    per_shard = [shard_stats(p) for p in traced]
    for key in per_shard[0]:
        m[key] = statistics.median(s[key] for s in per_shard)
    m.update({
        "atm.messages": c["nic.messages_sent"],
        "atm.cells": c["nic.cells_sent"],
        "atm.bytes": c["nic.bytes_sent"],
        "mcache.tx_hit_pct": 100.0 * c["mcache.tx_hits"] / lookups if lookups else 0.0,
        "mcache.rx_inserts": c["mcache.rx_inserts"],
        "mcache.evictions": c["mcache.evictions"],
        "mcache.snoop_updates": c["mcache.snoop_updates"],
        "adc.tx_wait_p99_us": ref["adc_tx_wait_p99_ps"] / 1e6,
        "nic.dma_transfers": c["nic.dma_transfers"],
        "nic.dma_bytes": c["nic.dma_bytes"],
        "nic.host_interrupts": c["nic.host_interrupts"],
        "nic.host_polls": c["nic.host_polls"],
        "nic.send_us_p50": med(traced, "send_ns_p50") / 1e3,
        "obs.snapshot_s": med(plain, "snapshot_s"),
        "obs.trace_overhead_pct": 100.0 * (med(obs, "run_s") / run_plain - 1.0),
        "bufpool.hits": med(plain, "bufpool_hits"),
        "bufpool.misses": med(plain, "bufpool_misses"),
        "proc.user_s": med(plain, "user_s"),
        "proc.sys_s": med(plain, "sys_s"),
        "proc.minor_faults": med(plain, "minor_faults"),
        "bench.trace_overhead_pct": 100.0 * (med(traced, "run_s") / run_plain - 1.0),
    })
    log(f"perfbench: spans of the last traced point: {spans_path}")
    return m


def host_context(build_info):
    ram_kb = 0
    try:
        with open("/proc/meminfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    ram_kb = int(line.split()[1])
    except OSError:
        pass
    describe = ""
    if os.path.exists(os.path.join(ROOT, ".git")):  # a plain checkout has no history
        try:
            describe = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                                      cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL, text=True).stdout.strip()
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(ram_kb / 1024 / 1024, 1),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "git_describe": describe or "unknown",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    r = Runner(args.workload, args.seed, args.corrupt_reference)
    metrics = traced_run(r, args.seconds) if args.trace else timed_run(r, args.seconds)
    print(json.dumps({"host": host_context(r.build), "workload": args.workload,
                      "seed": args.seed, "errors": r.errors}))
    print(json.dumps({
        "correct": r.failed == 0 and bool(metrics),
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units(args.trace).items() if name in metrics},
    }))
    return 0


def metric_units(trace):
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
