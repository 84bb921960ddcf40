#!/usr/bin/env python3
"""Checks that the simulator's host memory follows use, not history or size.

Usage: scripts/check_memory.py [build-dir]

Each run is its own child process; its peak RSS is ru_maxrss from wait4.
Two checks:

* DSM state is bounded by barriers, not by the run's history. Runs
  `micro_parsim --point=jacobi --modes=k1 --procs=64 --n=256` at --iters=5
  and at --iters=20. The DSM retires intervals at barriers and keeps one
  write notice per writer per page, so the 20-iteration run must peak at no
  more than DSM_MAX_RATIO (1.25) times the 5-iteration one.
* Per-node state outside the DSM is resident only where a run touches it.
  Runs `fig_barrier_scaling --nodes=N --rounds=2` (barriers and reduces
  only) at N = 256 and 1024. Fiber stacks and cache tag arrays are mapped
  zero-on-demand and trace rings exist only when tracing, so each run must
  peak at no more than NODE_MAX_KB (128 KB) of RSS per node.

Exits 1 when a bound is exceeded, 2 on a usage error or a failed child.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DSM_ARGS = ["--point=jacobi", "--modes=k1", "--procs=64", "--n=256"]
DSM_SHORT_ITERS = 5
DSM_LONG_ITERS = 20
DSM_MAX_RATIO = 1.25
NODE_COUNTS = (256, 1024)
NODE_MAX_KB = 128


def peak_rss_kb(argv):
    """Runs one child with no CNI_* settings and returns its ru_maxrss in KB."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CNI_")}
    proc = subprocess.Popen([str(a) for a in argv], stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(f"error: {' '.join(map(str, argv))} exited {code}", file=sys.stderr)
        sys.exit(2)
    return usage.ru_maxrss  # Linux reports kilobytes


def check_dsm(build):
    """The DSM check; returns True when it holds."""
    binary = build / "bench" / "micro_parsim"
    short = peak_rss_kb([binary, *DSM_ARGS, f"--iters={DSM_SHORT_ITERS}"]) / 1024.0
    long = peak_rss_kb([binary, *DSM_ARGS, f"--iters={DSM_LONG_ITERS}"]) / 1024.0
    ratio = long / short
    ok = ratio <= DSM_MAX_RATIO
    print(f"jacobi 64 procs x 256^2: peak RSS {short:.1f} MB at {DSM_SHORT_ITERS} iterations, "
          f"{long:.1f} MB at {DSM_LONG_ITERS}; ratio {ratio:.3f} (limit {DSM_MAX_RATIO}) "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def check_nodes(build):
    """The per-node check; returns True when it holds at every node count."""
    binary = build / "bench" / "fig_barrier_scaling"
    ok = True
    for nodes in NODE_COUNTS:
        kb = peak_rss_kb([binary, f"--nodes={nodes}", "--rounds=2"])
        per_node = kb / nodes
        ok_here = per_node <= NODE_MAX_KB
        ok = ok and ok_here
        print(f"barrier-only {nodes} nodes: peak RSS {kb / 1024.0:.1f} MB, "
              f"{per_node:.1f} KB per node (limit {NODE_MAX_KB}) {'ok' if ok_here else 'FAIL'}")
    return ok


def main(argv):
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print(__doc__, file=sys.stderr)
        return 2
    build = Path(argv[0]) if argv else ROOT / "build"
    for target in ("micro_parsim", "fig_barrier_scaling"):
        if not (build / "bench" / target).exists():
            print(f"error: {build / 'bench' / target} not found (build the {target} target)",
                  file=sys.stderr)
            return 2
    dsm_ok = check_dsm(build)
    nodes_ok = check_nodes(build)
    return 0 if dsm_ok and nodes_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
