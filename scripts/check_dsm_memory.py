#!/usr/bin/env python3
"""Checks that the DSM's host memory does not grow with iteration count.

Usage: scripts/check_dsm_memory.py [build-dir]

Runs `micro_parsim --point=jacobi --modes=k1 --procs=64 --n=256` at
--iters=5 and at --iters=20, each as its own child process, and reads each
child's peak RSS (ru_maxrss from wait4). The DSM retires intervals at
barriers and keeps one write notice per writer per page, so its state is
bounded by what the nodes use, not by the run's history: the 20-iteration
run must peak at no more than MAX_RATIO (1.25) times the 5-iteration one.
Exits 1 when the ratio is exceeded, 2 on a usage error or a failed child.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["--point=jacobi", "--modes=k1", "--procs=64", "--n=256"]
SHORT_ITERS = 5
LONG_ITERS = 20
MAX_RATIO = 1.25


def peak_rss_mb(binary, iters):
    """Runs one micro_parsim child and returns its ru_maxrss in MB."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CNI_")}
    proc = subprocess.Popen([str(binary), *ARGS, f"--iters={iters}"],
                            stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"error: micro_parsim --iters={iters} exited {proc.returncode}",
              file=sys.stderr)
        sys.exit(2)
    return usage.ru_maxrss / 1024.0  # Linux reports kilobytes


def main(argv):
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print(__doc__, file=sys.stderr)
        return 2
    build = Path(argv[0]) if argv else ROOT / "build"
    binary = build / "bench" / "micro_parsim"
    if not binary.exists():
        print(f"error: {binary} not found (build the micro_parsim target)", file=sys.stderr)
        return 2

    short = peak_rss_mb(binary, SHORT_ITERS)
    long = peak_rss_mb(binary, LONG_ITERS)
    ratio = long / short
    verdict = "ok" if ratio <= MAX_RATIO else "FAIL"
    print(f"jacobi 64 procs x 256^2: peak RSS {short:.1f} MB at {SHORT_ITERS} iterations, "
          f"{long:.1f} MB at {LONG_ITERS}; ratio {ratio:.3f} (limit {MAX_RATIO}) {verdict}")
    return 0 if ratio <= MAX_RATIO else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
