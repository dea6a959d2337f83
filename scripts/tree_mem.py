#!/usr/bin/env python3
"""Run a command and report the memory of its whole process tree (Linux, reads /proc only).

usage: python3 scripts/tree_mem.py CMD [ARG...]

Samples the tree every INTERVAL_S: each process's children from
/proc/<pid>/task/*/children, its Rss and Pss from /proc/<pid>/smaps_rollup.
Prints the wall time, wait4's ru_maxrss (the largest single process, as the
benchmark's peak_rss_mb; never below this script's own ~13 MB, which the
spawned process shares until its exec) and the peaks of the tree's summed PSS
and RSS, in MB of 1024 kB. Summed RSS counts a page shared by forked processes
once per process; summed PSS counts it once. Exits with the command's status.
"""

import os
import sys
import time

INTERVAL_S = 0.005


def tree(root):
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as fh:
                    todo.extend(int(child) for child in fh.read().split())
        except OSError:  # it ended meanwhile
            pass
    return pids


def rss_pss_kb(pid):
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            fields = dict(line.split()[:2] for line in fh if line.startswith(("Rss:", "Pss:")))
    except (OSError, ValueError):  # ended, or a zombie with no mappings left
        return 0, 0
    return int(fields.get("Rss:", 0)), int(fields.get("Pss:", 0))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} CMD [ARG...]")
    start = time.perf_counter()
    root, peak_rss, peak_pss = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ), 0, 0
    while True:
        done, status, usage = os.wait4(root, os.WNOHANG)
        if done:
            break
        sums = [sum(col) for col in zip(*map(rss_pss_kb, tree(root)))] or [0, 0]
        peak_rss, peak_pss = max(peak_rss, sums[0]), max(peak_pss, sums[1])
        time.sleep(INTERVAL_S)
    print(f"wall {time.perf_counter() - start:.2f} s, ru_maxrss {usage.ru_maxrss / 1024:.1f} MB,"
          f" peak summed PSS {peak_pss / 1024:.1f} MB, peak summed RSS {peak_rss / 1024:.1f} MB", file=sys.stderr)
    sys.exit(os.waitstatus_to_exitcode(status))
