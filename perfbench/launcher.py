"""Run one benchmark child and report its wall time, exit code and peak RSS.

Usage: python -S launcher.py STDOUT_FILE STDERR_FILE TIMEOUT_S CHILD_ARG...

Prints one JSON line: ``[wall seconds, exit code, peak RSS in KiB]``. The
child is killed after TIMEOUT_S seconds.

Linux counts the resident set of the process that calls exec into the new
program's ``ru_maxrss``. run.py holds the obstructor modules and the
generated inputs, so a child it spawned itself would report at least
run.py's size. This process imports almost nothing (hence ``-S``) and stays
near 9 MB, well below any obstructor child, so the peak RSS it reports is
the child's own.
"""

import os
import signal
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    out_path, err_path, timeout, argv = (sys.argv[1], sys.argv[2],
                                         float(sys.argv[3]), sys.argv[4:])
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, _WRITE, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, _WRITE, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    print(f"[{wall!r}, {os.waitstatus_to_exitcode(status)}, {usage.ru_maxrss}]")


if __name__ == "__main__":
    main()
