"""Spawns the benchmark's child processes, one at a time, for run.py.

run.py starts this once per run and sends one JSON request per line on
stdin: {"argv", "env", "out", "err", "deadline"}.  Each request runs argv
(argv[0] is the executable's path) in this process's working directory with
stdin from /dev/null and stdout and stderr written to the files out and err,
kills it if it is still running after deadline seconds, and answers with one
JSON line: {"code", "wall", "cpu", "rss_kb"}.  Exits when stdin closes.

The children are spawned from here and not from run.py because a child's
ru_maxrss also counts the peak RSS of the process that spawned it (the kernel
carries the spawner's high-water mark over at exec).  run.py holds numpy,
mpmath and parsed outputs; this process holds little, well below any child.
"""

import json
import os
import signal
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(req: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["out"], WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["err"], WRITE, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)

    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, req["deadline"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
