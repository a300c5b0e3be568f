"""Start the benchmark's child processes from a small process of their own.

A child's ``ru_maxrss`` includes the resident memory of the process it was
spawned from (Linux records the pre-exec address space's high-water mark),
so children spawned straight from the benchmark would report its numpy-sized
footprint.  Children spawned from this stdlib-only process report their own.

Protocol: one JSON request per stdin line, ``{"args", "stdout", "stderr",
"timeout"}``, runs ``python ARGS`` to completion; one JSON reply per stdout
line, ``{"start", "end", "status", "maxrss_mb", "cpu_s"}``.  ``start`` and
``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC, shared by all
processes).  Exits at the end of its input.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from time import perf_counter


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *req["args"]], os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
    killer = threading.Timer(req["timeout"], _kill, (pid,))
    killer.start()
    try:
        _, status, ru = os.wait4(pid, 0)
        end = perf_counter()
    finally:
        killer.cancel()
    return {"start": start, "end": end, "status": os.waitstatus_to_exitcode(status),
            "maxrss_mb": ru.ru_maxrss / 1024.0, "cpu_s": ru.ru_utime + ru.ru_stime}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
