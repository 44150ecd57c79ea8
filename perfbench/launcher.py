"""Start the benchmark's processes from a small process and report how they ran.

    python perfbench/launcher.py        (driven by run.py over stdin/stdout)

Each line on stdin is a JSON object ``{"cmd", "env", "cwd", "log",
"timeout_s"}``; the process runs to completion and the reply on stdout is
``{"exit", "wall_s", "rss_mb"}``, with wall time and peak RSS from
``os.wait4``. On Linux a child's peak RSS never reads lower than the peak of
the process that started it, because the counter survives ``exec``. Started
from here, that floor is the ~10 MB of a bare interpreter; started from the
benchmark, whose inputs and expected values take hundreds of MB, it would
hide the program's own peak.

A process still running after ``timeout_s`` is killed. When this launcher is
stopped it kills and reaps its running child first.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["log"], "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], env=req["env"], cwd=req["cwd"],
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(req["timeout_s"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
