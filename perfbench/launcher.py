"""Small child-process launcher, so that each child's peak RSS is its own.

Linux charges a process with the high-water RSS of the address space it
was forked from (on exec the old address space's peak is kept in the
process's rusage). The benchmark process grows to over 100 MB while it
checks outputs, which would then show up as every child's peak RSS. So the
benchmark starts this launcher, which stays near an empty interpreter's
size, and lets it spawn and time every child.

Protocol: one JSON request per line on stdin,
    {"cmd": [...], "stdout": path or null, "stderr": path or null, "timeout": seconds}
and one JSON reply per line on stdout,
    {"exit_code": int, "seconds": float, "max_rss_kb": int}.
The launcher exits at end of input. On SIGTERM it kills and reaps the child
it is waiting for, then exits.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def spawn(cmd: list[str], stdout: str | None, stderr: str | None, timeout: float) -> dict:
    """Run `cmd` to completion; wall time from spawn to exit, peak RSS from wait4."""
    with open(stdout or os.devnull, "wb") as out, open(stderr or os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": proc.returncode, "seconds": seconds, "max_rss_kb": usage.ru_maxrss}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["cmd"], request["stdout"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
