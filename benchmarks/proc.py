"""Child processes timed without polling.

``subprocess``'s ``wait(timeout=...)`` polls with sleeps of up to 50 ms,
which rounds a measured process lifetime up to that step.  Here the
caller blocks in ``waitpid``, and a timer thread kills the child's
process group if the timeout passes first.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time


def run_child(cmd: list[str], timeout: float, capture: bool = False, **popen_kwargs):
    """Run `cmd` to its end in a new session and return
    (exit code, stdout, stderr, seconds from spawn to exit).

    Raises subprocess.TimeoutExpired once the child and everything it
    started have been killed and reaped.
    """
    pipe = subprocess.PIPE if capture else None
    expired = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=pipe, stderr=pipe, text=True, start_new_session=True, **popen_kwargs
    )

    def kill() -> None:
        expired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out, err = proc.communicate()
        seconds = time.perf_counter() - t0
    finally:
        timer.cancel()
        timer.join()
    if expired.is_set():
        raise subprocess.TimeoutExpired(cmd, timeout)
    return proc.returncode, out, err, seconds
