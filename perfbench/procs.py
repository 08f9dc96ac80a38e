"""Child processes that are always reaped, with their own peak RSS.

Each measurement runs in a fresh interpreter, so ``ru_maxrss`` from
``os.wait4`` is that measurement's own peak: no earlier workload's
peak leaks into it, as it does when RSS is read inside one
long-lived process.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional


class Child:
    """One child interpreter whose stdout is collected line by line."""

    def __init__(self, root: Path, args: List[str],
                 cpu: Optional[int] = None) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *args], cwd=root, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        if cpu is not None:
            try:
                os.sched_setaffinity(self.proc.pid, {cpu})
            except ProcessLookupError:
                pass            # it already exited; wait() reports how
        self.lines: List[str] = []
        self._new_line = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.returncode: Optional[int] = None
        self.peak_rss_mb: Optional[float] = None

    def _read(self) -> None:
        for line in self.proc.stdout:
            with self._new_line:
                self.lines.append(line.rstrip("\n"))
                self._new_line.notify_all()
        with self._new_line:
            self._new_line.notify_all()

    def wait_for_line(self, prefix: str, timeout: float) -> Optional[str]:
        """The first stdout line starting with ``prefix``, or ``None``
        if the child closes stdout or ``timeout`` passes first."""
        deadline = time.monotonic() + timeout
        with self._new_line:
            while True:
                for line in self.lines:
                    if line.startswith(prefix):
                        return line
                left = deadline - time.monotonic()
                if left <= 0 or not self._reader.is_alive():
                    return None
                self._new_line.wait(left)

    def _reaped(self, status: int, usage) -> int:
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()
        return self.returncode

    def exited_within(self, seconds: float) -> bool:
        """Reap the child if it exits within ``seconds``."""
        if self.returncode is not None:
            return True
        deadline = time.monotonic() + seconds
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._reaped(status, usage)
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def wait(self, timeout: float) -> int:
        """Reap the child, killing it after ``timeout`` seconds."""
        if self.returncode is not None:
            return self.returncode
        if not self.exited_within(timeout):
            self.proc.kill()
            _pid, status, usage = os.wait4(self.proc.pid, 0)
            self._reaped(status, usage)
        return self.returncode

    def stop(self, timeout: float = 20.0) -> int:
        """Interrupt the child (as Ctrl-C would) and reap it."""
        if self.returncode is None:
            self.proc.send_signal(signal.SIGINT)
        return self.wait(timeout)

    def terminate(self, timeout: float = 20.0) -> int:
        """SIGTERM the child and reap it."""
        if self.returncode is None:
            self.proc.terminate()
        return self.wait(timeout)

    def result(self) -> Optional[dict]:
        """The JSON object on the last stdout line, if there is one."""
        for line in reversed(self.lines):
            if line.strip():
                try:
                    value = json.loads(line)
                except ValueError:
                    return None
                return value if isinstance(value, dict) else None
        return None


def measured_cpu() -> Optional[int]:
    """The core measured code is pinned to, so it shares its core with
    its calibration (``calib.py``) and nothing migrates mid-slice;
    ``None`` where affinity cannot be set."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def run_child(root: Path, request: dict, timeout: float) -> Child:
    """Run ``child.py`` with one request, pinned, and reap it."""
    child = Child(root, [str(Path(__file__).with_name("child.py")),
                         json.dumps(request)], cpu=measured_cpu())
    child.wait(timeout)
    return child
