"""Open-loop scraper for ``repro serve``.

One client thread keeps one connection at a time and requests
``/metrics``, ``/health`` and ``/invariants`` in turn, each due at a
fixed rate whether or not the previous scrape was slow.  A scrape's
latency runs from when it was *due*, so a stall also charges the
scrapes queued behind it; how late the generator itself started each
scrape is reported separately.

Scraping stops once ``/health`` shows the soak's simulated duration
reached, or the server exits cleanly: connection errors while a
finished server shuts down are not failures.  Any other error, bad
status or bad page during the soak is.
"""

from __future__ import annotations

import http.client
import json
import time
from statistics import median
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from calib import mean_speed
from counters import LIVENESS
from procs import Child

ROUTES = ("/metrics", "/health", "/invariants")


def scrape(host: str, port: int, path: str,
           timeout: float) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def server_address(child: Child, timeout: float) -> Optional[Tuple[str, int]]:
    """Wait for the ``serving on http://host:port`` banner."""
    line = child.wait_for_line("serving on ", timeout)
    if line is None:
        return None
    url = urlsplit(line.split("serving on ", 1)[1].strip())
    return url.hostname, url.port


def first_health(child: Child, timeout: float) -> Optional[float]:
    """Seconds from launch until ``/health`` first answers 200."""
    deadline = time.monotonic() + timeout
    address = server_address(child, timeout)
    if address is None:
        return None
    while time.monotonic() < deadline:
        try:
            status, _ = scrape(*address, "/health", timeout=1.0)
        except OSError:
            status = None
        if status == 200:
            return time.perf_counter() - child.started
        time.sleep(0.002)
    return None


class Soak:
    """Scrape one running server until its soak ends."""

    def __init__(self, child: Child, duration: float, rate_hz: float,
                 timeout: float = 5.0) -> None:
        self.child = child
        self.duration = duration
        self.period = 1.0 / rate_hz
        self.timeout = timeout
        self.latency_ms: List[float] = []
        self.late_ms: List[float] = []
        #: (host seconds, events processed) per ``/health`` scrape.
        self.health: List[Tuple[float, int]] = []
        self.pending_max = 0
        self.violations = 0
        self.attempted = 0
        self.errors: List[str] = []
        self._finished = False

    def run(self, address: Tuple[str, int], wall_limit: float) -> None:
        start = time.perf_counter()
        for k in range(1 << 30):
            due = start + k * self.period
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            began = time.perf_counter()
            if began - start > wall_limit:
                self.errors.append(
                    f"soak still running after {wall_limit:.0f}s")
                return
            path = ROUTES[k % len(ROUTES)]
            try:
                status, body = scrape(*address, path, self.timeout)
            except (OSError, http.client.HTTPException) as exc:
                if self.child.exited_within(5.0) and \
                        self.child.returncode == 0:
                    return          # the finished server shut down
                self.attempted += 1
                self.errors.append(f"{path}: {exc!r}")
                continue
            done = time.perf_counter()
            self.attempted += 1
            self.late_ms.append((began - due) * 1e3)
            self.latency_ms.append((done - due) * 1e3)
            try:
                problem = self.check(path, status, body, done)
            except (KeyError, TypeError, AttributeError) as exc:
                problem = f"malformed page: {exc!r}"
            if problem:
                self.errors.append(f"{path}: {problem}")
            if path == "/health" and self._finished:
                return

    def check(self, path: str, status: int, body: bytes,
              done: float) -> Optional[str]:
        """Validate one page; returns a problem description or None."""
        if status != 200:
            return f"HTTP {status}"
        if path == "/metrics":
            if b"repro_obs_events_processed" not in body:
                return "page lacks repro_obs_events_processed"
            return None
        try:
            page: Dict = json.loads(body)
        except ValueError:
            return "invalid JSON"
        if path == "/health":
            if page.get("status") != "ok":
                return f"status {page.get('status')!r}"
            events = page["events_processed"]
            if self.health and events < self.health[-1][1]:
                return "events_processed went backwards"
            self.health.append((done, events))
            self.pending_max = max(self.pending_max, page["pending_events"])
            self._finished = page["sim_time"] >= self.duration
            return None
        broken = {
            name: entry["violations"]
            for name, entry in page["monitors"].items()
            if entry["violations"]
        }
        self.violations = sum(broken.values())
        safety = {k: v for k, v in broken.items() if k != LIVENESS}
        return f"invariant violations {safety}" if safety else None

    def events_per_s(self, speeds: Optional[List[Tuple[float, float]]]
                     = None) -> Optional[float]:
        """Median events per host second over the intervals between
        consecutive ``/health`` scrapes.

        ``speeds`` are ``(perf_counter, speed)`` samples of the server's
        core (``calib.py``); each interval's rate is scaled by the
        samples taken inside it, or by the nearest one.
        """
        rates = []
        for (t0, e0), (t1, e1) in zip(self.health, self.health[1:]):
            rate = (e1 - e0) / (t1 - t0)
            if speeds:
                rate /= mean_speed(speeds, t0, t1)
            rates.append(rate)
        return median(rates) if rates else None
