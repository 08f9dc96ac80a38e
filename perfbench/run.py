"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload l2_mobility --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (events/s, set-up time,
peak RSS, median latency).  ``--trace 1`` makes a separate
untimed run for public-state and gc counters plus a cProfile run
folded per ``repro`` layer, and reports the per-layer metrics.  Every
measurement runs in a fresh child interpreter (``child.py``, or the
``repro serve`` CLI for ``serve_soak``), so peak RSS is that
measurement's own.

The metrics are printed by name and unit, then one JSON object as the
last stdout line.  The exit code is 0 only when every operation
succeeded: no run raised, broke a safety invariant, failed
certification or mismatched its digest, and no scrape failed.
``--write-reference`` regenerates ``reference.json`` instead.
See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional

from calib import mean_speed, read_samples
from counters import percentile
from layers import LAYERS, STDLIB
from loadgen import Soak, first_health, server_address
from procs import Child, measured_cpu, run_child

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: wall-clock budget for one invocation, inside the 180 s limit.
BUDGET_S = 165.0
#: fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 9
#: simulated duration of a serve soak per requested second.
SERVE_UNITS_PER_S = {"off": 4000.0, "trace": 1000.0}
#: scrapes per second of the open-loop load generator.
SCRAPE_HZ = 25.0

END_TO_END = {
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
}

#: per-layer counters besides ``<layer>.self_s`` / ``<layer>.calls``.
COUNTERS = {
    "trace.overhead_x": "x",
    "sim.events": "count",
    "sim.pending_max": "count",
    "sim.cancel_ratio": "ratio",
    "pool.event_reuse_ratio": "ratio",
    "net.fixed_msgs": "count",
    "net.wireless_msgs": "count",
    "net.searches": "count",
    "net.cost": "units",
    "faults.retransmits": "count",
    "mutex.issued": "count",
    "mutex.dropped": "count",
    "monitor.violations": "count",
    "scenario.runs": "count",
    "scenario.certified": "count",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "loadgen.late_p90_ms": "ms",
    "loadgen.scrape_p90_ms": "ms",
}


class Run:
    """Operations attempted and failed in this invocation, and the
    wall-clock budget its children share."""

    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.errors: List[str] = []

    def left(self, reserve: float = 0.0) -> float:
        return max(1.0, self.deadline - time.monotonic() - reserve)

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def child(self, request: dict) -> Optional[dict]:
        """Run one ``child.py`` request; returns its result or None."""
        request = {"seed": self.args.seed, "seconds": self.args.seconds,
                   "workload": self.args.workload, **request}
        child = run_child(ROOT, request, timeout=self.left())
        result = child.result()
        if child.returncode != 0 or result is None:
            self.attempted += 1
            tail = "\n".join(child.lines[-20:])
            self.fail(f"child {request['mode']} exited "
                      f"{child.returncode}:\n{tail}")
            return None
        if "attempted" in result:
            self.attempted += result["attempted"]
            self.errors.extend(result["errors"])
        result["peak_rss_mb"] = child.peak_rss_mb
        return result

    def setup_s(self, probe: Callable[[], Optional[float]],
                extra: List[float] = ()) -> Optional[float]:
        samples = list(extra)
        for _ in range(SETUP_RUNS):
            self.attempted += 1
            value = probe()
            if value is None:
                self.fail("set-up probe failed")
            else:
                samples.append(value)
        return median(samples) if samples else None


# ----------------------------------------------------------------------
# In-process workloads (l2_mobility, l2_mobility_monitored, chaos)
# ----------------------------------------------------------------------

def child_end_to_end(run: Run) -> Dict[str, Optional[float]]:
    def probe() -> Optional[float]:
        result = run.child({"mode": "setup"})
        return result["setup_s"] if result else None

    setup_s = run.setup_s(probe)
    result = run.child({"mode": "run", "trace": "off"})
    if result is None:
        return {"setup_s": setup_s}
    if "digest" in result:
        # Equal on l2_mobility and l2_mobility_monitored for one seed.
        print(f"digest: {json.dumps(result['digest'], sort_keys=True)}",
              file=sys.stderr)
    return {
        "events_per_s": result["events_per_s"],
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "latency_p50_ms": percentile(result["latency_ms"], 50),
    }


def child_per_layer(run: Run) -> Dict[str, Optional[float]]:
    counted = run.child({"mode": "run", "trace": "counters"})
    profiled = run.child({"mode": "run", "trace": "profile"})
    if counted is None or profiled is None:
        return {}
    metrics = layer_metrics(profiled["profile"])
    metrics.update(counted["counters"])
    metrics["trace.overhead_x"] = profiled["run_s"] / counted["run_s"]
    return metrics


# ----------------------------------------------------------------------
# serve_soak: the ``repro serve`` CLI under an open-loop scraper
# ----------------------------------------------------------------------

def serve_args(run: Run, duration: Optional[float]) -> List[str]:
    args = ["serve", "--port", "0", "--seed", str(run.args.seed)]
    if duration is not None:
        args += ["--duration", repr(duration)]
    return args


def core_sampler(cpu: Optional[int]) -> Optional[Child]:
    """A ``calib.py`` process sampling core ``cpu``'s speed."""
    if cpu is None:
        return None
    return Child(ROOT, [str(HERE / "calib.py"), str(cpu), "0.05"])


def serve_setup_probe(run: Run, sampler: Optional[Child]) -> Optional[float]:
    """Launch-to-first-``/health`` seconds, scaled by core speed."""
    child = Child(ROOT, ["-m", "repro", *serve_args(run, None)],
                  cpu=measured_cpu())
    try:
        ready_s = first_health(child, timeout=30.0)
    finally:
        # SIGTERM, not Ctrl-C: the probe times start-up only, and an
        # interrupt landing inside an event can break the L2 state
        # the shutdown drain then walks (see README).
        code = child.terminate()
        if code not in (0, -signal.SIGTERM):
            run.fail(f"serve exited {code} on SIGTERM:\n"
                     + "\n".join(child.lines[-20:]))
    if ready_s is None:
        return None
    samples = read_samples(list(sampler.lines)) if sampler else []
    return ready_s * mean_speed(samples, child.started,
                                child.started + ready_s)


def soak(run: Run, launcher: List[str], duration: float,
         calibrate: bool = False):
    """Launch a server and scrape it to the end.

    The server is pinned to one core and the scraper kept off it; with
    ``calibrate`` a ``calib.py`` sampler shares the server's core.
    Returns the Soak, the launch-to-first-health seconds scaled by core
    speed, the reaped child and the core's speed samples.
    """
    cpu = measured_cpu()
    if cpu is not None and len(os.sched_getaffinity(0)) > 1:
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
    child = Child(ROOT, launcher, cpu=cpu)
    sampler = core_sampler(cpu) if calibrate else None
    ready_s = None
    scraper = Soak(child, duration, SCRAPE_HZ)
    try:
        ready_s = first_health(child, timeout=30.0)
        address = server_address(child, timeout=0.0)
        if ready_s is None or address is None:
            run.fail("serve never answered /health")
        else:
            scraper.run(address, wall_limit=run.left(reserve=15.0))
    finally:
        code = child.wait(timeout=run.left())
        if sampler is not None:
            sampler.stop()
    speeds = read_samples(sampler.lines) if sampler is not None else []
    if ready_s is not None:
        ready_s *= mean_speed(speeds, child.started, child.started + ready_s)
    run.attempted += scraper.attempted + 1
    run.errors.extend(scraper.errors)
    if code != 0:
        run.fail(f"serve exited {code}:\n" + "\n".join(child.lines[-20:]))
    return scraper, ready_s, child, speeds


def serve_end_to_end(run: Run) -> Dict[str, Optional[float]]:
    duration = SERVE_UNITS_PER_S["off"] * run.args.seconds
    scraper, ready_s, child, speeds = soak(
        run, ["-m", "repro", *serve_args(run, duration)], duration,
        calibrate=True)
    sampler = core_sampler(measured_cpu())
    try:
        setup_s = run.setup_s(lambda: serve_setup_probe(run, sampler),
                              [ready_s] if ready_s is not None else [])
    finally:
        if sampler is not None:
            sampler.stop()
    latency = scraper.latency_ms
    return {
        "events_per_s": scraper.events_per_s(speeds),
        "setup_s": setup_s,
        "peak_rss_mb": child.peak_rss_mb,
        "latency_p50_ms": percentile(latency, 50) if latency else None,
    }


def serve_per_layer(run: Run) -> Dict[str, Optional[float]]:
    wrapper = str(HERE / "serve_child.py")
    soaks = {}
    # The untraced run has the timed run's size, so its scrape tail
    # has enough samples; the profiled one is shorter.  Both report
    # rates, which do not depend on the soak's length.
    for mode, size in (("counters", "off"), ("profile", "trace")):
        duration = SERVE_UNITS_PER_S[size] * run.args.seconds
        scraper, _ready, child, _speeds = soak(
            run, [wrapper, mode, *serve_args(run, duration)], duration)
        soaks[mode] = (scraper, child.result())
    (counted, c_out), (profiled, p_out) = soaks["counters"], soaks["profile"]
    rates = counted.events_per_s(), profiled.events_per_s()
    if c_out is None or p_out is None or None in rates:
        run.fail("traced serve run produced no result")
        return {}
    metrics = layer_metrics(p_out["profile"])
    metrics.update(c_out["counters"])
    metrics.update({
        "trace.overhead_x": rates[0] / rates[1],
        "sim.events": counted.health[-1][1],
        "sim.pending_max": counted.pending_max,
        "monitor.violations": counted.violations,
        "loadgen.late_p90_ms": percentile(counted.late_ms, 90),
        "loadgen.scrape_p90_ms": percentile(counted.latency_ms, 90),
    })
    return metrics


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

def layer_metrics(profile: dict) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for layer in LAYERS + (STDLIB,):
        metrics[f"{layer}.self_s"] = profile["self_s"].get(layer, 0.0)
        metrics[f"{layer}.calls"] = profile["calls"].get(layer, 0)
    metrics["sim.cancel_ratio"] = profile["cancel_ratio"]
    return metrics


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS + (STDLIB,):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(COUNTERS)
    return units


def complete(metrics: Dict[str, Optional[float]], trace: bool,
             run: Run) -> Dict[str, dict]:
    """Attach units; a metric that was not measured is an error.

    On the per-layer side, a counter the workload cannot observe
    reads 0; ``pool.event_reuse_ratio`` alone may be absent, when the
    scheduler no longer offers ``pool_stats`` (see README).
    """
    units = per_layer_units() if trace else END_TO_END
    out = {}
    for name, unit in units.items():
        value = metrics.get(name)
        if value is None and trace and metrics:
            if name == "pool.event_reuse_ratio" and \
                    run.args.workload.startswith("l2_"):
                continue
            value = 0
        if value is None:
            run.fail(f"metric {name} was not measured")
            continue
        out[name] = {"value": value, "unit": unit}
    return out


WORKLOADS = {
    "l2_mobility": (child_end_to_end, child_per_layer),
    "l2_mobility_monitored": (child_end_to_end, child_per_layer),
    "chaos_certify": (child_end_to_end, child_per_layer),
    "serve_soak": (serve_end_to_end, serve_per_layer),
}


def write_reference() -> int:
    child = run_child(ROOT, {"mode": "reference"}, timeout=BUDGET_S)
    result = child.result()
    if child.returncode != 0 or result is None:
        print("\n".join(child.lines), file=sys.stderr)
        return 1
    path = HERE / "reference.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    run = Run(args)
    end_to_end, per_layer = WORKLOADS[args.workload]
    measured = (per_layer if args.trace else end_to_end)(run)
    metrics = complete(measured, bool(args.trace), run)
    for message in run.errors:
        print(f"FAILED: {message}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:>16.6g} {entry['unit']}")
    failed = len(run.errors)
    attempted = max(run.attempted, failed, 1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
