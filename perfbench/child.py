"""One measurement of one workload, in a fresh interpreter.

``run.py`` starts this file once per measurement so that imports, the
garbage collector and peak RSS belong to that measurement alone::

    python3 perfbench/child.py '{"mode": "run", "workload": "l2_mobility",
                                 "seed": 3, "seconds": 10, "trace": "off"}'

Modes:

* ``setup``     -- import ``repro`` and build the workload's inputs;
  report the host seconds that took.
* ``run``       -- the workload itself.  ``trace`` is ``off`` (timed),
  ``counters`` (untimed, with gc and public-state counters) or
  ``profile`` (cProfile folded per layer).
* ``reference`` -- the digests ``reference.json`` holds.

The last line of stdout is one JSON object.  Failures are counted and
described there; they never escape as a traceback.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from calib import Calibrator  # noqa: E402
from counters import LIVENESS, GcWatch, sim_counters  # noqa: E402
from layers import ThreadProfiler, profile_metrics  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = Path(__file__).with_name("reference.json")

#: sim-units advanced per timed slice of an L2 run.
QUANTUM = 250.0
#: sim-units of L2 run per requested second (timed and traced runs).
L2_UNITS_PER_S = {"off": 4000.0, "counters": 1000.0, "profile": 1000.0}
#: sim-time at which the L2 run's prefix digest is taken.
PREFIX = 2000.0
#: the reference L2 run (``reference.json["l2"]``).
REF_SEED, REF_HORIZON = 1, 2000.0
#: chaos seeds per requested second, and the reference sweep's seed.
CHAOS_SEEDS_PER_S = {"off": 2.5, "counters": 0.6, "profile": 0.6}
REF_CHAOS_SEED = 7


class Ops:
    """Attempted and failed operations, with a line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def attempt(self, label: str, fn):
        """Run one operation; an exception is a failure, not a crash."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # one broken run must not hide the rest
            self.fail(f"{label} raised:\n{traceback.format_exc()}")
            return None


# ----------------------------------------------------------------------
# L2 two-tier mutex under mobility
# ----------------------------------------------------------------------

class L2Run:
    """M=6 MSS, N=40 MH, L2 mutex at 0.05 req/MH, uniform moves 0.02/MH.

    Only default ``Simulation`` settings are used, plus
    ``monitors=True`` for the monitored workload.
    """

    def __init__(self, seed: int, monitored: bool) -> None:
        from repro import CriticalResource, L2Mutex, Simulation
        from repro.mobility import UniformMobility
        from repro.workload import MutexWorkload

        options = {"monitors": True} if monitored else {}
        self.sim = Simulation(n_mss=6, n_mh=40, seed=seed, **options)
        resource = CriticalResource(self.sim.scheduler)
        mutex = L2Mutex(self.sim.network, resource, cs_duration=0.3)
        self.workload = MutexWorkload(
            self.sim.network, mutex, self.sim.mh_ids, request_rate=0.05,
            rng=random.Random(seed + 1),
        )
        self.mobility = UniformMobility(
            self.sim.network, self.sim.mh_ids, 0.02,
            rng=random.Random(seed + 2),
        )

    def digest(self) -> dict:
        """Simulated statistics that must repeat exactly for a seed."""
        report = self.sim.metrics.report(self.sim.cost_model)
        return {
            "events": self.sim.scheduler.events_processed,
            "c_fixed": report["totals"]["fixed"],
            "c_wireless": report["totals"]["wireless"],
            "c_search": report["totals"]["search"],
            "cost_total": report["cost_total"],
            "mutex_issued": self.workload.issued,
            "mutex_completed": self.workload.completed,
            "mutex_dropped": self.workload.dropped,
            "faults": report.get("faults", {}),
        }

    def finish(self) -> None:
        """Stop the drivers, settle in-flight work, close the monitors."""
        self.workload.stop()
        self.mobility.stop()
        self.sim.drain()
        if self.sim.monitor_hub is not None:
            self.sim.monitor_hub.finalize()

    def violations(self):
        hub = self.sim.monitor_hub
        return list(hub.violations) if hub is not None else []


def l2_reference_digest(monitored: bool) -> dict:
    run = L2Run(REF_SEED, monitored)
    run.sim.run(until=REF_HORIZON)
    run.finish()
    return run.digest()


def run_l2(request: dict, ops: Ops) -> dict:
    monitored = request["workload"] == "l2_mobility_monitored"
    seed, trace = request["seed"], request["trace"]
    horizon = L2_UNITS_PER_S[trace] * request["seconds"]
    prefix_at = min(PREFIX, horizon)
    out: dict = {}

    def main_run() -> None:
        run = L2Run(seed, monitored)
        sim = run.sim
        profiler = ThreadProfiler() if trace == "profile" else None
        calibrator = Calibrator() if trace == "off" else None
        slices = []
        speeds = []
        pending_max = 0
        prefix = None
        if profiler is not None:
            profiler.start()
        started = time.perf_counter()
        while sim.now < horizon:
            if calibrator is not None:
                speeds.append(calibrator.speed())
            began = time.perf_counter()
            fired = sim.run(until=min(sim.now + QUANTUM, horizon))
            slices.append((fired, time.perf_counter() - began))
            pending_max = max(pending_max, sim.scheduler.pending_count)
            if prefix is None and sim.now >= prefix_at:
                prefix = run.digest()
        run_s = time.perf_counter() - started
        stats = profiler.stop() if profiler is not None else None
        run.finish()
        out["run_s"] = run_s
        if calibrator is not None:
            # Each slice is scaled by the core speed measured on both
            # sides of it (see calib.py).
            speeds.append(calibrator.speed())
            scaled = [(n, dt * (speeds[i] + speeds[i + 1]) / 2)
                      for i, (n, dt) in enumerate(slices)]
            out["events_per_s"] = median([n / dt for n, dt in scaled])
            out["latency_ms"] = [dt * 1e3 for _, dt in scaled]
        out["digest"] = run.digest()
        violations = run.violations()
        for v in violations:
            if v.monitor != LIVENESS:
                ops.fail(f"seed {seed}: {v.monitor}: {v.message}")
        out["counters"] = {
            **sim_counters(sim, pending_max),
            "mutex.issued": run.workload.issued,
            "mutex.dropped": run.workload.dropped,
            "monitor.violations": len(violations),
        }
        out["prefix"] = prefix
        if stats is not None:
            out["profile"] = profile_metrics(stats, SRC)

    ops.attempt(f"l2 seed {seed}", main_run)

    def prefix_check() -> None:
        # A fresh *unmonitored* run to the same sim-time must agree:
        # the run repeats exactly, and monitors are observational.
        check = L2Run(seed, monitored=False)
        check.sim.run(until=prefix_at)
        if out.get("prefix") != check.digest():
            ops.fail(f"seed {seed}: digest at t={prefix_at} differs "
                     f"from a fresh unmonitored run: {out.get('prefix')} "
                     f"vs {check.digest()}")

    if "prefix" in out:
        ops.attempt(f"l2 prefix check seed {seed}", prefix_check)

    def reference_check() -> None:
        expected = json.loads(REFERENCE.read_text())["l2"]
        actual = l2_reference_digest(monitored)
        if actual != expected:
            ops.fail(f"reference digest mismatch: {actual} vs {expected}")

    ops.attempt("l2 reference check", reference_check)
    return out


# ----------------------------------------------------------------------
# Chaos certification sweep
# ----------------------------------------------------------------------

def chaos_digest(result) -> str:
    report = result.report
    fields = {
        "events": result.events,
        "messages": report["messages"],
        "cost": report["cost"]["total"],
        "faults": report["faults"],
        "workload": report["workload"],
        "violations": len(report["monitors"]["violations"]),
    }
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def chaos_reference_digest(specs, run_scenario) -> str:
    digests = [chaos_digest(run_scenario(spec, seed=REF_CHAOS_SEED))
               for spec in specs]
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def run_chaos(request: dict, ops: Ops) -> dict:
    from repro.scenario import builtin_registry, run_scenario

    seed, trace = request["seed"], request["trace"]
    n_seeds = max(1, round(CHAOS_SEEDS_PER_S[trace] * request["seconds"]))
    seeds = [seed * 100 + i for i in range(n_seeds)]
    specs = builtin_registry().specs(tag="chaos")
    profiler = ThreadProfiler() if trace == "profile" else None
    latency_ms = []
    events = 0
    counters = {
        "sim.events": 0, "net.fixed_msgs": 0, "net.wireless_msgs": 0,
        "net.searches": 0, "net.cost": 0.0, "faults.retransmits": 0,
        "mutex.issued": 0, "mutex.dropped": 0, "monitor.violations": 0,
        "scenario.runs": 0, "scenario.certified": 0,
    }
    calibrator = Calibrator() if trace == "off" else None
    speed = 1.0
    scaled_s = 0.0
    if profiler is not None:
        profiler.start()
    started = time.perf_counter()
    for run_seed in seeds:
        for spec in specs:
            if calibrator is not None:
                speed = calibrator.speed()
            began = time.perf_counter()
            result = ops.attempt(
                f"{spec.name} seed {run_seed}",
                lambda: run_scenario(spec, seed=run_seed),
            )
            elapsed = (time.perf_counter() - began) * speed
            scaled_s += elapsed
            latency_ms.append(elapsed * 1e3)
            if result is None:
                continue
            report = result.report
            events += result.events
            violations = report["monitors"]["violations"]
            counters["sim.events"] += result.events
            counters["net.fixed_msgs"] += report["messages"]["fixed"]
            counters["net.wireless_msgs"] += report["messages"]["wireless"]
            counters["net.searches"] += report["messages"]["search"]
            counters["net.cost"] += report["cost"]["total"]
            counters["faults.retransmits"] += report["faults"].get(
                "rel.retransmit", 0)
            counters["mutex.issued"] += report["workload"].get("issued", 0)
            counters["mutex.dropped"] += report["workload"].get(
                "dropped", 0)
            counters["monitor.violations"] += len(violations)
            counters["scenario.runs"] += 1
            if result.ok:
                counters["scenario.certified"] += 1
            else:
                detail = result.failures + [
                    f"{v['invariant']}: {v['message']}" for v in violations
                ]
                ops.fail(f"{spec.name} seed {run_seed} not certified: "
                         + "; ".join(detail))
    run_s = time.perf_counter() - started
    stats = profiler.stop() if profiler is not None else None
    out = {
        "run_s": run_s,
        "events_per_s": events / scaled_s,
        "latency_ms": latency_ms,
        "counters": counters,
    }
    if stats is not None:
        out["profile"] = profile_metrics(stats, SRC)

    def reference_check() -> None:
        expected = json.loads(REFERENCE.read_text())["chaos"]
        actual = chaos_reference_digest(specs, run_scenario)
        if actual != expected:
            ops.fail(f"chaos reference digest mismatch: {actual} vs "
                     f"{expected}")

    ops.attempt("chaos reference check", reference_check)
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def setup(workload: str) -> dict:
    """Host seconds from interpreter start-up to a ready workload,
    scaled to the nominal host by the core's speed just after."""
    if workload == "chaos_certify":
        from repro.scenario import builtin_registry

        builtin_registry().specs(tag="chaos")
    else:
        L2Run(0, monitored=workload == "l2_mobility_monitored")
    elapsed = time.perf_counter() - _T0
    calibrator = Calibrator()
    calibrator.speed()              # first pass warms the loop up
    return {"setup_s": elapsed * median(
        [calibrator.speed() for _ in range(3)])}


def reference() -> dict:
    from repro.scenario import builtin_registry, run_scenario

    specs = builtin_registry().specs(tag="chaos")
    return {
        "l2": l2_reference_digest(monitored=False),
        "chaos": chaos_reference_digest(specs, run_scenario),
    }


def main(request: dict) -> dict:
    mode = request["mode"]
    if mode == "setup":
        return setup(request["workload"])
    if mode == "reference":
        return reference()
    ops = Ops()
    with GcWatch() as gc_watch:
        if request["workload"] == "chaos_certify":
            out = run_chaos(request, ops)
        else:
            out = run_l2(request, ops)
    out.setdefault("counters", {}).update(gc_watch.metrics())
    out.update(attempted=ops.attempted, failed=ops.failed,
               errors=ops.errors)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
