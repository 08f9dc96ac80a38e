#!/usr/bin/env python3
"""CI gate: quantum ledger drains are equivalent to drain-every-row.

Every monitored run goes through one exact pipeline -- events become
ledger rows that the monitors replay in drained batches -- and the
only choice left is drain cadence.  This gate runs every certified
chaos-pack scenario across the certification seeds, plus the
canonical loaded L2 system, under ``monitor_mode="event"`` (drain
after every row) and ``monitor_mode="batched"`` (the default quantum
drains), and fails if anything but wall time differs: violations,
monitor summaries, health counters, costs, message totals, final
time, allocated event ids (ROADMAP item 3).

    PYTHONPATH=src python tools/check_batched_equivalence.py
    PYTHONPATH=src python tools/check_batched_equivalence.py \
        --seeds 7,19,42 --scenario kitchen_sink
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "src"),
)

from repro.monitor.health import HealthMonitor  # noqa: E402
from repro.perf.scenarios import monitored_l2_run  # noqa: E402
from repro.scenario import builtin_registry, run_scenario  # noqa: E402

DEFAULT_SEEDS = (7, 19, 42)
MODES = ("event", "batched")

#: health gauges read from live ground truth when a sample is taken;
#: under quantum drains that is drain time, a staleness bounded by the
#: quantum (docs/observability.md), so they are the only fields of the
#: canonical run's sample series that may differ.
DRAIN_TIME_GAUGES = ("pending_events", "events_processed", "mss_load")


def scrub(report):
    """Everything must match except measured wall time."""
    report = dict(report)
    report.pop("wall_time_s", None)
    return report


def diff_keys(a, b):
    return sorted(
        k for k in set(a) | set(b) if a.get(k) != b.get(k)
    )


def canonical_run(monitor_mode: str) -> dict:
    """The canonical monitored L2 run, as a comparable summary."""
    sim = monitored_l2_run(monitor_mode)
    hub = sim.monitor_hub
    return {
        "report": hub.report(),
        "events": sim.scheduler.events_processed,
        "next_id": hub._next_id,
        "health": [
            {k: v for k, v in sample.items()
             if k not in DRAIN_TIME_GAUGES}
            for sample in hub.monitor(HealthMonitor).samples
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Verify quantum ledger drains == drain-every-row "
                    "on the certified chaos pack and the canonical run."
    )
    parser.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)),
                        help="comma-separated seeds (default 7,19,42)")
    parser.add_argument("--scenario", default=None,
                        help="single scenario name (default: whole pack)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    registry = builtin_registry()
    names = [args.scenario] if args.scenario else sorted(registry.names())
    started = perf_counter()
    checked = 0
    failures = []
    for name in names:
        spec = registry.get(name)
        for seed in seeds:
            per_row, batched = (run_scenario(spec, seed=seed,
                                             monitor_mode=mode)
                                for mode in MODES)
            checked += 1
            report_e = scrub(per_row.report)
            report_b = scrub(batched.report)
            if report_e != report_b:
                keys = diff_keys(report_e, report_b)
                failures.append(f"{name} seed={seed}: differs in {keys}")
                print(f"FAIL {name} seed={seed}: {keys}")
            elif per_row.events != batched.events:
                failures.append(
                    f"{name} seed={seed}: event counts differ "
                    f"({per_row.events} vs {batched.events})"
                )
    if args.scenario is None:
        checked += 1
        per_row, batched = (canonical_run(mode) for mode in MODES)
        if per_row != batched:
            keys = diff_keys(per_row, batched)
            failures.append(f"canonical loaded run: differs in {keys}")
            print(f"FAIL canonical loaded run: {keys}")
    elapsed = perf_counter() - started
    print(
        f"drain-cadence equivalence: {checked} runs x{len(MODES)} "
        f"cadences in {elapsed:.1f}s, {len(failures)} failures"
    )
    if failures:
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
