"""Pinned monitor verdicts: the default pipeline reproduces them exactly.

``tests/golden/monitor_verdicts.json`` holds the monitor outcomes that
per-event dispatch produced before the batched ledger became the only
dispatch path:

* the scenario report (minus ``wall_time_s``) and event count of every
  chaos-pack scenario at the certification seeds 7/19/42;
* the ``monitor_hub.report()`` text of the canonical loaded L2 run
  (``repro.perf.scenarios.monitored_l2_run``).

The canonical run is checked here; the pack is checked by
``tests/test_obs_equivalence.py::test_chaos_pack_equivalence``, which
already runs it under the default cadence.  Both compare the
serialized result with the file byte for byte, so no verdict, health
counter, cost or message total can drift silently.

Regenerate (only when a deliberate behaviour change moves a verdict)::

    PYTHONPATH=src python tests/test_monitor_verdicts_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden") / "monitor_verdicts.json"
SEEDS = (7, 19, 42)


def loaded_run_report() -> str:
    from repro.perf.scenarios import monitored_l2_run

    return monitored_l2_run().monitor_hub.report()


def pack_entry(result) -> dict:
    """One scenario's pinned outcome: event count and scrubbed report."""
    report = dict(result.report)
    report.pop("wall_time_s", None)
    return {"events": result.events, "report": report}


def pack_verdicts(seed: int) -> dict:
    from repro.scenario import builtin_registry, run_scenario

    registry = builtin_registry()
    return {
        name: pack_entry(run_scenario(registry.get(name), seed=seed))
        for name in sorted(registry.names())
    }


def serialize(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def golden_section(key: str):
    return json.loads(GOLDEN.read_text())[key]


def test_loaded_run_report_matches_golden():
    assert serialize(loaded_run_report()) == serialize(
        golden_section("loaded_run_report")
    )


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    payload = {
        "loaded_run_report": loaded_run_report(),
        "pack": {str(seed): pack_verdicts(seed) for seed in SEEDS},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(serialize(payload))
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    raise SystemExit(main(sys.argv[1:]))
