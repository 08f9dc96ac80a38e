"""Fold a cProfile run into exclusive host time per ``repro`` layer.

A layer is one package under ``src/repro`` (``sim``, ``net``, ...);
the top-level modules (``facade.py``, ``cli.py``, ``errors.py``) form
the ``facade`` layer and everything outside the source tree is
``stdlib``.  Two rules make the split add up:

* a C builtin (``heapq.heappush``, ``list.append``, ...) has no file,
  so its time is charged to the layer of the Python function that
  called it, split per caller as cProfile records it;
* ``<layer>.calls`` counts only calls that *enter* the layer from a
  different one, so a layer's internal chatter does not inflate it.

Only the standard library is used, so the fold works on any tree.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import threading
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Tuple

#: the layers reported, in output order (the ``repro`` packages).
LAYERS = (
    "sim", "net", "hosts", "mutex", "clock", "mobility", "workload",
    "metrics", "monitor", "obs", "faults", "recovery", "groups", "proxy",
    "multicast", "scenario", "scale", "pool", "trace", "facade",
)

#: time and calls outside ``repro`` (interpreter, stdlib, http.server).
STDLIB = "stdlib"

#: the benchmark's own code (``perfbench``); measured but not reported.
BENCH = "bench"

_BENCH_DIR = Path(__file__).resolve().parent

Key = Tuple[str, int, str]


class LayerMap:
    """Map profiler function keys to layer names for one source tree."""

    def __init__(self, src_root: Path) -> None:
        self._repro = str(Path(src_root).resolve() / "repro") + "/"
        self._bench = str(_BENCH_DIR) + "/"
        self._cache: Dict[str, str] = {}

    def of_file(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = self._classify(filename)
            self._cache[filename] = layer
        return layer

    def _classify(self, filename: str) -> str:
        try:
            path = str(Path(filename).resolve())
        except (OSError, ValueError):
            return STDLIB
        if path.startswith(self._repro):
            parts = path[len(self._repro):].split("/")
            return parts[0] if len(parts) > 1 else "facade"
        if path.startswith(self._bench):
            return BENCH
        return STDLIB


def _is_builtin(key: Key) -> bool:
    return key[0] == "~"


def fold(stats: Dict, layer_map: LayerMap) -> Dict[str, Dict[str, float]]:
    """Exclusive seconds and entering calls per layer.

    ``stats`` is ``pstats.Stats(...).stats``: key -> ``(cc, nc, tt,
    ct, callers)`` with ``callers`` mapping caller key -> ``(nc, cc,
    tt, ct)``.
    """
    resolved: Dict[Key, str] = {}

    def layer_of(key: Key, depth: int = 0) -> str:
        """Layer of a function; a builtin takes its main caller's."""
        if not _is_builtin(key):
            return layer_map.of_file(key[0])
        if key in resolved:
            return resolved[key]
        callers = stats[key][4] if key in stats else {}
        layer = STDLIB
        if callers and depth < 8:
            main = max(callers, key=lambda c: callers[c][2])
            layer = layer_of(main, depth + 1)
        resolved[key] = layer
        return layer

    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if _is_builtin(key):
            if callers:
                for caller, entry in callers.items():
                    owner = layer_of(caller)
                    self_s[owner] = self_s.get(owner, 0.0) + entry[2]
            else:
                owner = layer_of(key)
                self_s[owner] = self_s.get(owner, 0.0) + tt
            continue
        layer = layer_of(key)
        self_s[layer] = self_s.get(layer, 0.0) + tt
        for caller, entry in callers.items():
            if layer_of(caller) != layer:
                calls[layer] = calls.get(layer, 0) + entry[0]
    return {"self_s": self_s, "calls": calls}


def count_calls(stats: Dict, layer: str, module: str,
                names: Iterable[str], layer_map: LayerMap) -> int:
    """Total calls of the functions ``names`` defined in ``module``
    (a file name such as ``scheduler.py``) within ``layer``."""
    wanted = set(names)
    total = 0
    for key, entry in stats.items():
        filename, _line, func = key
        if (func in wanted and not _is_builtin(key)
                and Path(filename).name == module
                and layer_map.of_file(filename) == layer):
            total += entry[1]
    return total


def profile_metrics(stats: Dict, src_root: Path) -> Dict:
    """The layer fold plus ``cancel_ratio``: ``Event.cancel`` calls per
    ``schedule_at``/``post_at`` call in the scheduler."""
    layer_map = LayerMap(src_root)
    folded = fold(stats, layer_map)
    scheduled = count_calls(stats, "sim", "scheduler.py",
                            ("schedule_at", "post_at"), layer_map)
    cancelled = count_calls(stats, "sim", "scheduler.py", ("cancel",),
                            layer_map)
    folded["cancel_ratio"] = cancelled / scheduled if scheduled else 0.0
    return folded


class ThreadProfiler:
    """cProfile on the calling thread and on every thread started later.

    ``cProfile.Profile.enable`` hooks only the thread that calls it; a
    one-shot ``threading.setprofile`` hook gives each new thread (the
    HTTP server and its per-request handlers) its own profiler.

    The default timer is wall time, the cheapest.  Pass
    ``time.thread_time`` when threads block (in ``select``, on
    sockets): per-thread CPU time keeps idle waits out of the layers.
    """

    def __init__(self, timer: Optional[Callable[[], float]] = None) -> None:
        self._timer = timer
        self._profiles = []
        self._lock = threading.Lock()

    def _profile(self) -> cProfile.Profile:
        if self._timer is None:
            return cProfile.Profile()
        return cProfile.Profile(self._timer)

    def _new_thread_hook(self, frame, event, arg) -> None:
        sys.setprofile(None)
        profile = self._profile()
        with self._lock:
            self._profiles.append(profile)
        profile.enable()

    def start(self) -> None:
        threading.setprofile(self._new_thread_hook)
        profile = self._profile()
        self._profiles.append(profile)
        profile.enable()

    def stop(self) -> Optional[Dict]:
        threading.setprofile(None)
        self._profiles[0].disable()
        with self._lock:
            profiles = list(self._profiles)
        merged = None
        for profile in profiles:
            profile.create_stats()
            if not profile.stats:
                continue
            if merged is None:
                merged = pstats.Stats(profile)
            else:
                merged.add(profile)
        return merged.stats if merged is not None else {}
