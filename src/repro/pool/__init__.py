"""Free-list object pools for the substrate's hottest allocation sites.

ROADMAP item 3 ("next order of magnitude on raw speed") calls for an
object pool / free-list for the event and trace objects the simulator
churns through: every simulated transmission in the paper's two-tier
model (Section 2 cost currency) allocates a scheduler event, and every
traced transmission allocates a :class:`~repro.trace.events.TraceEvent`.
At the N=1M densities `repro.scale` produces, those allocations — not
the protocol logic — dominate the retained-allocation profile.

:class:`Pool` is a deliberately tiny free list:

* ``acquire()`` pops a recycled object, or calls the factory.
* ``release(obj)`` runs the reset hook and shelves the object, up to
  ``capacity`` (beyond that the object is simply left to the GC, so a
  pool can never hold more than ``capacity`` retained blocks).
* counters (``created`` / ``reused`` / ``released``) feed the perf
  harness's retained-blocks gates.

In debug mode (``REPRO_POOL_DEBUG=1``, :func:`set_debug`, or
``Pool(debug=True)``) every outstanding object is tracked so that
double releases, releases of foreign objects, and leaks raise
:class:`PoolError` instead of silently corrupting state.  Debug mode
keeps strong references to outstanding objects; it is meant for tests,
not production runs.

Pooling is only safe when the release site provably owns the last
reference.  The scheduler therefore recycles only events posted via
the handle-free ``post()``/``post_at()`` API, and the reliable
transport only its own ack envelopes.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError

__all__ = ["Pool", "PoolError", "set_debug", "debug_enabled"]

_DEBUG = os.environ.get("REPRO_POOL_DEBUG", "") not in ("", "0")


def set_debug(enabled: bool) -> None:
    """Globally enable/disable debug tracking for pools created later."""
    global _DEBUG
    _DEBUG = bool(enabled)


def debug_enabled() -> bool:
    """Whether pools created now default to debug tracking."""
    return _DEBUG


class PoolError(SimulationError):
    """A pool misuse: double release, foreign release, or leak."""


class Pool:
    """A bounded free list of reusable objects.

    Args:
        factory: zero-argument callable producing a fresh object.
        reset: optional callable run on every released object before it
            is shelved (clear references so the free list cannot pin
            payloads alive).
        capacity: maximum number of shelved objects; extra releases
            fall through to the garbage collector.
        name: label used in error messages and stats.
        debug: force debug tracking on/off; ``None`` snapshots the
            module-level flag (see :func:`set_debug`).
    """

    __slots__ = (
        "name",
        "capacity",
        "created",
        "reused",
        "released",
        "_factory",
        "_reset",
        "_free",
        "_outstanding",
    )

    def __init__(
        self,
        factory: Callable[[], Any],
        reset: Optional[Callable[[Any], None]] = None,
        capacity: int = 1024,
        name: str = "pool",
        debug: Optional[bool] = None,
    ) -> None:
        self.name = name
        self.capacity = int(capacity)
        self.created = 0
        self.reused = 0
        self.released = 0
        self._factory = factory
        self._reset = reset
        self._free: List[Any] = []
        if debug is None:
            debug = _DEBUG
        # id -> object; strong refs so an id can never be recycled by
        # the allocator while we still consider it outstanding.
        self._outstanding: Optional[Dict[int, Any]] = {} if debug else None

    def acquire(self) -> Any:
        """Return a recycled object, or a fresh one from the factory."""
        free = self._free
        if free:
            obj = free.pop()
            self.reused += 1
        else:
            obj = self._factory()
            self.created += 1
        if self._outstanding is not None:
            self._outstanding[id(obj)] = obj
        return obj

    def release(self, obj: Any) -> None:
        """Shelve ``obj`` for reuse.  The caller must drop its reference."""
        outstanding = self._outstanding
        if outstanding is not None:
            if outstanding.pop(id(obj), None) is None:
                raise PoolError(
                    f"pool {self.name!r}: release of an object that is not "
                    f"outstanding (double release, or foreign object): {obj!r}"
                )
        reset = self._reset
        if reset is not None:
            reset(obj)
        self.released += 1
        free = self._free
        if len(free) < self.capacity:
            free.append(obj)

    @property
    def free_count(self) -> int:
        """Number of objects currently shelved."""
        return len(self._free)

    @property
    def outstanding_count(self) -> int:
        """Number of acquired-but-unreleased objects (debug mode only)."""
        if self._outstanding is None:
            raise PoolError(
                f"pool {self.name!r}: outstanding tracking requires debug mode"
            )
        return len(self._outstanding)

    def check_leaks(self) -> None:
        """Raise :class:`PoolError` if debug tracking shows live leaks."""
        if self._outstanding:
            raise PoolError(
                f"pool {self.name!r}: {len(self._outstanding)} object(s) "
                "acquired but never released"
            )

    def stats(self) -> Dict[str, int]:
        """Counters for benchmarks and the perf harness."""
        return {
            "created": self.created,
            "reused": self.reused,
            "released": self.released,
            "free": len(self._free),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Pool({self.name!r} created={self.created} reused={self.reused} "
            f"free={len(self._free)}/{self.capacity})"
        )
