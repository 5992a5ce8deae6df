"""cudaEvent analog: lightweight named timestamps.

Astra's profiler wraps regions of interest between pairs of events
(section 5.2): the runtime only needs to *mark* the events in the critical
path, and elapsed time between a pair is queried after the mini-batch.
Events are stream-local unless marked global (super-epoch boundaries
synchronize across all streams).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class EventNamespace:
    """Allocates unique event ids for one schedule."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def new_event(self, label: str = "") -> "EventId":
        return EventId(next(self._counter), label)


@dataclass(frozen=True)
class EventId:
    """One event's identity.  Equality and hash are those of the frozen
    dataclass; the hash is computed once, since the simulator looks
    events up in dicts on every completion and ready scan."""

    index: int
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.index, self.label)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickle: a string hash differs between processes
        return (EventId, (self.index, self.label))

    def __str__(self) -> str:
        return f"ev{self.index}" + (f"({self.label})" if self.label else "")


@dataclass(frozen=True)
class ProfileRange:
    """A profiled region: elapsed time between two recorded events.

    ``key`` is the profile-index key this measurement feeds (section 4.6);
    the key already includes any higher-level context prefixes.
    """

    key: tuple
    start: EventId
    end: EventId
