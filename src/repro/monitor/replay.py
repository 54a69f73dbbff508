"""Replaying datastore audit trails through the privacy monitor.

Runtime datastores record every operation (actor, permission, fields,
counts). This module converts those trails back into
:class:`~repro.monitor.events.ObservedEvent` streams and replays them
against an LTS and its risk table — post-hoc analysis of a system that
ran *without* a live monitor attached, which is how the paper's method
would be retrofitted onto an existing deployment.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..access import Permission
from ..core.actions import ActionType
from ..datastore import Operation, RuntimeDatastore
from .events import ObservedEvent
from .tracker import PrivacyMonitor

_PERMISSION_ACTIONS = {
    Permission.READ: ActionType.READ,
    Permission.CREATE: ActionType.CREATE,
    Permission.DELETE: ActionType.DELETE,
}


def events_from_audit(store: RuntimeDatastore,
                      anonymised: bool = False) -> List[ObservedEvent]:
    """Convert a store's audit trail to observed events.

    ``anonymised`` marks writes into an anonymised store, which the
    model labels ``anon`` rather than ``create``.
    """
    events: List[ObservedEvent] = []
    for index, operation in enumerate(store.audit_trail):
        events.append(_event_from_operation(operation, anonymised,
                                            float(index)))
    return events


def _event_from_operation(operation: Operation, anonymised: bool,
                          timestamp: float) -> ObservedEvent:
    action = _PERMISSION_ACTIONS[operation.permission]
    if action is ActionType.CREATE and anonymised:
        action = ActionType.ANON
    if action is ActionType.READ:
        source, target = operation.store, operation.actor
    else:
        source, target = operation.actor, operation.store
    return ObservedEvent(
        action=action,
        actor=operation.actor,
        fields=operation.fields,
        source=source,
        target=target,
        timestamp=timestamp,
    )


def merged_audit_events(stores: Sequence[Tuple[RuntimeDatastore, bool]]
                        ) -> List[ObservedEvent]:
    """Interleave several stores' audits into one stream.

    Each item is ``(store, anonymised)``. Operations keep their
    per-store order; across stores they are merged by audit position,
    which matches wall-clock order for single-threaded runtimes.
    """
    streams = [events_from_audit(store, anonymised)
               for store, anonymised in stores]
    merged: List[ObservedEvent] = []
    indices = [0] * len(streams)
    while True:
        best = None
        for stream_index, stream in enumerate(streams):
            position = indices[stream_index]
            if position >= len(stream):
                continue
            event = stream[position]
            if best is None or event.timestamp < best[1].timestamp:
                best = (stream_index, event)
        if best is None:
            return merged
        merged.append(best[1])
        indices[best[0]] += 1


def replay(monitor: PrivacyMonitor,
           events: Iterable[ObservedEvent],
           stop_on_divergence: bool = False) -> List[Optional[object]]:
    """Feed an event stream through a monitor.

    Returns the matched transitions (``None`` per diverged event).
    With ``stop_on_divergence`` the replay halts at the first
    unexplained event instead of accumulating alerts.
    """
    matches: List[Optional[object]] = []
    for event in events:
        matched = monitor.observe(event)
        matches.append(matched)
        if matched is None and stop_on_divergence:
            break
    return matches
