"""Reachability queries and identification reports over the LTS.

The paper's stated payoff of the generated model: "a developer can
determine which actors can identify which data during the course of a
service" (section IV.A). These helpers answer that and the supporting
plumbing questions (which states are reachable, how do I get to a
state, which states are terminal).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .lts import LTS, State, Transition
from .statevars import VarKind

StatePredicate = Callable[[State], bool]


def reachable_states(lts: LTS, from_sid: Optional[int] = None) -> Set[int]:
    """All state ids reachable from ``from_sid`` (default: initial)."""
    start = from_sid if from_sid is not None else lts.initial.sid
    seen: Set[int] = {start}
    queue = deque([start])
    while queue:
        sid = queue.popleft()
        for successor in lts.successors(sid):
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return seen


def terminal_states(lts: LTS) -> Tuple[State, ...]:
    """Reachable states with no outgoing transitions — the "service
    completed" states."""
    reachable = reachable_states(lts)
    return tuple(
        lts.state(sid) for sid in sorted(reachable)
        if not lts.transitions_from(sid)
    )


def states_where(lts: LTS, predicate: StatePredicate) -> Tuple[State, ...]:
    """Reachable states satisfying ``predicate``, in id order."""
    reachable = reachable_states(lts)
    return tuple(
        lts.state(sid) for sid in sorted(reachable)
        if predicate(lts.state(sid))
    )


def shortest_path_to(lts: LTS, predicate: StatePredicate,
                     from_sid: Optional[int] = None
                     ) -> Optional[List[Transition]]:
    """BFS path (as a transition list) from the initial state to the
    first state satisfying ``predicate``; ``None`` when unreachable.

    An empty list means the start state itself satisfies the predicate.
    """
    start = from_sid if from_sid is not None else lts.initial.sid
    if predicate(lts.state(start)):
        return []
    parents: Dict[int, Transition] = {}
    seen: Set[int] = {start}
    queue = deque([start])
    while queue:
        sid = queue.popleft()
        for transition in lts.transitions_from(sid):
            target = transition.target
            if target in seen:
                continue
            seen.add(target)
            parents[target] = transition
            if predicate(lts.state(target)):
                return _unwind(parents, target)
            queue.append(target)
    return None


def _unwind(parents: Dict[int, Transition], sid: int) -> List[Transition]:
    path: List[Transition] = []
    current = sid
    while current in parents:
        transition = parents[current]
        path.append(transition)
        current = transition.source
    path.reverse()
    return path


def path_description(path: Sequence[Transition]) -> str:
    """Render a transition path for reports and counterexamples."""
    if not path:
        return "<initial state>"
    return "\n".join(t.describe() for t in path)


def identification_report(lts: LTS) -> Dict[str, Dict[str, Set[str]]]:
    """actor -> {'has': fields, 'could': fields} over all reachable
    states — who can identify what, anywhere in the service's course.

    The union over states commutes with the per-actor union, so the
    reachable vectors are OR-folded into one mask and decoded once —
    not one has/could probe per (state, actor, field).
    """
    registry = lts.registry
    report: Dict[str, Dict[str, Set[str]]] = {
        actor: {"has": set(), "could": set()}
        for actor in registry.actors
    }
    combined, masks = 0, lts.masks
    for sid in reachable_states(lts):
        combined |= masks[sid]
    while combined:
        low = combined & -combined
        combined ^= low
        variable = registry.variable_at(low.bit_length() - 1)
        report[variable.actor][variable.kind.value].add(variable.field)
    return report


def actors_that_can_identify(lts: LTS, field: str,
                             include_could: bool = True) -> Set[str]:
    """Actors that (could) identify ``field`` in some reachable state."""
    report = identification_report(lts)
    result = set()
    for actor, view in report.items():
        if field in view["has"]:
            result.add(actor)
        elif include_could and field in view["could"]:
            result.add(actor)
    return result


def first_state_where_identified(lts: LTS, actor: str, field: str,
                                 kind: VarKind = VarKind.HAS
                                 ) -> Optional[List[Transition]]:
    """Witness path to the first state where ``actor`` has (or could
    have) identified ``field``; ``None`` if that never happens."""
    def predicate(state: State) -> bool:
        return state.vector.get(kind, actor, field)
    return shortest_path_to(lts, predicate)
