"""The Labelled Transition System of user privacy (paper II.B).

States represent the user's privacy (a :class:`PrivacyVector` over the
has/could variables plus the underlying system configuration that
produced it); transitions are privacy actions with full labels. The
paper's optional "privacy risk measure" label is not stored here: risk
analyses read the LTS and return their
:class:`~repro.core.risk.report.RiskAnnotation` objects as a side
table keyed by transition id, so one LTS can carry any number of
users' analyses.

Transitions carry a *kind* so analyses and rendering can distinguish:

- ``flow``: generated from a data-flow diagram flow;
- ``potential``: a read that the access policy permits but no flow
  prescribes (how the Administrator's EHR access shows up in IV.A);
- ``risk``: an inference risk transition added by pseudonymisation
  analysis (the dotted lines of Fig. 4).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ModelError
from .actions import ActionType, TransitionLabel
from .statevars import PrivacyVector


class TransitionKind(enum.Enum):
    FLOW = "flow"
    POTENTIAL = "potential"
    RISK = "risk"


class State:
    """One LTS state.

    ``key`` is the hashable system configuration used for
    deduplication during generation; ``vector`` is the privacy
    labelling derived from it.
    """

    __slots__ = ("sid", "key", "vector", "info")

    def __init__(self, sid: int, key, vector: PrivacyVector,
                 info: Optional[dict] = None):
        self.sid = sid
        self.key = key
        self.vector = vector
        self.info = info if info is not None else {}

    def name(self) -> str:
        return f"s{self.sid}"

    def __repr__(self) -> str:
        return f"State({self.name()}, {self.vector!r})"


class Transition:
    """One labelled transition. Analyses key their risk annotations on
    ``tid`` rather than writing them here."""

    __slots__ = ("tid", "source", "target", "label", "kind")

    def __init__(self, tid: int, source: int, target: int,
                 label: TransitionLabel,
                 kind: TransitionKind = TransitionKind.FLOW):
        self.tid = tid
        self.source = source
        self.target = target
        self.label = label
        self.kind = kind

    def describe(self) -> str:
        text = f"s{self.source} --{self.label.describe()}--> s{self.target}"
        if self.kind is not TransitionKind.FLOW:
            text += f" [{self.kind.value}]"
        return text

    def __repr__(self) -> str:
        return f"Transition({self.describe()})"


class LTS:
    """A finite labelled transition system over privacy states."""

    def __init__(self, registry):
        self._registry = registry
        self._states: List[State] = []
        self._by_key: Dict[object, int] = {}
        self._transitions: List[Transition] = []
        self._outgoing: Dict[int, List[int]] = {}
        self._incoming: Dict[int, List[int]] = {}
        self._initial: Optional[int] = None
        # Materialised views, invalidated on append: analyzers iterate
        # states/transitions/adjacency in loops, and rebuilding a
        # fresh tuple per access dominated their cost.
        self._states_view: Optional[Tuple[State, ...]] = None
        self._transitions_view: Optional[Tuple[Transition, ...]] = None
        self._out_views: Dict[int, Tuple[Transition, ...]] = {}
        self._in_views: Dict[int, Tuple[Transition, ...]] = {}
        self._succ_views: Dict[int, Tuple[int, ...]] = {}
        self._pred_views: Dict[int, Tuple[int, ...]] = {}

    def __getstate__(self) -> dict:
        # The views are caches, not content: an LTS pickles to the
        # same bytes however much it has been read.
        state = self.__dict__.copy()
        state.update(_states_view=None, _transitions_view=None,
                     _out_views={}, _in_views={}, _succ_views={},
                     _pred_views={})
        return state

    # -- construction -----------------------------------------------------

    @property
    def registry(self):
        return self._registry

    def add_state(self, key, vector: PrivacyVector,
                  info: Optional[dict] = None) -> Tuple[int, bool]:
        """Add (or find) the state with configuration ``key``.

        Returns ``(sid, created)``.
        """
        existing = self._by_key.get(key)
        if existing is not None:
            return existing, False
        sid = len(self._states)
        state = State(sid, key, vector, info)
        self._states.append(state)
        self._states_view = None
        self._by_key[key] = sid
        self._outgoing[sid] = []
        self._incoming[sid] = []
        if self._initial is None:
            self._initial = sid
        return sid, True

    def set_initial(self, sid: int) -> None:
        self._check_sid(sid)
        self._initial = sid

    def add_transition(self, source: int, target: int,
                       label: TransitionLabel,
                       kind: TransitionKind = TransitionKind.FLOW
                       ) -> Transition:
        self._check_sid(source)
        self._check_sid(target)
        transition = Transition(len(self._transitions), source, target,
                                label, kind)
        self._transitions.append(transition)
        self._transitions_view = None
        self._outgoing[source].append(transition.tid)
        self._incoming[target].append(transition.tid)
        self._out_views.pop(source, None)
        self._succ_views.pop(source, None)
        self._in_views.pop(target, None)
        self._pred_views.pop(target, None)
        return transition

    def _check_sid(self, sid: int) -> None:
        if not 0 <= sid < len(self._states):
            raise ModelError(f"unknown state id {sid}")

    # -- access ------------------------------------------------------------------

    @property
    def initial(self) -> State:
        if self._initial is None:
            raise ModelError("LTS has no states")
        return self._states[self._initial]

    def state(self, sid: int) -> State:
        self._check_sid(sid)
        return self._states[sid]

    def state_by_key(self, key) -> Optional[State]:
        sid = self._by_key.get(key)
        return self._states[sid] if sid is not None else None

    @property
    def states(self) -> Tuple[State, ...]:
        view = self._states_view
        if view is None:
            view = self._states_view = tuple(self._states)
        return view

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        view = self._transitions_view
        if view is None:
            view = self._transitions_view = tuple(self._transitions)
        return view

    def transition(self, tid: int) -> Transition:
        if not 0 <= tid < len(self._transitions):
            raise ModelError(f"unknown transition id {tid}")
        return self._transitions[tid]

    def transitions_from(self, sid: int) -> Tuple[Transition, ...]:
        view = self._out_views.get(sid)
        if view is None:
            self._check_sid(sid)
            view = tuple(self._transitions[t]
                         for t in self._outgoing[sid])
            self._out_views[sid] = view
        return view

    def transitions_to(self, sid: int) -> Tuple[Transition, ...]:
        view = self._in_views.get(sid)
        if view is None:
            self._check_sid(sid)
            view = tuple(self._transitions[t]
                         for t in self._incoming[sid])
            self._in_views[sid] = view
        return view

    def successors(self, sid: int) -> Tuple[int, ...]:
        view = self._succ_views.get(sid)
        if view is None:
            view = tuple(t.target for t in self.transitions_from(sid))
            self._succ_views[sid] = view
        return view

    def predecessors(self, sid: int) -> Tuple[int, ...]:
        view = self._pred_views.get(sid)
        if view is None:
            view = tuple(t.source for t in self.transitions_to(sid))
            self._pred_views[sid] = view
        return view

    # -- filtered views ----------------------------------------------------------------

    def transitions_of_kind(self, kind: TransitionKind
                            ) -> Tuple[Transition, ...]:
        return tuple(t for t in self._transitions if t.kind is kind)

    def transitions_by_action(self, action: ActionType
                              ) -> Tuple[Transition, ...]:
        return tuple(t for t in self._transitions
                     if t.label.action is action)

    def transitions_by_actor(self, actor: str) -> Tuple[Transition, ...]:
        return tuple(t for t in self._transitions
                     if t.label.actor == actor)

    def find_transitions(self, predicate: Callable[[Transition], bool]
                         ) -> Tuple[Transition, ...]:
        return tuple(t for t in self._transitions if predicate(t))

    # -- statistics ---------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        actions: Dict[str, int] = {}
        kinds: Dict[str, int] = {}
        for transition in self._transitions:
            action_name = transition.label.action.value
            actions[action_name] = actions.get(action_name, 0) + 1
            kind_name = transition.kind.value
            kinds[kind_name] = kinds.get(kind_name, 0) + 1
        return {
            "states": len(self._states),
            "transitions": len(self._transitions),
            "variables": len(self._registry),
            "actions": actions,
            "kinds": kinds,
        }

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return (
            f"LTS(states={len(self._states)}, "
            f"transitions={len(self._transitions)}, "
            f"variables={len(self._registry)})"
        )
