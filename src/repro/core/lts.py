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

An LTS is built by appending states and transitions. :meth:`LTS.freeze`
makes it read-only, so one instance can serve many analyses and
threads (the engine's LTS memo and the monitor pool share frozen
LTSs); writes on it raise. An analysis that adds to an LTS (the
pseudonymisation check) works on a :meth:`LTS.fork`: a writable copy
that shares the state and transition objects and owns only their
lists. Adjacency (``transitions_from`` and friends) is built in one
pass on first read and dropped on the next write, so an LTS that is
never walked by state never pays for it.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple, Union

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
        # Lists while the LTS is being built; a read swaps each for a
        # tuple (the view it hands out), and the next write swaps it
        # back. A frozen LTS keeps its tuples for good.
        self._states: Union[List[State], Tuple[State, ...]] = []
        self._by_key: Dict[object, int] = {}
        self._transitions: Union[List[Transition],
                                 Tuple[Transition, ...]] = []
        self._initial: Optional[int] = None
        self._frozen = False
        # (outgoing, incoming, successors, predecessors), each a tuple
        # indexed by sid; built on the first adjacency read, dropped
        # on every write.
        self._adjacency: Optional[Tuple[tuple, tuple, tuple, tuple]] = None

    def __getstate__(self) -> dict:
        # The adjacency is a cache, not content, and list-or-tuple is
        # read history: an LTS pickles to the same bytes however much
        # it has been read.
        state = self.__dict__.copy()
        state.update(_states=tuple(self._states),
                     _transitions=tuple(self._transitions),
                     _adjacency=None)
        return state

    # -- construction -----------------------------------------------------

    @property
    def registry(self):
        return self._registry

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "LTS":
        """Make this LTS read-only, so it can be shared; returns it.

        Writes then raise :class:`ModelError`; :meth:`fork` gives a
        writable copy.
        """
        self._states = tuple(self._states)
        self._transitions = tuple(self._transitions)
        self._frozen = True
        return self

    def fork(self) -> "LTS":
        """A writable LTS with this one's content.

        The fork shares the :class:`State` and :class:`Transition`
        objects but owns its state list, transition list and key
        index, so what it adds never shows in this LTS (and neither
        LTS sees the other's adjacency cache).
        """
        fork = LTS(self._registry)
        fork._states = list(self._states)
        fork._by_key = dict(self._by_key)
        fork._transitions = list(self._transitions)
        fork._initial = self._initial
        return fork

    def _check_writable(self) -> None:
        if self._frozen:
            raise ModelError("frozen LTS; fork() it")

    def add_state(self, key, vector: PrivacyVector,
                  info: Optional[dict] = None) -> Tuple[int, bool]:
        """Add (or find) the state with configuration ``key``.

        Returns ``(sid, created)``.
        """
        self._check_writable()
        existing = self._by_key.get(key)
        if existing is not None:
            return existing, False
        states = self._states
        if type(states) is tuple:
            states = self._states = list(states)
        sid = len(states)
        states.append(State(sid, key, vector, info))
        self._by_key[key] = sid
        self._adjacency = None
        if self._initial is None:
            self._initial = sid
        return sid, True

    def set_initial(self, sid: int) -> None:
        self._check_writable()
        self._check_sid(sid)
        self._initial = sid

    def add_transition(self, source: int, target: int,
                       label: TransitionLabel,
                       kind: TransitionKind = TransitionKind.FLOW
                       ) -> Transition:
        transitions = self._transitions
        if type(transitions) is tuple:
            # Read since the last write, or frozen (always tuples).
            self._check_writable()
            transitions = self._transitions = list(transitions)
        self._check_sid(source)
        self._check_sid(target)
        transition = Transition(len(transitions), source, target,
                                label, kind)
        transitions.append(transition)
        self._adjacency = None
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
        states = self._states
        if type(states) is not tuple:
            states = self._states = tuple(states)
        return states

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        transitions = self._transitions
        if type(transitions) is not tuple:
            transitions = self._transitions = tuple(transitions)
        return transitions

    def transition(self, tid: int) -> Transition:
        if not 0 <= tid < len(self._transitions):
            raise ModelError(f"unknown transition id {tid}")
        return self._transitions[tid]

    def _adjacency_of(self, index: int, sid: int) -> tuple:
        """Row ``sid`` of adjacency table ``index``, building all four
        tables in one pass (transitions in tid order) on first use.

        Concurrent first reads of a frozen LTS may each build them;
        the builds are equal and the store is one assignment."""
        self._check_sid(sid)
        tables = self._adjacency
        if tables is None:
            outgoing: List[List[Transition]] = [[] for _ in self._states]
            incoming: List[List[Transition]] = [[] for _ in self._states]
            for transition in self._transitions:
                outgoing[transition.source].append(transition)
                incoming[transition.target].append(transition)
            out_rows = tuple(map(tuple, outgoing))
            in_rows = tuple(map(tuple, incoming))
            tables = self._adjacency = (
                out_rows, in_rows,
                tuple(tuple(t.target for t in row) for row in out_rows),
                tuple(tuple(t.source for t in row) for row in in_rows))
        return tables[index][sid]

    def transitions_from(self, sid: int) -> Tuple[Transition, ...]:
        return self._adjacency_of(0, sid)

    def transitions_to(self, sid: int) -> Tuple[Transition, ...]:
        return self._adjacency_of(1, sid)

    def successors(self, sid: int) -> Tuple[int, ...]:
        return self._adjacency_of(2, sid)

    def predecessors(self, sid: int) -> Tuple[int, ...]:
        return self._adjacency_of(3, sid)

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
