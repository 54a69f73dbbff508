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

An LTS is stored as int columns: per state its key (for a generated
LTS, the packed :class:`Configuration`) and privacy mask; per
transition its source, target and row in a small table of
``(TransitionLabel, TransitionKind)`` pairs. Generation only appends
ints and the hot analyses read the columns. :class:`State` and
:class:`Transition` objects are views, built on first read and cached
one per row, so every reader gets the same objects; adjacency
(``transitions_from`` and friends) is a CSR index built on first read.
:meth:`LTS.freeze` makes an LTS read-only, so one instance can serve
many analyses and threads (views are built under a lock); an analysis
that adds to it (the pseudonymisation check) works on a
:meth:`LTS.fork`, an overlay owning only the rows it appends.
"""

from __future__ import annotations

import enum
import threading
from collections import Counter
from collections.abc import Mapping as MappingABC
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ModelError
from .actions import ActionType, TransitionLabel
from .statevars import PrivacyVector


class TransitionKind(enum.Enum):
    FLOW = "flow"
    POTENTIAL = "potential"
    RISK = "risk"


class Configuration:
    """The hashable generation state: one packed integer plus the
    :class:`~repro.core.generation.StateCodec` that gives its bits
    meaning.

    Equality and hashing are single-int operations;
    ``holdings``/``contents``/``fired`` decode the historical
    frozenset views on demand.
    """

    __slots__ = ("packed", "codec")

    def __init__(self, codec, packed: int = 0):
        self.packed = packed
        self.codec = codec

    @property
    def has_mask(self) -> int:
        """Bits of the registry's state variables (has positions)."""
        return self.packed & self.codec.var_mask

    @property
    def holdings(self) -> frozenset:
        return self.codec.decode_holdings(self.packed)

    @property
    def contents(self) -> frozenset:
        return self.codec.decode_contents(self.packed)

    @property
    def fired(self) -> frozenset:
        return self.codec.decode_fired(self.packed)

    def with_has_bits(self, mask: int) -> "Configuration":
        """A configuration with extra registry (has) bits set —
        holdings/contents/fired untouched. Used by analyses that
        inject hypothetical identification states (Fig. 4)."""
        return Configuration(self.codec,
                             self.packed | (mask & self.codec.var_mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.packed == other.packed

    def __hash__(self) -> int:
        return hash(self.packed)

    def __repr__(self) -> str:
        return (f"Configuration(holdings={sorted(self.holdings)}, "
                f"contents={sorted(self.contents)}, "
                f"fired={sorted(self.fired)})")


class ConfigurationInfo(MappingABC):
    """Lazy ``State.info`` view over a configuration: a mapping of
    ``holdings``/``contents``/``fired`` frozensets, each decoded from
    the packed state only when read."""

    __slots__ = ("configuration",)
    _KEYS = ("holdings", "contents", "fired")

    def __init__(self, configuration: Configuration):
        self.configuration = configuration

    def __getitem__(self, key):
        if key not in self._KEYS:
            raise KeyError(key)
        return getattr(self.configuration, key)

    def __iter__(self):
        return iter(self._KEYS)

    def __len__(self) -> int:
        return len(self._KEYS)

    def __repr__(self) -> str:
        return repr(dict(self))


class State:
    """One LTS state (a view of one state row).

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
    """One labelled transition (a view of one transition row).
    Analyses key their risk annotations on ``tid`` rather than writing
    them here."""

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


def _column(name: str, table: int, doc: str) -> property:
    """A column: the own list or, on a fork, the base's rows below the
    fork point joined with the own ones on first read."""
    def read(self) -> list:
        if self._base is None:
            return getattr(self, name)
        joined = self._joined.get(name)
        if joined is None:
            joined = self._joined[name] = getattr(self._base, name[1:])[
                :self._base_rows[table]] + getattr(self, name)
        return joined
    return property(read, doc=doc)


class LTS:
    """A finite labelled transition system over privacy states.

    The column properties (:attr:`masks`, :attr:`sources`,
    :attr:`targets`, :attr:`label_indices`, :attr:`labels`) hand out
    the stored sequences for fast reading: never write to them.
    """

    #: What pickles: the columns, not views, lock or read history (a
    #: fork pickles its base along).
    _CONTENT = ("_registry", "_codec", "_keys", "_masks", "_infos",
                "_sources", "_targets", "_label_indices", "_labels",
                "_initial", "_frozen", "_base", "_base_rows")

    def __init__(self, registry):
        self._registry = registry
        # The StateCodec whose packed ints a generated LTS's keys are.
        self._codec = None
        self._keys: list = []
        self._masks: List[int] = []
        self._infos: Dict[int, object] = {}   # sid -> hand-built info
        self._by_key: dict = {}
        self._sources: List[int] = []
        self._targets: List[int] = []
        self._label_indices: List[int] = []
        self._labels: List[Tuple[TransitionLabel, TransitionKind]] = []
        self._label_ids: Optional[dict] = None  # built on first add
        self._initial: Optional[int] = None
        self._frozen = False
        # A fork's (state, transition) rows below these are its base's.
        self._base: Optional[LTS] = None
        self._base_rows = (0, 0)
        # View objects of own rows (by sid, by tid) stay valid across
        # writes; what _stale() drops does not.
        self._lock = threading.Lock()
        self._objects: Tuple[dict, dict] = ({}, {})
        self._stale()

    @classmethod
    def _generated(cls, registry, codec, keys, masks, by_key, sources,
                   targets, label_indices, labels) -> "LTS":
        """An LTS over columns the generator filled (initial state 0)."""
        lts = cls(registry)
        lts._codec, lts._initial = codec, 0
        lts._keys, lts._masks, lts._by_key = keys, masks, by_key
        lts._sources, lts._targets = sources, targets
        lts._label_indices, lts._labels = label_indices, labels
        return lts

    def _stale(self) -> None:
        self._tuples: List[Optional[tuple]] = [None, None]
        self._joined: Dict[str, list] = {}
        self._adjacency: Optional[tuple] = None

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._CONTENT}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["_registry"])
        self.__dict__.update(state)
        self._by_key = {key: sid for sid, key in
                        enumerate(self._keys, self._base_rows[0])}

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
        self._frozen = True
        return self

    def fork(self) -> "LTS":
        """A writable LTS with this one's content, as an overlay.

        The fork reads this LTS's rows (and their view objects) up to
        its current length and owns only what is appended to it, so
        what it adds never shows in this LTS or in a sibling fork.
        """
        fork = LTS(self._registry)
        fork._codec, fork._base, fork._initial = \
            self._codec, self, self._initial
        fork._base_rows = (len(self), self.transition_count)
        fork._labels = list(self._labels)
        return fork

    def _check_writable(self) -> None:
        if self._frozen:
            raise ModelError("frozen LTS; fork() it")

    def _row_key(self, key):
        """The stored key: a generated LTS stores configurations packed."""
        if self._codec is not None and type(key) is Configuration:
            return key.packed
        return key

    def add_state(self, key, vector: PrivacyVector,
                  info: Optional[dict] = None) -> Tuple[int, bool]:
        """Add (or find) the state with configuration ``key``.

        Returns ``(sid, created)``. The ``info`` of a packed
        :class:`Configuration` key is not stored: its state's view
        decodes a lazy :class:`ConfigurationInfo`.
        """
        self._check_writable()
        row_key = self._row_key(key)
        existing = self._sid_of(row_key)
        if existing is not None:
            return existing, False
        sid = len(self)
        self._keys.append(row_key)
        self._masks.append(vector.mask)
        if info is not None and row_key is key:
            self._infos[sid] = info
        self._by_key[row_key] = sid
        self._stale()
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
        self._check_writable()
        self._check_sid(source)
        self._check_sid(target)
        if self._label_ids is None:
            self._label_ids = {pair: index for index, pair
                               in enumerate(self._labels)}
        index = self._label_ids.setdefault((label, kind), len(self._labels))
        if index == len(self._labels):
            self._labels.append((label, kind))
        self._sources.append(source)
        self._targets.append(target)
        self._label_indices.append(index)
        self._stale()
        return self._view(1, self.transition_count - 1)

    def _check_sid(self, sid: int) -> None:
        if not 0 <= sid < len(self):
            raise ModelError(f"unknown state id {sid}")

    def _sid_of(self, row_key) -> Optional[int]:
        sid = self._by_key.get(row_key)
        if sid is None and self._base is not None:
            sid = self._base._sid_of(row_key)
            if sid is not None and sid >= self._base_rows[0]:
                sid = None
        return sid

    # -- columns ------------------------------------------------------------

    masks = _column("_masks", 0, "Each state's privacy-vector mask, by sid.")
    sources = _column("_sources", 1, "Each transition's source sid, by tid.")
    targets = _column("_targets", 1, "Each transition's target sid, by tid.")
    label_indices = _column("_label_indices", 1,
                            "Each transition's row in :attr:`labels`.")

    @property
    def labels(self) -> Sequence[Tuple[TransitionLabel, TransitionKind]]:
        """The ``(label, kind)`` pairs :attr:`label_indices` index."""
        return self._labels

    @property
    def transition_count(self) -> int:
        return self._base_rows[1] + len(self._sources)

    def __len__(self) -> int:
        return self._base_rows[0] + len(self._keys)

    # -- views --------------------------------------------------------------

    def _make_state(self, sid: int) -> State:
        row = sid - self._base_rows[0]
        key, info = self._keys[row], self._infos.get(sid)
        if self._codec is not None and type(key) is int:
            key = Configuration(self._codec, key)
            info = ConfigurationInfo(key)
        return State(sid, key, PrivacyVector(self._registry,
                                             self._masks[row]), info)

    def _make_transition(self, tid: int) -> Transition:
        row = tid - self._base_rows[1]
        label, kind = self._labels[self._label_indices[row]]
        return Transition(tid, self._sources[row], self._targets[row],
                          label, kind)

    def _views(self, table: int, ids) -> list:
        """The view objects of rows ``ids`` of ``table`` (0: states,
        1: transitions): a fork's base rows are the base's objects, and
        own ones are built on first read under the lock, so concurrent
        readers get the same objects."""
        base_rows, objects = self._base_rows[table], self._objects[table]
        make = self._make_transition if table else self._make_state
        with self._lock:
            return [self._base._view(table, row) if row < base_rows
                    else objects.get(row) or objects.setdefault(
                        row, make(row)) for row in ids]

    def _view(self, table: int, row: int):
        view = self._objects[table].get(row)
        return view if view is not None else self._views(table, (row,))[0]

    def _all(self, table: int, count: int) -> tuple:
        if self._tuples[table] is None:
            self._tuples[table] = tuple(self._views(table, range(count)))
        return self._tuples[table]

    @property
    def initial(self) -> State:
        if self._initial is None:
            raise ModelError("LTS has no states")
        return self._view(0, self._initial)

    def state(self, sid: int) -> State:
        self._check_sid(sid)
        return self._view(0, sid)

    def state_by_key(self, key) -> Optional[State]:
        sid = self._sid_of(self._row_key(key))
        return self._view(0, sid) if sid is not None else None

    @property
    def states(self) -> Tuple[State, ...]:
        return self._all(0, len(self))

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        return self._all(1, self.transition_count)

    def transition(self, tid: int) -> Transition:
        if not 0 <= tid < self.transition_count:
            raise ModelError(f"unknown transition id {tid}")
        return self._view(1, tid)

    def transitions_at(self, tids: Sequence[int]) -> List[Transition]:
        """``[transition(tid) for tid in tids]``, built in one pass."""
        if tids and not 0 <= min(tids) <= max(tids) < self.transition_count:
            raise ModelError(f"unknown transition id in {tids!r}")
        return self._views(1, tids)

    def _adjacent(self, outgoing: bool, ids: bool, sid: int) -> tuple:
        """Row ``sid`` of an adjacency table: transitions (or, with
        ``ids``, neighbour sids) in tid order, from CSR indexes built
        on first use; each row is built on its first read. Concurrent
        first reads may each build the indexes: the builds are equal."""
        self._check_sid(sid)
        if self._adjacency is None:
            self._adjacency = (_csr(self.sources, len(self)),
                               _csr(self.targets, len(self)), {})
        out_index, in_index, rows = self._adjacency
        row = rows.get((outgoing, ids, sid))
        if row is None:
            offsets, order = out_index if outgoing else in_index
            tids = order[offsets[sid]:offsets[sid + 1]]
            ends = self.targets if outgoing else self.sources
            row = rows.setdefault((outgoing, ids, sid), tuple(
                ends[tid] for tid in tids) if ids else tuple(
                    self._views(1, tids)))
        return row

    def transitions_from(self, sid: int) -> Tuple[Transition, ...]:
        return self._adjacent(True, False, sid)

    def transitions_to(self, sid: int) -> Tuple[Transition, ...]:
        return self._adjacent(False, False, sid)

    def successors(self, sid: int) -> Tuple[int, ...]:
        return self._adjacent(True, True, sid)

    def predecessors(self, sid: int) -> Tuple[int, ...]:
        return self._adjacent(False, True, sid)

    # -- filtered views ----------------------------------------------------------------

    def _labelled(self, wanted: Callable[[TransitionLabel,
                                          TransitionKind], bool]
                  ) -> Tuple[Transition, ...]:
        """Transitions whose ``(label, kind)`` passes ``wanted``: only
        the label table is tested, and only matching rows get views."""
        rows = {index for index, pair in enumerate(self._labels)
                if wanted(*pair)}
        return tuple(self._views(1, [
            tid for tid, index in enumerate(self.label_indices)
            if index in rows]))

    def transitions_of_kind(self, kind: TransitionKind
                            ) -> Tuple[Transition, ...]:
        return self._labelled(lambda label, k: k is kind)

    def transitions_by_action(self, action: ActionType
                              ) -> Tuple[Transition, ...]:
        return self._labelled(lambda label, _: label.action is action)

    def transitions_by_actor(self, actor: str) -> Tuple[Transition, ...]:
        return self._labelled(lambda label, _: label.actor == actor)

    def find_transitions(self, predicate: Callable[[Transition], bool]
                         ) -> Tuple[Transition, ...]:
        return tuple(t for t in self.transitions if predicate(t))

    # -- statistics ---------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        actions: Dict[str, int] = Counter()
        kinds: Dict[str, int] = Counter()
        # Counters keep first-occurrence order: the dicts list actions
        # and kinds in the order transitions first show them.
        for index, count in Counter(self.label_indices).items():
            label, kind = self._labels[index]
            actions[label.action.value] += count
            kinds[kind.value] += count
        return {"states": len(self), "transitions": self.transition_count,
                "variables": len(self._registry), "actions": dict(actions),
                "kinds": dict(kinds)}

    def __repr__(self) -> str:
        return (
            f"LTS(states={len(self)}, "
            f"transitions={self.transition_count}, "
            f"variables={len(self._registry)})"
        )


def _csr(ends: Sequence[int], count: int) -> Tuple[List[int], List[int]]:
    """(offsets, tids) of a CSR index over ``ends``: the tids ending at
    sid ``s`` are ``tids[offsets[s]:offsets[s + 1]]``, in tid order."""
    sizes = [0] * (count + 1)
    for end in ends:
        sizes[end + 1] += 1
    return list(accumulate(sizes)), sorted(range(len(ends)),
                                           key=ends.__getitem__)
