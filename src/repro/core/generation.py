"""Automatic generation of the privacy LTS from a system model.

Implements the extraction rules of section II.B:

- user -> actor        = ``collect``
- actor -> actor       = ``disclose``
- actor -> datastore   = ``create`` (``anon`` for anonymised stores)
- datastore -> actor   = ``read``
- "multiple flows within a service ... can be executed independently,
  provided the start node has the correct data to flow".

The *generation state* (the dedup key of LTS states) is the full
system configuration:

- ``has``: which actor has identified which field (sticky),
- ``holdings``: which actor currently holds which fields,
- ``contents``: which datastore currently stores which fields,
- ``fired``: which flows have already executed (each flow fires at
  most once per service session).

The ``could(actor, field)`` half of the privacy vector is *derived*:
true iff some datastore holds the field and the access policy grants
the actor read on it. This makes "the potential for a user's personal
information to be shared" (the paper's key extension over prior FSM
models) a direct function of the configuration.

Because ``fired`` and ``has`` only grow and ``contents`` only shrinks
outside flow execution, the generated LTS is always a finite DAG; a
``max_states`` cap still guards against combinatorial interleavings.

Representation
--------------
Generation is the engine's hottest path, so the whole configuration is
compiled to **one integer**: a :class:`StateCodec` interns every
has/could variable, ``(actor, field)`` holding, ``(store, field)``
content and flow key into a fixed bit position, and every per-flow
effect is precomputed at compile time as OR/AND-NOT masks. Applying a
flow is a single ``|``; readiness is one masked compare; state dedup
is an int-keyed dictionary probe. Generation only appends ints to
the LTS columns (packed keys, privacy masks, transition sources,
targets and label indices; see :mod:`repro.core.lts`), and
:class:`Configuration` decodes a packed key's frozenset views
(``holdings``, ``contents``, ``fired``) when a state view is read —
the observable LTS (states, vectors, transitions, ordering) is
identical to the historical frozenset implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..dfd.model import Flow, NodeKind, SystemModel, USER
from ..errors import GenerationError, ModelError, StateLimitExceeded
from ..schema import anon_name
from .actions import ActionType, TransitionLabel
from .lts import (  # Configuration* re-exported: generation's key types
    LTS, Configuration, ConfigurationInfo, TransitionKind)
from .statevars import VariableRegistry

_FLOW = TransitionKind.FLOW
Holding = Tuple[str, str]           # (actor, field)
StoredField = Tuple[str, str]       # (store, field)
FlowKey = Tuple[str, int]           # (service, order)


class StateCodec:
    """Bit layout of the packed generation state.

    One integer holds four segments, low to high:

    1. the registry's has/could variables (``could`` positions stay
       zero in configurations — ``could`` is derived),
    2. one bit per ``(actor, field)`` holding,
    3. one bit per ``(store, field)`` content — schema fields plus any
       extra field an inbound flow writes, in sorted-field order
       within each sorted store so decoded field lists come out
       sorted,
    4. one bit per flow key.

    Built once per :class:`ModelGenerator` from the model structure;
    every configuration of that generator's LTSs shares it.
    """

    __slots__ = ("registry", "var_mask", "hold_off", "cont_off",
                 "cont_mask", "fired_off", "content_pairs",
                 "content_bit", "sorted_stores", "flow_keys",
                 "flow_bit", "holding_bit", "never_bit")

    def __init__(self, system: SystemModel, registry: VariableRegistry):
        self.registry = registry
        var_bits = len(registry)
        self.var_mask = (1 << var_bits) - 1
        self.hold_off = var_bits
        self.holding_bit: Dict[Holding, int] = {
            pair: 1 << (var_bits + index)
            for index, pair in enumerate(registry.pairs)}
        self.cont_off = var_bits + registry.pair_count

        # Content universe: per store, its schema fields plus whatever
        # inbound flows write (validation normally forbids non-schema
        # writes, but generation never required it).
        extra: Dict[str, set] = {}
        for flow in system.all_flows():
            if flow.target in system.datastores and \
                    flow.source in system.actors:
                store = system.datastores[flow.target]
                for field_name in flow.fields:
                    if store.anonymised and \
                            anon_name(field_name) in store.schema:
                        field_name = anon_name(field_name)
                    extra.setdefault(flow.target, set()).add(field_name)
        self.content_pairs: List[StoredField] = []
        self.content_bit: Dict[StoredField, int] = {}
        self.sorted_stores: List[Tuple[str, int]] = []
        for store_name in sorted(system.datastores):
            names = set(system.datastores[store_name].field_names())
            names |= extra.get(store_name, set())
            store_mask = 0
            for field_name in sorted(names):
                bit = 1 << (self.cont_off + len(self.content_pairs))
                self.content_bit[(store_name, field_name)] = bit
                self.content_pairs.append((store_name, field_name))
                store_mask |= bit
            self.sorted_stores.append((store_name, store_mask))
        self.cont_mask = ((1 << len(self.content_pairs)) - 1) \
            << self.cont_off

        self.fired_off = self.cont_off + len(self.content_pairs)
        self.flow_keys: List[FlowKey] = []
        self.flow_bit: Dict[FlowKey, int] = {}
        for flow in system.all_flows():
            self.flow_bit[flow.key] = 1 << (
                self.fired_off + len(self.flow_keys))
            self.flow_keys.append(flow.key)
        # Above every segment, so no state sets it: the need of a flow
        # that can never be ready.
        self.never_bit = 1 << (self.fired_off + len(self.flow_keys))

    # -- decoding ----------------------------------------------------------

    def _decode(self, bits: int, offset: int, table) -> frozenset:
        decoded = []
        while bits:
            low = bits & -bits
            bits ^= low
            decoded.append(table[low.bit_length() - 1 - offset])
        return frozenset(decoded)

    def decode_holdings(self, packed: int) -> FrozenSet[Holding]:
        bits = (packed >> self.hold_off) & \
            ((1 << self.registry.pair_count) - 1)
        return self._decode(bits, 0, self.registry.pairs)

    def decode_contents(self, packed: int) -> FrozenSet[StoredField]:
        return self._decode(packed & self.cont_mask, self.cont_off,
                            self.content_pairs)

    def decode_fired(self, packed: int) -> FrozenSet[FlowKey]:
        return self._decode(packed >> self.fired_off, 0, self.flow_keys)


@dataclass(frozen=True)
class GenerationOptions:
    """Knobs controlling LTS generation.

    Attributes
    ----------
    services:
        Restrict generation to these services (default: all). This is
        how Fig. 3 generates "only ... the Medical Service process".
    ordering:
        ``'dataflow'`` — any enabled flow may fire (the paper's
        independent execution, the default); ``'sequence'`` — flows of
        a service fire strictly in their numeric order.
    max_states:
        Hard cap on the state count; exceeded -> raise.
    include_potential_reads:
        Also generate ``read`` transitions for actors whose only basis
        is an access-policy grant (no flow). Used by disclosure risk
        analysis; off for the plain service LTS.
    potential_read_actors:
        Restrict potential reads to these actors (default: all).
    include_deletes:
        Generate ``delete`` transitions for actors holding DELETE
        grants on stored fields.
    delete_actors:
        Restrict delete transitions to these actors (default: all).
    initial_store_contents:
        Pre-populated stores: store name -> field names. Models
        analysing a *running* system whose stores already hold data.
    """

    services: Optional[Tuple[str, ...]] = None
    ordering: str = "dataflow"
    max_states: int = 50_000
    include_potential_reads: bool = False
    potential_read_actors: Optional[FrozenSet[str]] = None
    include_deletes: bool = False
    delete_actors: Optional[FrozenSet[str]] = None
    initial_store_contents: Mapping[str, Tuple[str, ...]] = \
        dc_field(default_factory=dict)

    def __post_init__(self):
        if self.ordering not in ("dataflow", "sequence"):
            raise ValueError(
                f"ordering must be 'dataflow' or 'sequence', "
                f"got {self.ordering!r}"
            )
        if self.max_states < 1:
            raise ValueError("max_states must be positive")

    def cache_key(self) -> tuple:
        """A stable, hashable identity for memoising generated LTSs.

        Two option objects with the same key generate identical LTSs
        from the same model, regardless of the iteration order of the
        sets and mappings they were built from.
        """
        return (
            tuple(self.services) if self.services is not None else None,
            self.ordering,
            self.max_states,
            self.include_potential_reads,
            tuple(sorted(self.potential_read_actors))
            if self.potential_read_actors is not None else None,
            self.include_deletes,
            tuple(sorted(self.delete_actors))
            if self.delete_actors is not None else None,
            tuple(sorted(
                (store, tuple(sorted(fields)))
                for store, fields in self.initial_store_contents.items()
            )),
        )


class _FlowRecord:
    """One flow compiled against the codec.

    ``need`` is the readiness mask (holdings or contents bits the
    source must have; the codec's ``never_bit`` when the contents can
    never exist, as for a read of a field no store holds), ``effect``
    the OR-delta of applying the flow (has + holdings + contents +
    fired bits in one integer), ``label`` the — entirely
    state-independent — transition label. ``error`` carries a deferred
    endpoint problem, raised exactly where the frozenset
    implementation used to raise it: once the flow is ready to fire,
    which for an unknown source (an empty need) is whenever the
    unfired flow is even *considered*."""

    __slots__ = ("flow", "fired_bit", "need", "effect", "label", "error")

    def __init__(self, flow: Flow):
        self.flow = flow
        self.fired_bit = 0
        self.need = 0
        self.effect = 0
        self.label: Optional[TransitionLabel] = None
        self.error: Optional[Exception] = None


class ModelGenerator:
    """Generates the privacy LTS of a system model (Step 2).

    All structural interning (the :class:`StateCodec`) happens at
    construction; policy-derived mask tables and per-service flow
    plans compile lazily on first use and are cached for the
    generator's lifetime, so repeated :meth:`generate` calls (and
    repeated option sets) pay the compile cost once.
    """

    def __init__(self, system: SystemModel):
        self.system = system
        self.registry = VariableRegistry(
            system.actor_names(), system.personal_fields())
        self.codec = StateCodec(system, self.registry)
        self._sorted_actors = tuple(sorted(system.actors))
        self._could_cache: Dict[int, int] = {}
        self._could_by_cbit: Optional[List[int]] = None
        self._flow_plans: Dict[Optional[Tuple[str, ...]], tuple] = {}
        self._actor_tables: Dict[str, tuple] = {}
        self._policy_labels: Dict[Tuple[int, str, int], tuple] = {}

    # -- public entry point --------------------------------------------------

    def generate(self, options: Optional[GenerationOptions] = None) -> LTS:
        options = options if options is not None else GenerationOptions()
        records, by_service = self._compiled_flows(options)
        sequence = options.ordering == "sequence"
        groups = by_service if sequence else (records,)
        potential_actors = deletion_actors = ()
        if options.include_potential_reads:
            potential_actors = self._restricted_actors(
                options.potential_read_actors)
        if options.include_deletes:
            deletion_actors = self._restricted_actors(
                options.delete_actors)

        max_states = options.max_states
        var_mask = self.codec.var_mask
        could_mask = self._could_mask
        # The LTS columns: state keys (packed configurations) and
        # privacy masks by sid; transition sources, targets and label
        # indices by tid, over a (label, kind) table interned by label
        # identity (labels are built once per generator).
        initial = self._initial_packed(options)
        keys = [initial]
        masks = [(initial & var_mask) | could_mask(initial)]
        seen: Dict[int, int] = {initial: 0}
        sources, targets, label_indices, labels = [], [], [], []
        label_ids: Dict[int, int] = {}

        # Breadth-first: states are expanded in discovery (sid) order.
        sid = 0
        while sid < len(keys):
            packed = keys[sid]
            successors = self._enabled(packed, groups, sequence)
            successors.extend(self._policy_successors(
                packed, potential_actors, deletion_actors))
            for label, kind, successor in successors:
                target_sid = seen.get(successor)
                if target_sid is None:
                    target_sid = seen[successor] = len(keys)
                    keys.append(successor)
                    masks.append((successor & var_mask)
                                 | could_mask(successor))
                    if len(keys) > max_states:
                        raise StateLimitExceeded(max_states)
                index = label_ids.get(id(label))
                if index is None:
                    index = label_ids[id(label)] = len(labels)
                    labels.append((label, kind))
                sources.append(sid)
                targets.append(target_sid)
                label_indices.append(index)
            sid += 1
        return LTS._generated(self.registry, self.codec, keys, masks, seen,
                              sources, targets, label_indices, labels)

    # -- setup ------------------------------------------------------------------

    def _restricted_actors(self, restriction: Optional[FrozenSet[str]]
                           ) -> Tuple[str, ...]:
        if restriction is None:
            return self._sorted_actors
        return tuple(sorted(restriction))

    def _initial_packed(self, options: GenerationOptions) -> int:
        packed = 0
        for store_name, fields in options.initial_store_contents.items():
            store = self.system.datastore(store_name)
            for field_name in fields:
                if field_name not in store.schema:
                    raise GenerationError(
                        f"initial contents: field {field_name!r} is not "
                        f"in datastore {store_name!r}"
                    )
                packed |= self.codec.content_bit[(store_name, field_name)]
        return packed

    # -- flow compilation --------------------------------------------------------

    def _compiled_flows(self, options: GenerationOptions):
        """(records, per-selection record groups) for the selected
        services, compiled once per distinct selection.

        One group per *selection entry* — not per distinct service
        name — so a service selected twice contributes its flows (and,
        in sequence mode, its next-order emission) twice, exactly as
        the historical flat flow list did."""
        plan = self._flow_plans.get(options.services)
        if plan is None:
            names = options.services if options.services is not None \
                else tuple(self.system.services)
            groups = [tuple(self._compile_flow(flow)
                            for flow in self.system.service(name).flows)
                      for name in names]
            records = tuple(record for group in groups for record in group)
            if not records:
                raise GenerationError(
                    "no flows selected for generation; check the "
                    f"services option (selected: {list(names)})"
                )
            plan = self._flow_plans[options.services] = (
                records, tuple(group for group in groups if group))
        return plan

    def _compile_flow(self, flow: Flow) -> _FlowRecord:
        record = _FlowRecord(flow)
        record.fired_bit = self.codec.flow_bit[flow.key]
        try:
            source_kind = self.system.node_kind(flow.source)
        except ModelError as error:
            record.error = error
            return record
        self._compile_need(record, source_kind)
        try:
            target_kind = self.system.node_kind(flow.target)
        except ModelError as error:
            record.error = error
            return record
        self._compile_effect(record, source_kind, target_kind)
        return record

    def _compile_need(self, record: _FlowRecord,
                      source_kind: NodeKind) -> None:
        flow = record.flow
        if source_kind is NodeKind.ACTOR:
            originated = set(self.system.actors[flow.source].originates)
            for field_name in flow.fields:
                if field_name not in originated:
                    record.need |= self.codec.holding_bit[
                        (flow.source, field_name)]
        elif source_kind is NodeKind.DATASTORE:
            for field_name in flow.fields:
                record.need |= self.codec.content_bit.get(
                    (flow.source, field_name), self.codec.never_bit)

    def _actor_gain(self, actor: str, field_name: str) -> int:
        """The has+holdings delta of ``actor`` receiving ``field``."""
        return self.registry.has_mask_of(actor, field_name) | \
            self.codec.holding_bit[(actor, field_name)]

    def _originated_gain(self, actor: str,
                         fields: Tuple[str, ...]) -> int:
        """Sending originated fields materialises them: the actor now
        holds — and has identified — the data it created about the
        user. An OR-delta, so 'only fresh fields' needs no check."""
        originated = set(self.system.actors[actor].originates)
        gain = 0
        for field_name in fields:
            if field_name in originated:
                gain |= self._actor_gain(actor, field_name)
        return gain

    #: (source kind, target kind) -> (action, acting end) of a flow;
    #: ``None`` action: ``anon`` or ``create`` by the store.
    _FLOW_RULES = {
        (NodeKind.USER, NodeKind.ACTOR): (ActionType.COLLECT, "target"),
        (NodeKind.ACTOR, NodeKind.ACTOR): (ActionType.DISCLOSE, "source"),
        # Returning data to the subject does not change their privacy,
        # but sending originated fields materialises them.
        (NodeKind.ACTOR, NodeKind.USER): (ActionType.DISCLOSE, "source"),
        (NodeKind.ACTOR, NodeKind.DATASTORE): (None, "source"),
        (NodeKind.DATASTORE, NodeKind.ACTOR): (ActionType.READ, "target"),
    }

    def _compile_effect(self, record: _FlowRecord,
                        source_kind: NodeKind,
                        target_kind: NodeKind) -> None:
        flow = record.flow
        rule = self._FLOW_RULES.get((source_kind, target_kind))
        if rule is None:
            record.error = GenerationError(
                f"flow {flow.describe()} has an unsupported endpoint "
                f"combination ({source_kind.value} -> "
                f"{target_kind.value})"
            )
            return
        action, acting = rule
        effect = record.fired_bit
        fields, schema = flow.fields, None
        if source_kind is NodeKind.ACTOR:
            effect |= self._originated_gain(flow.source, fields)
        if target_kind is NodeKind.ACTOR:
            for field_name in fields:
                effect |= self._actor_gain(flow.target, field_name)
        if target_kind is NodeKind.DATASTORE:
            store = self.system.datastore(flow.target)
            fields = tuple(
                anon_name(f) if store.anonymised
                and anon_name(f) in store.schema else f for f in fields)
            for field_name in fields:
                effect |= self.codec.content_bit[(store.name, field_name)]
            action = ActionType.ANON if store.anonymised \
                else ActionType.CREATE
            schema = store.schema.name
        elif source_kind is NodeKind.DATASTORE:
            schema = self.system.datastore(flow.source).schema.name
        record.label = TransitionLabel(
            action=action, fields=fields, actor=getattr(flow, acting),
            source=flow.source, target=flow.target, schema=schema,
            purpose=flow.purpose or None, flow_key=flow.key)
        record.effect = effect

    # -- successor computation ----------------------------------------------------------

    def _enabled(self, packed: int, groups, first_only: bool
                 ) -> List[tuple]:
        """``(label, kind, successor)`` of every enabled flow. With
        ``first_only`` (sequence ordering), only the lowest-order
        unfired flow of each group (one per selected service entry)
        may fire."""
        enabled = []
        for group in groups:
            for record in group:
                if packed & record.fired_bit:
                    continue
                need = record.need
                if packed & need == need:
                    if record.error is not None:
                        raise record.error
                    enabled.append((record.label, _FLOW,
                                    packed | record.effect))
                if first_only:
                    break
        return enabled

    # -- privacy vector derivation ---------------------------------------------------

    def _could_mask(self, packed: int) -> int:
        """The could bits of a state: for each stored (store, field),
        every registered actor the policy lets read it, by a per
        content bit table compiled on first use."""
        contents = packed & self.codec.cont_mask
        mask = self._could_cache.get(contents)
        if mask is None:
            table = self._could_by_cbit
            if table is None:
                table = self._could_by_cbit = []
                readers = self.system.policy.readers
                for store_name, field_name in self.codec.content_pairs:
                    table.append(0)
                    for actor in readers(store_name, field_name):
                        if actor in self.system.actors:
                            table[-1] |= self.registry.could_mask_of(
                                actor, field_name)
            mask, bits = 0, contents >> self.codec.cont_off
            while bits:
                low = bits & -bits
                bits ^= low
                mask |= table[low.bit_length() - 1]
            self._could_cache[contents] = mask
        return mask

    # -- policy-derived transitions ------------------------------------------------------

    def _actor_table(self, actor: str) -> tuple:
        """(readable, deletable) content masks per sorted store for
        one actor, computed once per generator."""
        table = self._actor_tables.get(actor)
        if table is None:
            policy, codec = self.system.policy, self.codec
            granted = [0, 0]
            for index, (store, field_name) in \
                    enumerate(codec.content_pairs):
                bit = 1 << (index + codec.cont_off)
                if policy.can_read(actor, store, field_name):
                    granted[0] |= bit
                if policy.can_delete(actor, store, field_name):
                    granted[1] |= bit
            table = self._actor_tables[actor] = tuple(
                tuple(mask & store_mask
                      for _, store_mask in codec.sorted_stores)
                for mask in granted)
        return table

    def _policy_successors(self, packed: int,
                           potential_actors: Tuple[str, ...],
                           deletion_actors: Tuple[str, ...]):
        """Reads permitted by the access policy but not in any flow,
        then policy-permitted deletes of stored fields.

        One transition per (actor, store) pair revealing everything
        the actor may read (or delete) of the store's current
        contents; reads are emitted only when they change the state.
        """
        if not packed & self.codec.cont_mask:
            return
        sorted_stores = self.codec.sorted_stores
        for deleting, actors in ((0, potential_actors),
                                 (1, deletion_actors)):
            for actor in actors:
                for (store_name, _), allowed in zip(
                        sorted_stores, self._actor_table(actor)[deleting]):
                    bits = packed & allowed
                    if not bits:
                        continue
                    cached = self._policy_labels.get(
                        (deleting, actor, bits))
                    if cached is None:
                        cached = self._policy_labels[
                            (deleting, actor, bits)] = self._policy_label(
                                deleting, actor, store_name, bits)
                    gain, label = cached
                    successor = packed & ~bits if deleting \
                        else packed | gain
                    if successor != packed:
                        yield label, TransitionKind.POTENTIAL, successor

    def _policy_label(self, deleting: int, actor: str, store_name: str,
                      bits: int) -> Tuple[int, TransitionLabel]:
        """(has+holdings gain, label) of ``actor`` reading (or
        deleting) content ``bits`` of one store."""
        # Sorted, as a store's content bits are.
        fields = tuple(sorted(
            field for _, field in self.codec.decode_contents(bits)))
        schema = self.system.datastore(store_name).schema.name
        if deleting:
            return 0, TransitionLabel(
                action=ActionType.DELETE, fields=fields, actor=actor,
                source=actor, target=store_name, schema=schema)
        gain = 0
        for field_name in fields:
            gain |= self._actor_gain(actor, field_name)
        return gain, TransitionLabel(
            action=ActionType.READ, fields=fields, actor=actor,
            source=store_name, target=actor, schema=schema)


def generate_lts(system: SystemModel,
                 options: Optional[GenerationOptions] = None) -> LTS:
    """Convenience one-call generation (builds a fresh generator)."""
    return ModelGenerator(system).generate(options)
