"""Unit tests for LTS generation: extraction rules, interleavings,
preconditions, potential reads and deletes."""

import pytest

from repro.core import (
    ActionType,
    GenerationOptions,
    ModelGenerator,
    TransitionKind,
    generate_lts,
)
from repro.core.reachability import terminal_states
from repro.dfd import SystemBuilder
from repro.errors import GenerationError, ModelError, StateLimitExceeded


def _linear_system():
    """User -> A -> Store -> B, plus an outsider actor C with a grant."""
    return (
        SystemBuilder("lin")
        .schema("S", [("x", "string", "sensitive"), ("y", "string")])
        .actor("A").actor("B").actor("C")
        .datastore("D", "S")
        .service("svc")
        .flow(1, "User", "A", ["x", "y"])
        .flow(2, "A", "D", ["x", "y"])
        .flow(3, "D", "B", ["y"])
        .allow("A", ["read", "create"], "D")
        .allow("B", "read", "D", ["y"])
        .allow("C", "read", "D", ["x"])
        .allow("C", "delete", "D")
        .build()
    )


class TestExtractionRules:
    def test_user_to_actor_is_collect(self):
        lts = generate_lts(_linear_system())
        collect = lts.transitions_from(lts.initial.sid)[0]
        assert collect.label.action is ActionType.COLLECT
        assert collect.label.actor == "A"

    def test_actor_to_store_is_create(self):
        lts = generate_lts(_linear_system())
        creates = lts.transitions_by_action(ActionType.CREATE)
        assert len(creates) == 1
        assert creates[0].label.schema == "S"

    def test_store_to_actor_is_read(self):
        lts = generate_lts(_linear_system())
        reads = lts.transitions_by_action(ActionType.READ)
        assert len(reads) == 1
        assert reads[0].label.actor == "B"

    def test_actor_to_actor_is_disclose(self):
        system = (SystemBuilder("d")
                  .schema("S", ["x"])
                  .actor("A").actor("B")
                  .service("svc")
                  .flow(1, "User", "A", ["x"])
                  .flow(2, "A", "B", ["x"])
                  .build())
        lts = generate_lts(system)
        discloses = lts.transitions_by_action(ActionType.DISCLOSE)
        assert len(discloses) == 1
        # performer is the discloser, effect on the recipient
        assert discloses[0].label.actor == "A"
        target = lts.state(discloses[0].target)
        assert target.vector.has("B", "x")

    def test_anon_store_write_is_anon_with_renamed_fields(self):
        system = (SystemBuilder("a")
                  .schema("S", [("w", "float", "sensitive")])
                  .anonymised_schema("SA", "S")
                  .actor("A")
                  .datastore("DA", "SA", anonymised=True)
                  .service("svc")
                  .flow(1, "User", "A", ["w"])
                  .flow(2, "A", "DA", ["w"])
                  .allow("A", "create", "DA")
                  .build())
        lts = generate_lts(system)
        anons = lts.transitions_by_action(ActionType.ANON)
        assert len(anons) == 1
        assert anons[0].label.fields == ("w_anon",)

    def test_disclose_to_user_keeps_vector(self):
        system = (SystemBuilder("u")
                  .schema("S", ["x"])
                  .actor("A")
                  .service("svc")
                  .flow(1, "User", "A", ["x"])
                  .flow(2, "A", "User", ["x"])
                  .build())
        lts = generate_lts(system)
        disclose = lts.transitions_by_action(ActionType.DISCLOSE)[0]
        before = lts.state(disclose.source).vector
        after = lts.state(disclose.target).vector
        assert before == after


class TestStateSemantics:
    def test_has_is_set_by_collect_and_read(self):
        lts = generate_lts(_linear_system())
        finals = terminal_states(lts)
        assert len(finals) == 1
        vector = finals[0].vector
        assert vector.has("A", "x") and vector.has("A", "y")
        assert vector.has("B", "y") and not vector.has("B", "x")

    def test_could_derived_from_store_and_policy(self):
        lts = generate_lts(_linear_system())
        final = terminal_states(lts)[0].vector
        # data in D; policy: B reads y, C reads x, A reads all
        assert final.could("A", "x") and final.could("A", "y")
        assert final.could("B", "y") and not final.could("B", "x")
        assert final.could("C", "x") and not final.could("C", "y")

    def test_could_false_before_create(self):
        lts = generate_lts(_linear_system())
        first = lts.transitions_from(lts.initial.sid)[0]
        after_collect = lts.state(first.target).vector
        assert not after_collect.could("C", "x")

    def test_each_flow_fires_once(self):
        lts = generate_lts(_linear_system())
        # linear chain: 4 states, 3 transitions
        assert len(lts) == 4
        assert len(lts.transitions) == 3


class TestOrderings:
    def _parallel_system(self):
        """Two independent collects can interleave."""
        return (SystemBuilder("p")
                .schema("S", ["x", "y"])
                .actor("A").actor("B")
                .service("svc")
                .flow(1, "User", "A", ["x"])
                .flow(2, "User", "B", ["y"])
                .build())

    def test_dataflow_explores_interleavings(self):
        lts = generate_lts(self._parallel_system())
        # diamond: init, A-collected, B-collected, both
        assert len(lts) == 4
        assert len(lts.transitions) == 4

    def test_sequence_is_linear(self):
        lts = generate_lts(self._parallel_system(),
                           GenerationOptions(ordering="sequence"))
        assert len(lts) == 3
        assert len(lts.transitions) == 2

    def test_sequence_respects_order_labels(self):
        lts = generate_lts(self._parallel_system(),
                           GenerationOptions(ordering="sequence"))
        first = lts.transitions_from(lts.initial.sid)
        assert len(first) == 1
        assert first[0].label.flow_key == ("svc", 1)

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError, match="ordering"):
            GenerationOptions(ordering="random")


class TestOptions:
    def test_service_restriction(self, surgery_system):
        lts = generate_lts(
            surgery_system,
            GenerationOptions(services=("MedicalService",)))
        services = {
            t.label.flow_key[0]
            for t in lts.transitions if t.label.flow_key
        }
        assert services == {"MedicalService"}

    def test_unknown_service_rejected(self, surgery_system):
        from repro.errors import ModelError
        with pytest.raises(ModelError, match="unknown service"):
            generate_lts(surgery_system,
                         GenerationOptions(services=("Ghost",)))

    def test_empty_selection_rejected(self):
        system = (SystemBuilder("e").schema("S", ["x"]).actor("A")
                  .service("svc").flow(1, "User", "A", ["x"])
                  .build())
        with pytest.raises(GenerationError, match="no flows"):
            generate_lts(system, GenerationOptions(services=()))

    def test_max_states_enforced(self, surgery_system):
        with pytest.raises(StateLimitExceeded):
            generate_lts(surgery_system, GenerationOptions(max_states=3))

    def test_initial_store_contents(self):
        system = _linear_system()
        options = GenerationOptions(
            services=("svc",),
            initial_store_contents={"D": ("x", "y")})
        lts = generate_lts(system, options)
        assert lts.initial.vector.could("C", "x")

    def test_initial_contents_validated(self):
        system = _linear_system()
        with pytest.raises(GenerationError, match="not"):
            generate_lts(system, GenerationOptions(
                initial_store_contents={"D": ("ghost",)}))


def _broken_endpoints(second_flow):
    """User -> A, a broken second flow, then A -> B."""
    builder = (SystemBuilder("broken").schema("S", ["a", "b"])
               .actor("A").actor("B").datastore("D", "S")
               .service("svc").flow(1, "User", "A", ["a"]))
    return builder.flow(2, *second_flow).flow(3, "A", "B", ["a"]) \
        .build(validate=False)


class TestDeferredEndpointErrors:
    """A flow with a broken endpoint raises only where the frozenset
    generator raised: an unknown source whenever the unfired flow is
    considered, anything else once the flow is ready to fire."""

    @pytest.mark.parametrize("ordering", ["dataflow", "sequence"])
    def test_unknown_source_raises_when_considered(self, ordering):
        system = _broken_endpoints(("Ghost", "B", ["a"]))
        with pytest.raises(ModelError, match="Ghost"):
            generate_lts(system, GenerationOptions(ordering=ordering))

    @pytest.mark.parametrize("second_flow", [
        ("B", "Ghost", ["b"]), ("D", "B", ["ghost"]),
        ("D", "Ghost", ["ghost"])])
    @pytest.mark.parametrize("ordering", ["dataflow", "sequence"])
    def test_a_flow_never_ready_never_raises(self, second_flow, ordering):
        """B never holds ``b``, and no store ever holds ``ghost``: the
        flow never fires, and in sequence mode it blocks its service."""
        lts = generate_lts(_broken_endpoints(second_flow),
                           GenerationOptions(ordering=ordering))
        assert len(lts) == (3 if ordering == "dataflow" else 2)
        assert all(t.label.flow_key != ("svc", 2) for t in lts.transitions)

    def test_unready_target_error_raises_once_ready(self):
        system = _broken_endpoints(("A", "Ghost", ["a"]))
        with pytest.raises(ModelError, match="Ghost"):
            generate_lts(system)


class TestPotentialReads:
    def test_potential_read_added_for_granted_actor(self):
        lts = generate_lts(_linear_system(), GenerationOptions(
            include_potential_reads=True,
            potential_read_actors=frozenset({"C"})))
        potentials = lts.transitions_of_kind(TransitionKind.POTENTIAL)
        reads = [t for t in potentials
                 if t.label.action is ActionType.READ]
        assert reads
        assert all(t.label.actor == "C" for t in reads)
        assert all(t.label.fields == ("x",) for t in reads)

    def test_potential_read_changes_state(self):
        lts = generate_lts(_linear_system(), GenerationOptions(
            include_potential_reads=True,
            potential_read_actors=frozenset({"C"})))
        read = [t for t in lts.transitions_of_kind(
            TransitionKind.POTENTIAL)
            if t.label.action is ActionType.READ][0]
        assert lts.state(read.target).vector.has("C", "x")
        assert not lts.state(read.source).vector.has("C", "x")

    def test_no_duplicate_noop_reads(self):
        lts = generate_lts(_linear_system(), GenerationOptions(
            include_potential_reads=True,
            potential_read_actors=frozenset({"C"})))
        # after C has read x, no second potential read from that state
        for state in lts.states:
            if state.vector.has("C", "x"):
                actions = [
                    t for t in lts.transitions_from(state.sid)
                    if t.kind is TransitionKind.POTENTIAL
                    and t.label.actor == "C"
                    and t.label.action is ActionType.READ
                ]
                assert not actions

    def test_flow_reads_not_marked_potential(self):
        lts = generate_lts(_linear_system(), GenerationOptions(
            include_potential_reads=True))
        flow_reads = [t for t in lts.transitions
                      if t.label.action is ActionType.READ
                      and t.label.flow_key is not None]
        assert all(t.kind is TransitionKind.FLOW for t in flow_reads)


class TestDeletes:
    def test_delete_clears_could(self):
        lts = generate_lts(_linear_system(), GenerationOptions(
            include_deletes=True,
            delete_actors=frozenset({"C"})))
        deletes = lts.transitions_by_action(ActionType.DELETE)
        assert deletes
        for transition in deletes:
            target = lts.state(transition.target).vector
            assert not target.could("C", "x")

    def test_delete_preserves_has(self):
        lts = generate_lts(_linear_system(), GenerationOptions(
            include_potential_reads=True,
            potential_read_actors=frozenset({"C"}),
            include_deletes=True,
            delete_actors=frozenset({"C"})))
        for transition in lts.transitions_by_action(ActionType.DELETE):
            source = lts.state(transition.source).vector
            target = lts.state(transition.target).vector
            if source.has("C", "x"):
                assert target.has("C", "x")


class TestOriginatedFields:
    def test_originated_field_materialised_on_first_use(self):
        system = (SystemBuilder("o")
                  .schema("S", ["x", "made"])
                  .actor("A", originates=["made"]).actor("B")
                  .service("svc")
                  .flow(1, "User", "A", ["x"])
                  .flow(2, "A", "B", ["x", "made"])
                  .build())
        lts = generate_lts(system)
        final = terminal_states(lts)[0].vector
        assert final.has("A", "made")
        assert final.has("B", "made")

    def test_flow_with_unoriginated_missing_field_never_enabled(self):
        system = (SystemBuilder("o")
                  .schema("S", ["x", "made"])
                  .actor("A").actor("B")
                  .service("svc")
                  .flow(1, "User", "A", ["x"])
                  .flow(2, "A", "B", ["x", "made"])
                  .build(strict=False))
        lts = generate_lts(system)
        assert len(lts.transitions_by_action(ActionType.DISCLOSE)) == 0


class TestDeterminism:
    def test_generation_is_deterministic(self, surgery_system):
        first = generate_lts(surgery_system)
        second = generate_lts(surgery_system)
        assert first.stats() == second.stats()
        first_labels = [t.label for t in first.transitions]
        second_labels = [t.label for t in second.transitions]
        assert first_labels == second_labels

    def test_registry_reused_across_generations(self, surgery_system):
        generator = ModelGenerator(surgery_system)
        lts_a = generator.generate()
        lts_b = generator.generate()
        assert lts_a.registry is lts_b.registry
