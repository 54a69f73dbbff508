"""Unit tests for the LTS container."""

import pytest

from repro.core import (
    ActionType,
    LTS,
    TransitionKind,
    TransitionLabel,
    VariableRegistry,
)
from repro.errors import ModelError


@pytest.fixture
def registry():
    return VariableRegistry(["A"], ["x"])


def _label(action=ActionType.COLLECT, actor="A", fields=("x",)):
    return TransitionLabel(action=action, fields=fields, actor=actor,
                           source="User", target=actor)


class TestTransitionLabel:
    def test_requires_fields_and_actor(self):
        with pytest.raises(ValueError):
            TransitionLabel(ActionType.READ, (), "A", "s", "A")
        with pytest.raises(ValueError):
            TransitionLabel(ActionType.READ, ("x",), "", "s", "A")

    def test_describe_mentions_parts(self):
        label = TransitionLabel(ActionType.READ, ("x",), "A", "S", "A",
                                schema="Sch", purpose="audit")
        text = label.describe()
        assert "read{x}" in text and "by A" in text
        assert "Sch" in text and "audit" in text

    def test_action_from_name(self):
        assert ActionType.from_name("ANON") is ActionType.ANON
        with pytest.raises(ValueError):
            ActionType.from_name("mutate")


class TestLTS:
    def test_add_state_dedups_by_key(self, registry):
        lts = LTS(registry)
        sid_a, created_a = lts.add_state("k", registry.empty_vector())
        sid_b, created_b = lts.add_state("k", registry.empty_vector())
        assert sid_a == sid_b
        assert created_a and not created_b
        assert len(lts) == 1

    def test_first_state_is_initial(self, registry):
        lts = LTS(registry)
        sid, _ = lts.add_state("k", registry.empty_vector())
        assert lts.initial.sid == sid

    def test_set_initial(self, registry):
        lts = LTS(registry)
        lts.add_state("a", registry.empty_vector())
        sid_b, _ = lts.add_state("b", registry.empty_vector())
        lts.set_initial(sid_b)
        assert lts.initial.sid == sid_b

    def test_empty_lts_has_no_initial(self, registry):
        with pytest.raises(ModelError, match="no states"):
            LTS(registry).initial

    def test_transitions_indexed_both_ways(self, registry):
        lts = LTS(registry)
        a, _ = lts.add_state("a", registry.empty_vector())
        b, _ = lts.add_state("b", registry.empty_vector())
        transition = lts.add_transition(a, b, _label())
        assert lts.transitions_from(a) == (transition,)
        assert lts.transitions_to(b) == (transition,)
        assert lts.successors(a) == (b,)
        assert lts.predecessors(b) == (a,)

    def test_unknown_state_rejected(self, registry):
        lts = LTS(registry)
        a, _ = lts.add_state("a", registry.empty_vector())
        with pytest.raises(ModelError, match="unknown state"):
            lts.add_transition(a, 99, _label())

    def test_state_by_key(self, registry):
        lts = LTS(registry)
        sid, _ = lts.add_state("a", registry.empty_vector())
        assert lts.state_by_key("a").sid == sid
        assert lts.state_by_key("zzz") is None

    def test_filtered_views(self, registry):
        lts = LTS(registry)
        a, _ = lts.add_state("a", registry.empty_vector())
        b, _ = lts.add_state("b", registry.empty_vector())
        lts.add_transition(a, b, _label(ActionType.COLLECT))
        lts.add_transition(
            a, b, _label(ActionType.READ), TransitionKind.POTENTIAL)
        assert len(lts.transitions_by_action(ActionType.READ)) == 1
        assert len(lts.transitions_of_kind(TransitionKind.POTENTIAL)) == 1
        assert len(lts.transitions_by_actor("A")) == 2
        assert len(lts.find_transitions(
            lambda t: t.label.action is ActionType.COLLECT)) == 1

    def test_stats(self, registry):
        lts = LTS(registry)
        a, _ = lts.add_state("a", registry.empty_vector())
        b, _ = lts.add_state("b", registry.empty_vector())
        lts.add_transition(a, b, _label())
        stats = lts.stats()
        assert stats["states"] == 2
        assert stats["transitions"] == 1
        assert stats["actions"] == {"collect": 1}
        assert stats["variables"] == 2

    def test_transition_describe(self, registry):
        lts = LTS(registry)
        a, _ = lts.add_state("a", registry.empty_vector())
        b, _ = lts.add_state("b", registry.empty_vector())
        transition = lts.add_transition(
            a, b, _label(), TransitionKind.RISK)
        assert "s0" in transition.describe()
        assert "[risk]" in transition.describe()


class TestMaterializedViews:
    """states/transitions/adjacency return cached tuples — analyzers
    iterate them in loops, so a fresh copy per access is a real cost —
    and the caches invalidate on append."""

    def _chain(self, registry):
        lts = LTS(registry)
        a, _ = lts.add_state("a", registry.empty_vector())
        b, _ = lts.add_state("b", registry.empty_vector())
        lts.add_transition(a, b, _label())
        return lts, a, b

    def test_views_are_not_recopied_per_access(self, registry):
        lts, a, b = self._chain(registry)
        assert lts.states is lts.states
        assert lts.transitions is lts.transitions
        assert lts.transitions_from(a) is lts.transitions_from(a)
        assert lts.transitions_to(b) is lts.transitions_to(b)
        assert lts.successors(a) is lts.successors(a)
        assert lts.predecessors(b) is lts.predecessors(b)

    def test_views_invalidate_on_append(self, registry):
        lts, a, b = self._chain(registry)
        stale_states = lts.states
        stale_transitions = lts.transitions
        stale_out = lts.transitions_from(a)
        c, _ = lts.add_state("c", registry.empty_vector())
        lts.add_transition(a, c, _label())
        assert len(lts.states) == len(stale_states) + 1
        assert len(lts.transitions) == len(stale_transitions) + 1
        assert len(lts.transitions_from(a)) == len(stale_out) + 1
        assert lts.successors(a) == (b, c)
        assert lts.predecessors(c) == (a,)
        assert lts.transitions_to(c)[-1] is lts.transitions[-1]

    def test_unknown_sid_still_rejected(self, registry):
        lts, _, _ = self._chain(registry)
        with pytest.raises(ModelError):
            lts.transitions_from(99)
        with pytest.raises(ModelError):
            lts.transitions_to(-1)
