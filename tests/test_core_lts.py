"""Unit tests for the LTS container."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudies import build_scaled_system
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


class TestFrozenLts:
    """A frozen LTS is read-only so it can be shared; a fork is a
    writable copy that shares its state and transition objects."""

    def _chain(self, registry):
        lts = LTS(registry)
        a, _ = lts.add_state("a", registry.empty_vector())
        b, _ = lts.add_state("b", registry.empty_vector())
        lts.add_transition(a, b, _label())
        return lts, a, b

    def test_freeze_returns_the_lts_and_keeps_content(self, registry):
        lts, a, b = self._chain(registry)
        transitions = lts.transitions
        assert not lts.frozen
        assert lts.freeze() is lts and lts.frozen
        assert lts.transitions == transitions
        assert lts.successors(a) == (b,)

    def test_frozen_lts_raises_on_writes(self, registry):
        lts, a, b = self._chain(registry)
        lts.freeze()
        with pytest.raises(ModelError, match="frozen LTS; fork"):
            lts.add_state("c", registry.empty_vector())
        with pytest.raises(ModelError, match="frozen LTS; fork"):
            lts.add_transition(a, b, _label())
        with pytest.raises(ModelError, match="frozen LTS; fork"):
            lts.set_initial(b)
        assert (len(lts), len(lts.transitions)) == (2, 1)
        assert lts.state_by_key("c") is None

    def test_fork_is_writable_and_isolated(self, registry):
        base, a, b = self._chain(registry)
        base.freeze()
        fork = base.fork()
        assert not fork.frozen
        assert fork.states[a] is base.states[a]
        assert fork.transitions[0] is base.transitions[0]
        c, created = fork.add_state("c", registry.empty_vector())
        fork.add_transition(b, c, _label())
        assert created and fork.state_by_key("c").sid == c
        assert (len(fork), len(fork.transitions)) == (3, 2)
        assert (len(base), len(base.transitions)) == (2, 1)
        assert base.state_by_key("c") is None
        assert fork.initial is base.initial

    def test_concurrent_first_reads_agree(self):
        """Threads racing to build a frozen LTS's adjacency all get the
        same rows."""
        import sys
        import threading
        from repro.core import ModelGenerator
        lts = ModelGenerator(build_scaled_system(
            actors=4, fields=6, stores=2)).generate().freeze()
        expected = _adjacency_by_filter(lts)
        seen = []

        def read():
            seen.append(_adjacency(lts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        assert all(rows == expected for rows in seen)

    def test_pickle_ignores_read_history_and_adjacency(self, registry):
        import pickle
        lts, a, _ = self._chain(registry)
        before = pickle.dumps(lts)
        lts.transitions_from(a)
        assert lts.states and lts.transitions
        assert pickle.dumps(lts) == before
        restored = pickle.loads(before)
        assert restored.successors(a) == lts.successors(a)


def _adjacency_by_filter(lts):
    """Every sid's four adjacency rows, filtered from ``transitions``
    in tid order."""
    rows = {}
    for state in lts.states:
        out = tuple(t for t in lts.transitions if t.source == state.sid)
        inc = tuple(t for t in lts.transitions if t.target == state.sid)
        rows[state.sid] = (out, inc, tuple(t.target for t in out),
                           tuple(t.source for t in inc))
    return rows


def _adjacency(lts):
    return {state.sid: (lts.transitions_from(state.sid),
                        lts.transitions_to(state.sid),
                        lts.successors(state.sid),
                        lts.predecessors(state.sid))
            for state in lts.states}


@given(actors=st.integers(min_value=2, max_value=5),
       fields=st.integers(min_value=2, max_value=8),
       stores=st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_lazy_adjacency_matches_a_filter_of_transitions(actors, fields,
                                                        stores):
    """The adjacency built on first read equals a brute-force filter
    of ``transitions`` — on a fresh LTS, on a frozen base whose fork
    was annotated (the base never sees the fork's risk transitions)
    and on that fork (which does)."""
    from repro.core import ModelGenerator
    from repro.core.risk import PseudonymisationRiskAnalyzer
    from repro.core.risk.pseudonym import default_policy_for
    system = build_scaled_system(actors=actors, fields=fields,
                                 stores=stores, pseudonymise=True)
    lts = ModelGenerator(system).generate()
    assert _adjacency(lts) == _adjacency_by_filter(lts)

    base = lts.freeze()
    base_rows = _adjacency(base)      # built before forking
    fork = base.fork()
    assert _adjacency(fork) == base_rows
    risks = PseudonymisationRiskAnalyzer(
        system, default_policy_for(system)).annotate(fork)
    assert risks
    assert _adjacency(base) == base_rows == _adjacency_by_filter(base)
    assert not base.transitions_of_kind(TransitionKind.RISK)
    fork_rows = _adjacency(fork)
    assert fork_rows == _adjacency_by_filter(fork)
    assert sum(len(out) for out, _, _, _ in fork_rows.values()) == \
        len(base.transitions) + len(risks)
