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
from test_property_based import _compiled_rows, _reference_lts


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


# -- the columnar LTS ---------------------------------------------------------
#
# Generation fills int columns; State/Transition objects are views built
# from them on first read. These properties check every view against
# the columns and against the frozenset reference generator.

def _scaled_lts(actors, fields, stores, ordering, potential):
    from repro.core import GenerationOptions, ModelGenerator
    system = build_scaled_system(actors=actors, fields=fields,
                                 stores=stores, pseudonymise=True)
    options = GenerationOptions(ordering=ordering,
                                include_potential_reads=potential)
    return system, options, ModelGenerator(system).generate(options)


def _stats_by_walking(lts):
    """``stats()`` as the object loop used to count it."""
    actions, kinds = {}, {}
    for transition in lts.transitions:
        name = transition.label.action.value
        actions[name] = actions.get(name, 0) + 1
        kinds[transition.kind.value] = \
            kinds.get(transition.kind.value, 0) + 1
    return {"states": len(lts.states),
            "transitions": len(lts.transitions),
            "variables": len(lts.registry), "actions": actions,
            "kinds": kinds}


def _assert_views_match_columns(lts):
    states, transitions = lts.states, lts.transitions
    assert [s.sid for s in states] == list(range(len(lts)))
    assert [s.vector.mask for s in states] == list(lts.masks)
    assert all(lts.state(s.sid) is s and lts.state_by_key(s.key) is s
               for s in states)
    assert [(t.tid, t.source, t.target, (t.label, t.kind))
            for t in transitions] == [
        (tid, source, target, lts.labels[index])
        for tid, (source, target, index) in enumerate(zip(
            lts.sources, lts.targets, lts.label_indices))]
    assert all(lts.transition(t.tid) is t for t in transitions)
    assert lts.transition_count == len(transitions)
    for sid in range(len(lts)):
        out = tuple(t for t in transitions if t.source == sid)
        inc = tuple(t for t in transitions if t.target == sid)
        assert lts.transitions_from(sid) == out
        assert lts.transitions_to(sid) == inc
        assert lts.successors(sid) == tuple(t.target for t in out)
        assert lts.predecessors(sid) == tuple(t.source for t in inc)
    stats = lts.stats()
    expected = _stats_by_walking(lts)
    assert stats == expected
    # Same first-occurrence order, as the CLI and reports print it.
    assert list(stats["actions"]) == list(expected["actions"])
    assert list(stats["kinds"]) == list(expected["kinds"])


@given(actors=st.integers(min_value=2, max_value=4),
       fields=st.integers(min_value=2, max_value=5),
       stores=st.integers(min_value=1, max_value=2),
       ordering=st.sampled_from(("dataflow", "sequence")),
       potential=st.booleans())
@settings(max_examples=25, deadline=None)
def test_views_equal_the_columns_and_the_reference(actors, fields, stores,
                                                   ordering, potential):
    system, options, lts = _scaled_lts(actors, fields, stores, ordering,
                                       potential)
    assert _compiled_rows(lts) == _reference_lts(system, options)
    _assert_views_match_columns(lts)
    assert lts.initial is lts.states[0]
    frozen = lts.freeze()
    _assert_views_match_columns(frozen.fork())


@given(actors=st.integers(min_value=2, max_value=4),
       fields=st.integers(min_value=2, max_value=5),
       ordering=st.sampled_from(("dataflow", "sequence")),
       potential=st.booleans())
@settings(max_examples=15, deadline=None)
def test_fork_rows_never_show_in_the_base_or_a_sibling(actors, fields,
                                                       ordering, potential):
    import pickle
    from repro.core.risk import PseudonymisationRiskAnalyzer
    from repro.core.risk.pseudonym import default_policy_for
    system, _, base = _scaled_lts(actors, fields, 1, ordering, potential)
    base.freeze()
    before = (len(base), base.transition_count, base.states,
              base.transitions, list(base.masks), list(base.sources),
              len(base.labels), base.stats())
    annotated, sibling = base.fork(), base.fork()
    risks = PseudonymisationRiskAnalyzer(
        system, default_policy_for(system)).annotate(annotated)
    assert risks
    key = ("sibling", 0)
    sid, created = sibling.add_state(key, base.registry.empty_vector(),
                                     {"note": 1})
    sibling.add_transition(0, sid, _label())
    assert created and sid == len(base)

    assert (len(base), base.transition_count, base.states,
            base.transitions, list(base.masks), list(base.sources),
            len(base.labels), base.stats()) == before
    assert base.state_by_key(key) is None
    assert not base.transitions_of_kind(TransitionKind.RISK)
    assert not sibling.transitions_of_kind(TransitionKind.RISK)
    assert annotated.state_by_key(key) is None
    assert len(sibling) == len(base) + 1
    assert sibling.transition_count == base.transition_count + 1
    added = annotated.states[len(base):]
    assert all(sibling.state_by_key(s.key) is None for s in added)
    assert sibling.state(sid).info == {"note": 1}
    # Rows below the base length are the base's own view objects.
    for fork in (annotated, sibling):
        assert fork.states[:len(base)] == base.states
        assert fork.transitions[:base.transition_count] == base.transitions
        _assert_views_match_columns(fork)
    assert [r.transition for r in risks] == list(
        annotated.transitions_of_kind(TransitionKind.RISK))
    restored = pickle.loads(pickle.dumps(annotated))
    assert _compiled_views(restored) == _compiled_views(annotated)


def _compiled_views(lts):
    return ([(s.sid, s.vector.mask, s.key, dict(s.info))
             for s in lts.states],
            [(t.tid, t.source, t.target, t.label, t.kind)
             for t in lts.transitions])


def test_racing_first_reads_of_a_frozen_lts_get_the_same_objects():
    """Eight threads race the first object reads of a frozen LTS; each
    view is built under its lock, so all get identical objects."""
    import sys
    import threading
    from repro.core import ModelGenerator
    lts = ModelGenerator(build_scaled_system(
        actors=4, fields=6, stores=2)).generate().freeze()
    count = lts.transition_count
    seen = []

    def read(index):
        if index % 2:
            seen.append((tuple(lts.transitions_at(range(count))),
                         tuple(map(lts.state, range(len(lts))))))
        else:
            seen.append((lts.transitions, lts.states))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    transitions, states = lts.transitions, lts.states
    assert len(transitions) == count and len(states) == len(lts)
    for got_transitions, got_states in seen:
        assert all(a is b for a, b in zip(got_transitions, transitions))
        assert all(a is b for a, b in zip(got_states, states))


def test_pickle_keeps_only_the_columns():
    import pickle
    from repro.core import ModelGenerator
    lts = ModelGenerator(build_scaled_system(
        actors=3, fields=4, stores=2)).generate().freeze()
    assert set(lts.__getstate__()) == {
        "_registry", "_codec", "_keys", "_masks", "_infos", "_sources",
        "_targets", "_label_indices", "_labels", "_initial", "_frozen",
        "_base", "_base_rows"}
    restored = pickle.loads(pickle.dumps(lts))
    assert restored.frozen
    assert _compiled_views(restored) == _compiled_views(lts)
    assert restored.state_by_key(lts.states[-1].key).sid == len(lts) - 1
