"""Unit tests for repro.access: ACL, RBAC and the combined policy."""

import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.access import (
    ALL_FIELDS,
    AccessControlList,
    AccessPolicy,
    AclEntry,
    Permission,
    RbacPolicy,
)
from repro.errors import ModelError

from reference_policy import (
    reference_acl_is_allowed,
    reference_actors_allowed,
    reference_is_allowed,
    reference_roles_of,
    reference_subjects_allowed,
)


class TestPermission:
    def test_aliases(self):
        assert Permission.from_name("query") is Permission.READ
        assert Permission.from_name("write") is Permission.CREATE
        assert Permission.from_name("insert") is Permission.CREATE
        assert Permission.from_name("DELETE") is Permission.DELETE

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown permission"):
            Permission.from_name("own")


class TestAclEntry:
    def test_wildcard_covers_any_field(self):
        entry = AclEntry("a", "s", (Permission.READ,))
        assert entry.grants_all_fields
        assert entry.covers("a", Permission.READ, "s", "anything")

    def test_field_scoped(self):
        entry = AclEntry("a", "s", (Permission.READ,), ("x",))
        assert entry.covers("a", Permission.READ, "s", "x")
        assert not entry.covers("a", Permission.READ, "s", "y")

    def test_store_level_check_ignores_field(self):
        entry = AclEntry("a", "s", (Permission.READ,), ("x",))
        assert entry.covers("a", Permission.READ, "s", None)

    def test_wrong_subject_or_store_or_permission(self):
        entry = AclEntry("a", "s", (Permission.READ,))
        assert not entry.covers("b", Permission.READ, "s")
        assert not entry.covers("a", Permission.READ, "t")
        assert not entry.covers("a", Permission.CREATE, "s")

    def test_validation(self):
        with pytest.raises(ValueError):
            AclEntry("", "s", (Permission.READ,))
        with pytest.raises(ValueError):
            AclEntry("a", "", (Permission.READ,))
        with pytest.raises(ValueError):
            AclEntry("a", "s", ())
        with pytest.raises(ValueError):
            AclEntry("a", "s", (Permission.READ,), ())

    def test_permissions_deduplicated(self):
        entry = AclEntry("a", "s", (Permission.READ, Permission.READ))
        assert entry.permissions == (Permission.READ,)


class TestAccessControlList:
    def test_default_deny(self):
        acl = AccessControlList()
        assert not acl.is_allowed("a", Permission.READ, "s")

    def test_allow_with_string_permissions(self):
        acl = AccessControlList().allow("a", "read", "s")
        assert acl.is_allowed("a", Permission.READ, "s", "x")

    def test_allow_with_mixed_permission_list(self):
        acl = AccessControlList().allow(
            "a", [Permission.READ, "create"], "s")
        assert acl.is_allowed("a", Permission.CREATE, "s")

    def test_subjects_allowed(self):
        acl = (AccessControlList()
               .allow("a", "read", "s")
               .allow("b", "read", "s", ["x"])
               .allow("c", "create", "s"))
        assert acl.subjects_allowed(Permission.READ, "s", "x") == \
            {"a", "b"}
        assert acl.subjects_allowed(Permission.READ, "s", "y") == {"a"}

    def test_revoke_whole_permission(self):
        acl = AccessControlList().allow("a", ["read", "create"], "s")
        changed = acl.revoke("a", Permission.READ, "s")
        assert changed == 1
        assert not acl.is_allowed("a", Permission.READ, "s")
        assert acl.is_allowed("a", Permission.CREATE, "s")

    def test_revoke_specific_fields_narrows_entry(self):
        acl = AccessControlList().allow("a", "read", "s", ["x", "y"])
        acl.revoke("a", Permission.READ, "s", fields=["y"])
        assert acl.is_allowed("a", Permission.READ, "s", "x")
        assert not acl.is_allowed("a", Permission.READ, "s", "y")

    def test_revoke_fields_from_wildcard_raises(self):
        acl = AccessControlList().allow("a", "read", "s")
        with pytest.raises(ValueError, match="wildcard"):
            acl.revoke("a", Permission.READ, "s", fields=["x"])

    def test_revoke_untouched_entries_preserved(self):
        acl = (AccessControlList()
               .allow("a", "read", "s", ["x"])
               .allow("b", "read", "s", ["x"]))
        acl.revoke("a", Permission.READ, "s")
        assert acl.is_allowed("b", Permission.READ, "s", "x")

    def test_entries_for_and_len(self):
        acl = (AccessControlList()
               .allow("a", "read", "s")
               .allow("a", "read", "t"))
        assert len(acl) == 2
        assert len(acl.entries_for("s")) == 1

    def test_copy_is_independent(self):
        acl = AccessControlList().allow("a", "read", "s")
        copy = acl.copy()
        copy.revoke("a", Permission.READ, "s")
        assert acl.is_allowed("a", Permission.READ, "s")


class TestRbacPolicy:
    def test_roles_of_includes_inherited(self):
        rbac = (RbacPolicy()
                .define_role("staff")
                .define_role("doctor", parents=["staff"])
                .assign("alice", "doctor"))
        assert rbac.roles_of("alice") == {"doctor", "staff"}
        assert rbac.has_role("alice", "staff")

    def test_multi_level_inheritance(self):
        rbac = (RbacPolicy()
                .define_role("a")
                .define_role("b", parents=["a"])
                .define_role("c", parents=["b"])
                .assign("x", "c"))
        assert rbac.roles_of("x") == {"a", "b", "c"}

    def test_actors_with_role(self):
        rbac = (RbacPolicy()
                .define_role("staff")
                .define_role("doctor", parents=["staff"])
                .assign("alice", "doctor")
                .assign("bob", "staff"))
        assert rbac.actors_with_role("staff") == {"alice", "bob"}
        assert rbac.actors_with_role("doctor") == {"alice"}

    def test_duplicate_role_rejected(self):
        rbac = RbacPolicy().define_role("r")
        with pytest.raises(ModelError, match="already defined"):
            rbac.define_role("r")

    def test_validate_rejects_undefined_parent(self):
        rbac = RbacPolicy().define_role("r", parents=["ghost"])
        with pytest.raises(ModelError, match="undefined"):
            rbac.validate()

    def test_validate_rejects_undefined_assignment(self):
        rbac = RbacPolicy().define_role("r")
        rbac.assign("a", "ghost")
        with pytest.raises(ModelError, match="undefined role"):
            rbac.validate()

    def test_validate_rejects_cycle(self):
        rbac = RbacPolicy()
        rbac.define_role("a", parents=["b"])
        rbac.define_role("b", parents=["a"])
        with pytest.raises(ModelError, match="cycle"):
            rbac.validate()

    def test_assign_requires_roles(self):
        with pytest.raises(ValueError):
            RbacPolicy().assign("a")

    def test_assignments_view(self):
        rbac = RbacPolicy().define_role("r").assign("a", "r")
        assert rbac.assignments() == {"a": ("r",)}

    def test_copy_is_independent(self):
        rbac = RbacPolicy().define_role("r").assign("a", "r")
        copy = rbac.copy()
        copy.assign("a", "r2")  # undefined, but only in the copy
        assert rbac.assignments() == {"a": ("r",)}


class TestAccessPolicy:
    def _policy(self):
        policy = AccessPolicy()
        policy.register_actor("alice").register_actor("bob")
        policy.rbac.define_role("clinician")
        policy.rbac.assign("alice", "clinician")
        policy.allow("clinician", "read", "ehr", ["diagnosis"])
        policy.allow("bob", "read", "ehr", ["name"])
        return policy

    def test_role_grant_resolves_to_actor(self):
        policy = self._policy()
        assert policy.can_read("alice", "ehr", "diagnosis")
        assert not policy.can_read("bob", "ehr", "diagnosis")

    def test_readers_resolves_roles_and_actors(self):
        policy = self._policy()
        assert policy.readers("ehr", "diagnosis") == {"alice"}
        assert policy.readers("ehr", "name") == {"bob"}

    def test_readable_fields(self):
        policy = self._policy()
        assert policy.readable_fields(
            "bob", "ehr", ["name", "diagnosis"]) == {"name"}

    def test_validate_rejects_dead_subject(self):
        policy = AccessPolicy()
        policy.register_actor("a")
        policy.allow("ghost", "read", "s")
        with pytest.raises(ModelError, match="neither"):
            policy.validate()

    def test_revoke_expands_wildcard_with_store_fields(self):
        policy = AccessPolicy()
        policy.register_actor("a")
        policy.allow("a", "read", "s")
        policy.revoke("a", Permission.READ, "s", fields=["x"],
                      store_fields=["x", "y"])
        assert not policy.can_read("a", "s", "x")
        assert policy.can_read("a", "s", "y")

    def test_revoke_field_scoped_requires_store_fields_for_wildcard(self):
        policy = AccessPolicy()
        policy.register_actor("a")
        policy.allow("a", "read", "s")
        with pytest.raises(ModelError, match="store_fields"):
            policy.revoke("a", Permission.READ, "s", fields=["x"])

    def test_summary_groups_by_store(self):
        policy = self._policy()
        summary = policy.summary()
        assert set(summary) == {"ehr"}
        assert len(summary["ehr"]) == 2

    def test_copy_is_independent(self):
        policy = self._policy()
        copy = policy.copy()
        copy.allow("bob", "read", "ehr", ["diagnosis"])
        assert not policy.can_read("bob", "ehr", "diagnosis")


class TestCompiledCaches:
    def test_pickle_ignores_query_history(self):
        policy = AccessPolicy(actors=["a"])
        policy.rbac.define_role("r").assign("a", "r")
        policy.allow("r", "read", "s", ["x"])
        fresh = pickle.dumps(policy)
        assert policy.can_read("a", "s", "x")
        assert pickle.dumps(policy) == fresh
        restored = pickle.loads(fresh)
        assert restored.can_read("a", "s", "x")
        assert not restored.can_read("a", "s", "y")

    def test_racing_first_queries_agree_with_the_oracle(self):
        """Eight threads make the first queries of one policy at once,
        so they race to build the ACL index and fill the role memo."""
        def build():
            policy = AccessPolicy(actors=["a", "b", "c"])
            policy.rbac.define_role("r").define_role("q", ["r"])
            policy.rbac.assign("a", "q").assign("b", "r")
            for store in ("s", "t", "u"):
                policy.allow("r", "read", store, ["x"])
                policy.allow("c", ["read", "delete"], store)
            return policy

        queries = [(actor, permission, store, field_name)
                   for actor in ("a", "b", "c")
                   for permission in Permission
                   for store in ("s", "t", "u")
                   for field_name in (None, "x", "y")]
        reference = build()
        expected = [reference_is_allowed(reference, *q) for q in queries]
        policy = build()
        seen = []

        def read():
            seen.append([policy.is_allowed(*q) for q in queries])

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
        assert all(answers == expected for answers in seen)


# -- the compiled policy against the linear-scan oracle -----------------

ACTORS = ("ana", "ben", "cy")
ROLES = ("r1", "r2", "r3")
STORES = ("s", "t")
FIELDS = ("x", "y", "z")
QUERY_FIELDS = (None, ALL_FIELDS) + FIELDS

_subjects = st.sampled_from(ACTORS + ROLES + ("ghost",))
_permission_names = st.sampled_from(("read", "create", "delete"))
_field_sets = st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3,
                       unique=True)
_grant_fields = st.one_of(st.just([ALL_FIELDS]), _field_sets)
_writes = st.one_of(
    st.tuples(st.just("allow"), _subjects,
              st.lists(_permission_names, min_size=1, max_size=3),
              st.sampled_from(STORES), _grant_fields),
    st.tuples(st.just("revoke"), _subjects,
              st.sampled_from(tuple(Permission)), st.sampled_from(STORES),
              st.one_of(st.none(), _field_sets),
              st.sampled_from((FIELDS, None))),
    st.tuples(st.just("define_role"), st.sampled_from(ROLES),
              st.lists(st.sampled_from(ROLES), max_size=2, unique=True)),
    st.tuples(st.just("assign"), st.sampled_from(ACTORS + ("dan",)),
              st.lists(st.sampled_from(ROLES), min_size=1, max_size=2,
                       unique=True)),
    st.tuples(st.just("register_actor"),
              st.sampled_from(ACTORS + ("dan",))),
)


def _apply(policy, write):
    op, *args = write
    if op == "allow":
        subject, permissions, store, fields = args
        policy.allow(subject, permissions, store, fields)
    elif op == "revoke":
        subject, permission, store, fields, store_fields = args
        before = list(policy.acl)
        try:
            policy.revoke(subject, permission, store, fields,
                          store_fields=store_fields)
        except ModelError:
            assert list(policy.acl) == before
    elif op == "define_role":
        name, parents = args
        if not policy.rbac.is_role(name):
            policy.rbac.define_role(name, parents)
    elif op == "assign":
        actor, roles = args
        policy.rbac.assign(actor, *roles)
    else:
        policy.register_actor(*args)


def _assert_matches_oracle(policy):
    for actor in ACTORS + ("dan",) + ROLES:
        roles = policy.rbac.roles_of(actor)
        assert roles == reference_roles_of(policy.rbac, actor)
        roles.add("intruder")   # a caller's mutation must not stick
    for permission in Permission:
        for store in STORES:
            for field_name in QUERY_FIELDS:
                for subject in ACTORS + ("dan",) + ROLES:
                    assert policy.is_allowed(
                        subject, permission, store, field_name) == \
                        reference_is_allowed(policy, subject, permission,
                                             store, field_name)
                    assert policy.acl.is_allowed(
                        subject, permission, store, field_name) == \
                        reference_acl_is_allowed(policy.acl, subject,
                                                 permission, store,
                                                 field_name)
                assert policy.actors_allowed(
                    permission, store, field_name) == \
                    reference_actors_allowed(policy, permission, store,
                                             field_name)
                assert policy.acl.subjects_allowed(
                    permission, store, field_name) == \
                    reference_subjects_allowed(policy.acl, permission,
                                               store, field_name)
    for store in STORES:
        for field_name in QUERY_FIELDS:
            assert policy.readers(store, field_name) == \
                reference_actors_allowed(policy, Permission.READ, store,
                                         field_name)


@settings(max_examples=120, deadline=None)
@given(st.lists(_writes, max_size=14))
def test_compiled_policy_matches_linear_scan_after_every_write(writes):
    """Every query agrees with the linear-scan oracle after every write,
    so no write may leave a stale ACL index or role memo behind."""
    policy = AccessPolicy(actors=ACTORS[:2])
    _assert_matches_oracle(policy)
    for write in writes:
        _apply(policy, write)
        _assert_matches_oracle(policy)
