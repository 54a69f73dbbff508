"""Reference oracle for access-policy queries.

The linear scans that :class:`~repro.access.acl.AccessControlList`,
:class:`~repro.access.rbac.RbacPolicy` and
:class:`~repro.access.policy.AccessPolicy` answered with before they
compiled the policy: every ACL query walks every entry through
:meth:`~repro.access.acl.AclEntry.covers`, and every policy query
recomputes the actor's role closure from the role graph. They read the
live objects' entries, assignments and role definitions, so they see
exactly the content the compiled caches must agree with.

Slow on purpose and kept only as the authority the compiled policy is
compared against in ``test_access.py``.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.access import Permission


def reference_acl_is_allowed(acl, subject: str, permission: Permission,
                             store: str,
                             field_name: Optional[str] = None) -> bool:
    return any(
        entry.covers(subject, permission, store, field_name)
        for entry in acl
    )


def reference_subjects_allowed(acl, permission: Permission, store: str,
                               field_name: Optional[str] = None
                               ) -> Set[str]:
    return {
        entry.subject for entry in acl
        if entry.covers(entry.subject, permission, store, field_name)
    }


def reference_closure(rbac, role_name: str) -> Set[str]:
    """Every role implied by holding ``role_name`` (inclusive)."""
    result: Set[str] = set()
    stack = [role_name]
    while stack:
        current = stack.pop()
        if current in result:
            continue
        result.add(current)
        role = rbac._roles.get(current)
        if role is not None:
            stack.extend(
                parent for parent in role.parents if parent not in result
            )
    return result


def reference_roles_of(rbac, actor: str) -> Set[str]:
    held: Set[str] = set()
    for direct in rbac.assignments().get(actor, ()):
        held |= reference_closure(rbac, direct)
    return held


def reference_is_allowed(policy, actor: str, permission: Permission,
                         store: str,
                         field_name: Optional[str] = None) -> bool:
    subjects = {actor} | reference_roles_of(policy.rbac, actor)
    return any(
        reference_acl_is_allowed(policy.acl, subject, permission, store,
                                 field_name)
        for subject in subjects
    )


def reference_actors_allowed(policy, permission: Permission, store: str,
                             field_name: Optional[str] = None
                             ) -> Set[str]:
    return {
        actor for actor in policy.actors
        if reference_is_allowed(policy, actor, permission, store,
                                field_name)
    }
