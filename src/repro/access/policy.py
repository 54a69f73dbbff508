"""Combined access policy: ACL entries resolved through RBAC roles.

This is the object the LTS generator and the risk analyzers consult.
It answers the two questions the paper's method needs:

- *enforcement*: may actor ``a`` perform ``p`` on ``store.field``?
- *analysis*: which actors **could** read ``store.field``? (This drives
  the ``could identify`` state variables of section II.B and the
  "non-allowed actors with potential access" step of section III.A.)

Generation, the taint closure, lint and parse-time validation ask
these questions thousands of times per model, so neither is a scan: a
query is a probe of the ACL's compiled index for the actor and for each
role in the actor's memoised role closure. Both caches are dropped by
the writes that can change them — :meth:`AccessPolicy.allow` and
:meth:`AccessPolicy.revoke` (the ACL's), ``rbac.define_role`` and
``rbac.assign`` (the role memo's). :meth:`AccessPolicy.register_actor`
changes only the actor universe, which no cache holds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..errors import ModelError
from .acl import ALL_FIELDS, AccessControlList, Permission
from .rbac import RbacPolicy


class AccessPolicy:
    """ACL + RBAC with a known universe of actors.

    ``actors`` is the set of actor names in the system model; it lets
    :meth:`actors_allowed` answer in terms of concrete actors even when
    grants are expressed against roles.
    """

    def __init__(self, acl: Optional[AccessControlList] = None,
                 rbac: Optional[RbacPolicy] = None,
                 actors: Iterable[str] = ()):
        self.acl = acl if acl is not None else AccessControlList()
        self.rbac = rbac if rbac is not None else RbacPolicy()
        self._actors: Set[str] = set(actors)

    # -- construction ------------------------------------------------------

    def register_actor(self, name: str) -> "AccessPolicy":
        self._actors.add(name)
        return self

    def allow(self, subject: str, permissions, store: str,
              fields: Iterable[str] = (ALL_FIELDS,)) -> "AccessPolicy":
        """Fluent ACL allow; ``subject`` may be an actor or role name."""
        self.acl.allow(subject, permissions, store, fields)
        return self

    def revoke(self, subject: str, permission: Permission, store: str,
               fields: Optional[Iterable[str]] = None,
               store_fields: Optional[Iterable[str]] = None) -> int:
        """Revoke a grant; expands wildcard entries when field-scoped.

        ``store_fields`` (the store schema's field names) is required to
        narrow a wildcard entry to "everything except the revoked
        fields".
        """
        if fields is not None:
            self.acl.expand_wildcards(subject, store, store_fields)
        return self.acl.revoke(subject, permission, store, fields)

    # -- enforcement ----------------------------------------------------------

    def is_allowed(self, actor: str, permission: Permission, store: str,
                   field_name: Optional[str] = None) -> bool:
        """Whether ``actor`` (directly or via role) holds the permission."""
        acl = self.acl
        if acl.is_allowed(actor, permission, store, field_name):
            return True
        for role in self.rbac.roles_of(actor):
            if acl.is_allowed(role, permission, store, field_name):
                return True
        return False

    def can_read(self, actor: str, store: str,
                 field_name: Optional[str] = None) -> bool:
        return self.is_allowed(actor, Permission.READ, store, field_name)

    def can_create(self, actor: str, store: str,
                   field_name: Optional[str] = None) -> bool:
        return self.is_allowed(actor, Permission.CREATE, store, field_name)

    def can_delete(self, actor: str, store: str,
                   field_name: Optional[str] = None) -> bool:
        return self.is_allowed(actor, Permission.DELETE, store, field_name)

    # -- analysis ----------------------------------------------------------------

    def actors_allowed(self, permission: Permission, store: str,
                       field_name: Optional[str] = None) -> Set[str]:
        """Concrete actors holding the permission on ``store.field``.

        Role-subject grants are resolved to the actors holding the role;
        actor-subject grants must name a registered actor to count.
        """
        allowed: Set[str] = set()
        for actor in self._actors:
            if self.is_allowed(actor, permission, store, field_name):
                allowed.add(actor)
        return allowed

    def readers(self, store: str,
                field_name: Optional[str] = None) -> Set[str]:
        """Actors that *could* read ``store.field`` — the paper's
        'could identify' population for data stored there."""
        return self.actors_allowed(Permission.READ, store, field_name)

    def readable_fields(self, actor: str, store: str,
                        store_fields: Iterable[str]) -> Set[str]:
        """Subset of ``store_fields`` the actor may read."""
        return {
            name for name in store_fields
            if self.can_read(actor, store, name)
        }

    # -- misc -------------------------------------------------------------------

    @property
    def actors(self) -> Set[str]:
        return set(self._actors)

    def validate(self) -> None:
        """Check RBAC consistency and that ACL subjects resolve.

        An ACL subject must be a registered actor or a defined role;
        otherwise the grant is dead and almost certainly a typo.
        """
        self.rbac.validate()
        for entry in self.acl:
            if entry.subject in self._actors:
                continue
            if self.rbac.is_role(entry.subject):
                continue
            raise ModelError(
                f"ACL entry subject {entry.subject!r} is neither a "
                "registered actor nor a defined role"
            )

    def copy(self) -> "AccessPolicy":
        return AccessPolicy(self.acl.copy(), self.rbac.copy(), self._actors)

    def summary(self) -> Dict[str, list]:
        """Store -> human-readable grant lines, for reports."""
        stores: Dict[str, list] = {}
        for entry in self.acl:
            perms = ",".join(p.value for p in entry.permissions)
            fields = ",".join(entry.fields)
            stores.setdefault(entry.store, []).append(
                f"{entry.subject}: {perms} on [{fields}]"
            )
        return stores

    def __repr__(self) -> str:
        return (
            f"AccessPolicy(entries={len(self.acl)}, "
            f"actors={sorted(self._actors)})"
        )
