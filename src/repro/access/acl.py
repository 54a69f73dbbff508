"""Access control lists over (subject, datastore, field, permission).

The paper assumes "traditional access control lists and role-based
access control" (section II.A). An :class:`AccessControlList` is a set
of allow entries; anything not explicitly allowed is denied. Subjects
may be actor names or role names — resolution of roles to actors is the
job of :class:`repro.access.rbac.RbacPolicy` and the combined
:class:`repro.access.policy.AccessPolicy`.

Queries do not scan the entries. The first query compiles them into an
index, ``(subject, permission, store) -> granted fields``, and every
later query is one dict probe. The writes — :meth:`~AccessControlList.allow`,
:meth:`~AccessControlList.revoke` and
:meth:`~AccessControlList.expand_wildcards` — drop the index, and the
next query rebuilds it; nothing else may rewrite the entry list. The
index is a cache, not content: it is neither pickled nor copied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .._util import freeze_fields
from ..errors import ModelError

ALL_FIELDS = "*"


class Permission(enum.Enum):
    """Datastore operations an entry can grant."""

    READ = "read"
    CREATE = "create"
    DELETE = "delete"

    @classmethod
    def from_name(cls, name: str) -> "Permission":
        aliases = {
            "read": cls.READ,
            "query": cls.READ,
            "create": cls.CREATE,
            "write": cls.CREATE,
            "insert": cls.CREATE,
            "delete": cls.DELETE,
        }
        normalised = name.lower()
        if normalised not in aliases:
            valid = ", ".join(sorted(aliases))
            raise ValueError(
                f"unknown permission {name!r}; expected one of: {valid}"
            )
        return aliases[normalised]


@dataclass(frozen=True)
class AclEntry:
    """One allow rule: ``subject`` may ``permissions`` on ``store.fields``.

    ``fields`` may be the wildcard :data:`ALL_FIELDS` tuple ``("*",)``
    meaning every field of the store's schema.
    """

    subject: str
    store: str
    permissions: Tuple[Permission, ...]
    fields: Tuple[str, ...] = dc_field(default=(ALL_FIELDS,))

    def __post_init__(self):
        if not self.subject:
            raise ValueError("ACL entry subject must be non-empty")
        if not self.store:
            raise ValueError("ACL entry store must be non-empty")
        if not self.permissions:
            raise ValueError("ACL entry must grant at least one permission")
        if not self.fields:
            raise ValueError(
                "ACL entry must name at least one field (or '*')"
            )
        object.__setattr__(self, "permissions",
                           tuple(sorted(set(self.permissions),
                                        key=lambda p: p.value)))
        object.__setattr__(self, "fields", freeze_fields(self.fields))

    @property
    def grants_all_fields(self) -> bool:
        return ALL_FIELDS in self.fields

    def covers(self, subject: str, permission: Permission, store: str,
               field_name: Optional[str] = None) -> bool:
        """Whether this entry allows the requested operation."""
        if self.subject != subject or self.store != store:
            return False
        if permission not in self.permissions:
            return False
        if field_name is None or self.grants_all_fields:
            return True
        return field_name in self.fields


class AccessControlList:
    """An ordered collection of :class:`AclEntry` allow rules."""

    def __init__(self, entries: Iterable[AclEntry] = ()):
        self._entries: List[AclEntry] = list(entries)
        # (subject, permission, store) -> every field granted by some
        # entry ("*" among them for a wildcard grant); built on the
        # first query, dropped on every write.
        self._index: Optional[Dict[Tuple[str, Permission, str],
                                   Set[str]]] = None

    def __getstate__(self) -> dict:
        # The index is derived from the entries: an ACL pickles to the
        # same bytes whether or not it has been queried.
        return {"_entries": self._entries}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["_entries"])

    def _compiled(self) -> Dict[Tuple[str, Permission, str], Set[str]]:
        index = self._index
        if index is None:
            index = {}
            for entry in self._entries:
                for permission in entry.permissions:
                    index.setdefault(
                        (entry.subject, permission, entry.store),
                        set()).update(entry.fields)
            self._index = index
        return index

    def allow(self, subject: str, permissions, store: str,
              fields: Iterable[str] = (ALL_FIELDS,)) -> "AccessControlList":
        """Append an allow rule (fluent; returns self).

        ``permissions`` accepts a single :class:`Permission`, a
        permission name string, or an iterable of either.
        """
        if isinstance(permissions, (Permission, str)):
            permissions = [permissions]
        resolved = tuple(
            p if isinstance(p, Permission) else Permission.from_name(p)
            for p in permissions
        )
        self._entries.append(
            AclEntry(subject, store, resolved, tuple(fields))
        )
        self._index = None
        return self

    def revoke(self, subject: str, permission: Permission, store: str,
               fields: Optional[Iterable[str]] = None) -> int:
        """Remove grants matching the arguments; returns entries rewritten.

        With ``fields=None`` the permission is removed for all fields of
        matching entries; otherwise only the named fields are removed
        and entries are narrowed, so revoking READ on one field leaves
        the rest of the grant intact. This is how section IV.A's "the
        access policies were changed accordingly" is done
        programmatically.

        Field-scoped revocation of a wildcard (``'*'``) entry needs the
        store schema to enumerate the remaining fields; use
        :meth:`repro.access.policy.AccessPolicy.revoke` for that, or
        revoke without ``fields``.
        """
        revoke_fields = None if fields is None else set(fields)
        rewritten = 0
        new_entries: List[AclEntry] = []
        for entry in self._entries:
            if entry.subject != subject or entry.store != store or \
                    permission not in entry.permissions:
                new_entries.append(entry)
                continue
            if revoke_fields is not None and entry.grants_all_fields:
                raise ValueError(
                    f"cannot revoke specific fields from wildcard grant "
                    f"{entry!r}; expand the wildcard against the store "
                    f"schema first (AccessPolicy.revoke does this)"
                )
            rewritten += 1
            other_permissions = tuple(
                p for p in entry.permissions if p is not permission
            )
            if other_permissions:
                new_entries.append(AclEntry(
                    entry.subject, entry.store, other_permissions,
                    entry.fields))
            if revoke_fields is not None:
                kept_fields = tuple(
                    f for f in entry.fields if f not in revoke_fields
                )
                if kept_fields:
                    new_entries.append(AclEntry(
                        entry.subject, entry.store, (permission,),
                        kept_fields))
        self._entries = new_entries
        self._index = None
        return rewritten

    def expand_wildcards(self, subject: str, store: str,
                         store_fields: Optional[Iterable[str]]) -> int:
        """Rewrite ``subject``'s wildcard grants on ``store`` to name
        ``store_fields`` (the store schema's fields) explicitly;
        returns the entries rewritten.

        The grants stay the same on every schema field; a field-scoped
        :meth:`revoke` can then narrow them. Raises
        :class:`~repro.errors.ModelError`, leaving the ACL untouched,
        when there is a wildcard to expand but no ``store_fields``.
        """
        concrete = None if store_fields is None else tuple(store_fields)
        rewritten = 0
        new_entries: List[AclEntry] = []
        for entry in self._entries:
            if entry.subject == subject and entry.store == store \
                    and entry.grants_all_fields:
                if concrete is None:
                    raise ModelError(
                        f"field-scoped revoke on {store!r} requires "
                        "store_fields to expand wildcard grants"
                    )
                entry = AclEntry(entry.subject, entry.store,
                                 entry.permissions, concrete)
                rewritten += 1
            new_entries.append(entry)
        if rewritten:
            self._entries = new_entries
            self._index = None
        return rewritten

    def is_allowed(self, subject: str, permission: Permission, store: str,
                   field_name: Optional[str] = None) -> bool:
        """Whether some entry allows the operation (default-deny).

        Same answer as :meth:`AclEntry.covers` over every entry: a
        ``None`` field asks about the store as a whole, and a wildcard
        grant covers every field.
        """
        fields = self._compiled().get((subject, permission, store))
        if fields is None:
            return False
        return field_name is None or ALL_FIELDS in fields \
            or field_name in fields

    def subjects_allowed(self, permission: Permission, store: str,
                         field_name: Optional[str] = None) -> Set[str]:
        """All subjects with the permission on ``store`` (and field)."""
        return {
            subject for subject, granted, on in self._compiled()
            if granted is permission and on == store
            and self.is_allowed(subject, permission, store, field_name)
        }

    def entries_for(self, store: str) -> Tuple[AclEntry, ...]:
        return tuple(e for e in self._entries if e.store == store)

    def __iter__(self) -> Iterator[AclEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"AccessControlList({self._entries!r})"

    def copy(self) -> "AccessControlList":
        return AccessControlList(self._entries)
