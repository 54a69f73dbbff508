"""Role-based access control: roles, hierarchies and actor assignments.

RBAC complements the plain ACL (section II.A): ACL entries may name a
*role* as their subject, and this module resolves which actors hold a
role. Role hierarchies are supported — a senior role inherits every
junior role's grants (e.g. ``clinician`` covering ``doctor`` and
``nurse``), which keeps healthcare-style policies short.

:meth:`RbacPolicy.roles_of` memoises each actor's role closure, since
every policy query asks it. :meth:`~RbacPolicy.define_role` and
:meth:`~RbacPolicy.assign` drop the memo. Like the ACL's index, it is a
cache, not content: it is neither pickled nor copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from ..errors import ModelError


@dataclass(frozen=True)
class Role:
    """A named role, optionally inheriting from parent roles.

    An actor holding this role also holds (for permission purposes)
    every role reachable through ``parents``.
    """

    name: str
    parents: Tuple[str, ...] = dc_field(default=())

    def __post_init__(self):
        if not self.name:
            raise ValueError("role name must be non-empty")
        object.__setattr__(self, "parents", tuple(self.parents))


class RbacPolicy:
    """Role definitions plus actor-to-role assignments."""

    def __init__(self):
        self._roles: Dict[str, Role] = {}
        self._assignments: Dict[str, Set[str]] = {}
        # actor -> every role held, inherited ones included; filled by
        # roles_of, dropped by define_role and assign.
        self._held: Dict[str, FrozenSet[str]] = {}

    def __getstate__(self) -> dict:
        return {"_roles": self._roles, "_assignments": self._assignments}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self.__dict__.update(state)

    # -- construction -----------------------------------------------------

    def define_role(self, name: str,
                    parents: Iterable[str] = ()) -> "RbacPolicy":
        """Register a role (fluent). Parents may be declared later."""
        if name in self._roles:
            raise ModelError(f"role {name!r} is already defined")
        self._roles[name] = Role(name, tuple(parents))
        self._held = {}
        return self

    def assign(self, actor: str, *roles: str) -> "RbacPolicy":
        """Grant ``actor`` the given roles (fluent)."""
        if not roles:
            raise ValueError("assign() needs at least one role")
        granted = self._assignments.setdefault(actor, set())
        granted.update(roles)
        self._held = {}
        return self

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check that parents and assignments reference defined roles
        and that the hierarchy is acyclic."""
        for role in self._roles.values():
            for parent in role.parents:
                if parent not in self._roles:
                    raise ModelError(
                        f"role {role.name!r} inherits from undefined "
                        f"role {parent!r}"
                    )
        for actor, roles in self._assignments.items():
            for role in roles:
                if role not in self._roles:
                    raise ModelError(
                        f"actor {actor!r} is assigned undefined role {role!r}"
                    )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Raise :class:`ModelError` if the parent graph has a cycle
        (Kahn's algorithm: a cycle leaves roles with unprocessed edges)."""
        out_degree = {
            name: len([p for p in role.parents if p in self._roles])
            for name, role in self._roles.items()
        }
        dependants: Dict[str, list] = {name: [] for name in self._roles}
        for name, role in self._roles.items():
            for parent in role.parents:
                if parent in self._roles:
                    dependants[parent].append(name)
        ready = [name for name, degree in out_degree.items() if degree == 0]
        processed = 0
        while ready:
            current = ready.pop()
            processed += 1
            for child in dependants[current]:
                out_degree[child] -= 1
                if out_degree[child] == 0:
                    ready.append(child)
        if processed != len(self._roles):
            cyclic = sorted(
                name for name, degree in out_degree.items() if degree > 0
            )
            raise ModelError(
                "role hierarchy contains a cycle involving: "
                + ", ".join(cyclic)
            )

    # -- queries -------------------------------------------------------------

    def _closure(self, role_name: str) -> Set[str]:
        """All roles implied by holding ``role_name`` (inclusive).

        Plain BFS reachability; safe even on cyclic graphs (validation
        reports cycles separately).
        """
        result: Set[str] = set()
        stack = [role_name]
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            role = self._roles.get(current)
            if role is not None:
                stack.extend(
                    parent for parent in role.parents
                    if parent not in result
                )
        return result

    def roles_of(self, actor: str) -> Set[str]:
        """Every role the actor holds, including inherited ones.

        A fresh set on every call: callers may mutate it freely."""
        held = self._held.get(actor)
        if held is None:
            closure: Set[str] = set()
            for direct in self._assignments.get(actor, ()):
                closure |= self._closure(direct)
            held = self._held[actor] = frozenset(closure)
        return set(held)

    def has_role(self, actor: str, role: str) -> bool:
        return role in self.roles_of(actor)

    def actors_with_role(self, role: str) -> Set[str]:
        """Every actor holding ``role`` directly or via inheritance."""
        return {
            actor for actor in self._assignments
            if role in self.roles_of(actor)
        }

    def defined_roles(self) -> Tuple[str, ...]:
        return tuple(self._roles)

    def assignments(self) -> Dict[str, Tuple[str, ...]]:
        """Direct (non-inherited) assignments, for serialization."""
        return {
            actor: tuple(sorted(roles))
            for actor, roles in self._assignments.items()
        }

    def is_role(self, name: str) -> bool:
        return name in self._roles

    def copy(self) -> "RbacPolicy":
        duplicate = RbacPolicy()
        duplicate._roles = dict(self._roles)
        duplicate._assignments = {
            actor: set(roles) for actor, roles in self._assignments.items()
        }
        return duplicate

    def __repr__(self) -> str:
        return (
            f"RbacPolicy(roles={list(self._roles)}, "
            f"assignments={self.assignments()})"
        )
