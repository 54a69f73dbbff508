"""Pseudonymisation risk transitions in the LTS (paper III.B, Fig. 4).

"A risk that a given actor (a) can access a given sensitive field (f)
is said to be present in every state in the LTS where the
pseudonymised version of f (f_anon) has been accessed by a. If a only
has access rights to f_anon and not f, transitions will be added to
the LTS starting from each of these at-risk states."

This analyzer finds the at-risk states, injects the *risk transitions*
(``read f`` by the actor — rendered dotted in Fig. 4), and scores each
with a value-risk result computed from data when data is available
("simulated data can be used at design time, whereas the model can be
applied to the running system"). Each returned
:class:`PseudonymisationRisk` carries the transition's risk
annotation; :func:`~repro.core.risk.report.merge_risks` turns the list
into a risk table.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ...datastore import Record
from ...dfd.model import SystemModel
from ...errors import AnalysisError
from ...schema import anon_name, is_anon_name, original_name
from ..actions import ActionType, TransitionLabel
from ..generation import Configuration
from ..lts import LTS, Transition, TransitionKind
from ..statevars import VarKind
from .report import RiskAnnotation
from .valuerisk import ValueRiskPolicy, ValueRiskResult, value_risk


def record_column(field_map: Optional[Mapping[str, str]],
                  lts_field: str) -> str:
    """The dataset column scoring ``lts_field``: its entry in
    ``field_map`` when one is given, else the field without its
    ``_anon`` suffix."""
    if field_map is None:
        return original_name(lts_field)
    try:
        return field_map[lts_field]
    except KeyError:
        raise AnalysisError(
            f"record_field_map has no entry for {lts_field!r}") from None


@dataclasses.dataclass(frozen=True)
class PseudonymisationRisk:
    """One injected risk transition with its scoring context."""

    transition: Transition
    actor: str
    sensitive_field: str
    fields_read: Tuple[str, ...]
    result: Optional[ValueRiskResult]

    @property
    def annotation(self) -> RiskAnnotation:
        """This risk's entry in a risk table: the value-risk result
        and the fields the inference draws on."""
        return RiskAnnotation(
            value_risk=self.result,
            context=(
                f"inference of {self.sensitive_field!r} by {self.actor} "
                f"given {list(self.fields_read)}"
            ),
        )

    @property
    def violations(self) -> Optional[int]:
        return self.result.violations if self.result is not None else None

    def summary_tuple(self) -> tuple:
        """Flatten to plain values (batch-engine result payload)."""
        scored = self.result is not None
        return (
            self.actor,
            self.sensitive_field,
            self.fields_read,
            self.result.violations if scored else None,
            len(self.result.per_record) if scored else None,
            round(self.result.violation_fraction, 6) if scored else None,
        )

    def describe(self) -> str:
        score = "unscored (no data)" if self.result is None else \
            f"violations={self.result.violations}" \
            f"/{len(self.result.per_record)}"
        return (
            f"{self.actor} may infer {self.sensitive_field!r} from "
            f"{{{', '.join(self.fields_read)}}}: {score}"
        )


class PseudonymisationRiskAnalyzer:
    """Adds and scores the dotted risk transitions of Fig. 4."""

    def __init__(self, system: SystemModel, policy: ValueRiskPolicy,
                 dataset: Optional[Sequence[Record]] = None,
                 record_field_map: Optional[Mapping[str, str]] = None):
        """
        Parameters
        ----------
        system:
            The modelled system (supplies the access policy).
        policy:
            The inference policy (sensitive field, closeness,
            confidence, optional design threshold).
        dataset:
            Released (pseudonymised) records used for scoring; without
            data the risk transitions are still injected, unscored.
        record_field_map:
            Maps LTS field names (``age_anon``) to the dataset's
            column names; defaults to stripping the ``_anon`` suffix
            (Table I's records carry original column names).
        """
        self.system = system
        self.policy = policy
        self.dataset = tuple(dataset) if dataset is not None else None
        self._field_map = dict(record_field_map) \
            if record_field_map is not None else None

    def cache_key(self) -> tuple:
        """Identity of this analyzer's *configuration* (policy and
        field map; the dataset is keyed separately by the engine).
        Part of the batch engine's analyzer-stage fingerprint."""
        return (
            self.policy.cache_key(),
            tuple(sorted(self._field_map.items()))
            if self._field_map is not None else None,
        )

    # -- helpers ------------------------------------------------------------

    def _actor_lacks_raw_access(self, actor: str, field: str) -> bool:
        """"If a only has access rights to f_anon and not f"."""
        for store in self.system.datastores.values():
            if field in store.schema and \
                    self.system.policy.can_read(actor, store.name, field):
                return False
        return True

    def _score(self, fields_read: Tuple[str, ...]
               ) -> Optional[ValueRiskResult]:
        if self.dataset is None:
            return None
        mapped = tuple(record_column(self._field_map, f)
                       for f in fields_read)
        return value_risk(self.dataset, mapped, self.policy)

    # -- main entry point -----------------------------------------------------

    def annotate(self, lts: LTS,
                 actors: Optional[Sequence[str]] = None
                 ) -> List[PseudonymisationRisk]:
        """Inject risk transitions into ``lts`` (in place).

        ``actors`` restricts the analysis (default: every actor in the
        registry). Returns the injected risks; each carries the
        :class:`RiskAnnotation` of its transition.
        """
        sensitive = self.policy.sensitive_field
        sensitive_anon = anon_name(sensitive)
        if sensitive_anon not in lts.registry.fields:
            raise AnalysisError(
                f"the LTS has no {sensitive_anon!r} state variables; "
                "the model does not pseudonymise "
                f"{sensitive!r} at all"
            )
        candidates = tuple(actors) if actors is not None \
            else lts.registry.actors
        anon_quasi_fields = tuple(
            f for f in lts.registry.fields
            if is_anon_name(f) and f != sensitive_anon
        )

        risks: List[PseudonymisationRisk] = []
        for actor in candidates:
            if not self._actor_lacks_raw_access(actor, sensitive):
                continue
            risks.extend(self._annotate_actor(
                lts, actor, sensitive, sensitive_anon, anon_quasi_fields))
        return risks

    def _annotate_actor(self, lts: LTS, actor: str, sensitive: str,
                        sensitive_anon: str,
                        anon_quasi_fields: Tuple[str, ...]
                        ) -> List[PseudonymisationRisk]:
        risks: List[PseudonymisationRisk] = []
        has = lts.registry.has_mask_of
        anon_bit, raw_bit = has(actor, sensitive_anon), has(actor, sensitive)
        quasi = [(f, has(actor, f)) for f in anon_quasi_fields]
        # Snapshot: we append states/transitions while iterating.
        for sid, mask in enumerate(tuple(lts.masks)):
            if not mask & anon_bit or mask & raw_bit:
                continue  # not at risk, or nothing left to infer
            fields_read = tuple(f for f, bit in quasi if mask & bit)
            result = self._score(fields_read)
            target_sid = self._risk_target(lts, lts.state(sid), actor,
                                           sensitive)
            label = TransitionLabel(
                action=ActionType.READ, fields=(sensitive,), actor=actor,
                source=f"s{sid}", target=actor,
                purpose="value inference from pseudonymised data")
            transition = lts.add_transition(
                sid, target_sid, label, TransitionKind.RISK)
            risks.append(PseudonymisationRisk(
                transition=transition,
                actor=actor,
                sensitive_field=sensitive,
                fields_read=fields_read,
                result=result,
            ))
        return risks

    def _risk_target(self, lts: LTS, state, actor: str,
                     sensitive: str) -> int:
        """The state reached if the inference succeeds: has(actor, f)."""
        vector = state.vector.with_true(VarKind.HAS, actor, sensitive)
        key, info = state.key, None  # a generated state's view decodes it
        if isinstance(key, Configuration):
            key = key.with_has_bits(
                lts.registry.mask_of(VarKind.HAS, actor, sensitive))
        else:  # non-generated LTS (hand-built in tests)
            key, info = ("risk", key, actor, sensitive), dict(state.info)
        sid, _ = lts.add_state(key, vector, info)
        return sid

    def enforce(self, risks: Sequence[PseudonymisationRisk]) -> None:
        """Design-phase gate: raise if any scored risk breaches the
        policy's violation threshold."""
        for risk in risks:
            if risk.result is not None:
                risk.result.enforce()


def default_policy_for(system: SystemModel
                       ) -> Optional[ValueRiskPolicy]:
    """A deterministic :class:`ValueRiskPolicy` derived from the model.

    Picks the pseudonymised field whose original is classified
    ``sensitive`` (falling back to any pseudonymised field, sorted
    order breaking ties) — the field the model itself says must not be
    inferable. Returns None when the model pseudonymises nothing, i.e.
    the analysis is not applicable. Used by the batch engine when no
    explicit policy is configured for a ``pseudonym`` job.
    """
    from ...schema import FieldKind
    originals = sorted({
        field.anonymised_of
        for schema in system.schemas.values()
        for field in schema
        if field.anonymised_of is not None
    })
    if not originals:
        return None
    kinds: Dict[str, object] = {}
    for schema in system.schemas.values():
        for field in schema:
            kinds.setdefault(field.name, field.kind)
    sensitive = [f for f in originals
                 if kinds.get(f) is FieldKind.SENSITIVE]
    chosen = sensitive[0] if sensitive else originals[0]
    return ValueRiskPolicy(sensitive_field=chosen)
