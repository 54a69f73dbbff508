"""Re-identification risk annotations on the LTS.

Section V: tools like ARX "provide methods for analyzing
re-identification risks following the prosecutor, journalist and
marketer attacker models ... in our approach we seek to integrate
similar capabilities into our methodology." This module does that
integration: every transition in which an actor reads pseudonymised
fields is scored with the re-identification risk of the released
dataset *as visible through those fields* — so the model shows not
just value risk (§III.B) but how close the release is to naming the
subject outright. The findings carry their annotations; the LTS is
only read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ...anonymize.reidentification import (
    ReidentificationReport,
    journalist_risk,
    marketer_risk,
    prosecutor_risk,
)
from ...datastore import Record
from ...errors import AnalysisError
from ...schema import is_anon_name
from ..actions import ActionType
from ..lts import LTS, Transition
from .pseudonym import record_column
from .report import RiskAnnotation


@dataclass(frozen=True)
class ReidentificationFinding:
    """One annotated read of pseudonymised data."""

    transition: Transition
    actor: str
    quasi_identifiers: Tuple[str, ...]
    prosecutor: ReidentificationReport
    journalist: Optional[ReidentificationReport]
    marketer: float

    def describe(self) -> str:
        parts = [
            f"{self.actor} reading "
            f"{{{', '.join(self.quasi_identifiers)}}}:",
            f"prosecutor max {self.prosecutor.highest_risk:.2f}",
            f"marketer {self.marketer:.2f}",
        ]
        if self.journalist is not None:
            parts.insert(2,
                         f"journalist max "
                         f"{self.journalist.highest_risk:.2f}")
        return " ".join(parts)

    @property
    def annotation(self) -> RiskAnnotation:
        """This finding's entry in a risk table; merged onto an
        existing annotation its note extends the context."""
        return RiskAnnotation(context=self.describe())

    @property
    def worst_risk(self) -> float:
        """The highest risk across the enabled attacker models."""
        worst = max(self.prosecutor.highest_risk, self.marketer)
        if self.journalist is not None:
            worst = max(worst, self.journalist.highest_risk)
        return worst

    def exceeds(self, threshold: float) -> bool:
        """Whether any attacker model reaches the threshold."""
        return self.worst_risk >= threshold

    def summary_tuple(self) -> tuple:
        """Flatten to plain values (batch-engine result payload)."""
        return (
            self.actor,
            self.quasi_identifiers,
            round(self.prosecutor.highest_risk, 6),
            round(self.journalist.highest_risk, 6)
            if self.journalist is not None else None,
            round(self.marketer, 6),
        )


class ReidentificationAnnotator:
    """Annotates anon-field reads with attacker-model risks.

    Parameters
    ----------
    dataset:
        The released (pseudonymised) records.
    population:
        Optional population table enabling the journalist model.
    record_field_map:
        LTS field name (``age_anon``) -> dataset column; defaults to
        stripping the ``_anon`` suffix.
    threshold:
        Per-record risk counted as "at risk" in the reports.
    """

    def __init__(self, dataset: Sequence[Record],
                 population: Optional[Sequence[Record]] = None,
                 record_field_map: Optional[Mapping[str, str]] = None,
                 threshold: float = 0.5):
        if not dataset:
            raise AnalysisError(
                "re-identification analysis needs a non-empty dataset"
            )
        self.dataset = tuple(dataset)
        self.population = tuple(population) if population is not None \
            else None
        self._field_map = dict(record_field_map) \
            if record_field_map is not None else None
        self.threshold = threshold

    def cache_key(self) -> tuple:
        """Identity of this annotator's *configuration* (field map and
        threshold; the dataset/population are keyed separately by the
        engine). Part of the batch engine's analyzer-stage key."""
        return (
            tuple(sorted(self._field_map.items()))
            if self._field_map is not None else None,
            self.threshold,
        )

    def annotate(self, lts: LTS,
                 actors: Optional[Sequence[str]] = None
                 ) -> List[ReidentificationFinding]:
        """Score every read of pseudonymised fields in ``lts``.

        The LTS is not modified. Each finding carries its annotation;
        ``merge_risks(table, findings)`` appends the notes to the
        contexts of an existing risk table.
        """
        wanted = set(actors) if actors is not None else None
        findings: List[ReidentificationFinding] = []
        for transition in lts.transitions:
            if transition.label.action is not ActionType.READ:
                continue
            if wanted is not None and \
                    transition.label.actor not in wanted:
                continue
            anon_fields = tuple(
                f for f in transition.label.fields if is_anon_name(f)
            )
            if not anon_fields:
                continue
            findings.append(self._score(transition, anon_fields))
        return findings

    def _score(self, transition: Transition,
               anon_fields: Tuple[str, ...]) -> ReidentificationFinding:
        quasi = tuple(record_column(self._field_map, f)
                      for f in anon_fields)
        prosecutor = prosecutor_risk(self.dataset, quasi,
                                     self.threshold)
        journalist = None
        if self.population is not None:
            journalist = journalist_risk(self.dataset, self.population,
                                         quasi, self.threshold)
        marketer = marketer_risk(self.dataset, quasi)
        return ReidentificationFinding(
            transition=transition,
            actor=transition.label.actor,
            quasi_identifiers=quasi,
            prosecutor=prosecutor,
            journalist=journalist,
            marketer=marketer,
        )


def annotate_reidentification(lts: LTS, dataset: Sequence[Record],
                              population: Optional[Sequence[Record]] =
                              None,
                              actors: Optional[Sequence[str]] = None,
                              **kwargs) -> List[ReidentificationFinding]:
    """One-call variant of :class:`ReidentificationAnnotator`."""
    annotator = ReidentificationAnnotator(dataset, population, **kwargs)
    return annotator.annotate(lts, actors)
