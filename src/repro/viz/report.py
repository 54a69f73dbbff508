"""Text reports: state tables, identification summaries, LTS digests.

Everything an operator sees in the paper's tooling, rendered as plain
text so examples and benches can print paper-comparable artefacts.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .._util import ascii_table
from ..core.lts import LTS, State
from ..core.reachability import identification_report
from ..core.risk.report import RiskAnnotation


def state_variable_table(state: State,
                         only_true: bool = True) -> str:
    """The per-state variable table of Fig. 2."""
    rows = []
    for actor, field, has, could in state.vector.table():
        if only_true and not (has or could):
            continue
        rows.append((actor, field, "T" if has else "F",
                     "T" if could else "F"))
    if not rows:
        rows = [("-", "-", "-", "-")]
    return ascii_table(("actor", "field", "has", "could"), rows)


def identification_table(lts: LTS) -> str:
    """Who can identify what, over the whole LTS (section IV.A's
    developer payoff)."""
    report = identification_report(lts)
    rows = []
    for actor in sorted(report):
        view = report[actor]
        rows.append((
            actor,
            ", ".join(sorted(view["has"])) or "-",
            ", ".join(sorted(view["could"] - view["has"])) or "-",
        ))
    return ascii_table(("actor", "has identified", "could identify"),
                       rows)


def lts_digest(lts: LTS, name: str = "LTS") -> str:
    """A one-paragraph structural summary (states, transitions, mix)."""
    stats = lts.stats()
    actions = ", ".join(
        f"{count} {action}" for action, count in
        sorted(stats["actions"].items())
    )
    kinds = ", ".join(
        f"{count} {kind}" for kind, count in sorted(stats["kinds"].items())
    )
    return (
        f"{name}: {stats['states']} states, "
        f"{stats['transitions']} transitions "
        f"({actions}) [{kinds}] over {stats['variables']} "
        "state variables"
    )


def risk_transition_table(lts: LTS,
                          risks: Optional[Mapping[int, RiskAnnotation]] = None
                          ) -> str:
    """Every transition of the risk table (transition id ->
    annotation), in transition order, with its label and score."""
    risks = risks if risks is not None else {}
    rows = []
    for transition in lts.transitions:
        risk = risks.get(transition.tid)
        if risk is None:
            continue
        rows.append((
            f"s{transition.source}->s{transition.target}",
            transition.label.action.value,
            transition.label.actor,
            ", ".join(transition.label.fields),
            transition.kind.value,
            risk.describe(),
        ))
    if not rows:
        rows = [("-", "-", "-", "-", "-", "-")]
    return ascii_table(
        ("transition", "action", "actor", "fields", "kind", "risk"),
        rows)
