"""DOT rendering of privacy LTSs (the paper's Figs. 3 and 4).

States are circles named ``s0, s1, ...`` (the sixty state variables
are suppressed exactly as the paper does for Fig. 3 — pass
``show_variables=True`` to include the true variables of each state).
Risk transitions are drawn dotted, as in Fig. 4. Pass a risk table
(``risks``, transition id -> annotation) to label transitions with
their risk, e.g. the violation counts of scored risk transitions.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..core.lts import LTS, Transition, TransitionKind
from ..core.risk.report import RiskAnnotation


def _quote(value: str) -> str:
    return '"' + value.replace('"', '\\"') + '"'


def _transition_attrs(transition: Transition,
                      risk: Optional[RiskAnnotation]) -> str:
    label = transition.label.describe()
    attrs = []
    if risk is not None:
        extra = risk.describe()
        if extra and extra != "<unscored>":
            label += "\\n" + extra
    attrs.append(f"label={_quote(label)}")
    if transition.kind is TransitionKind.RISK:
        attrs.append("style=dotted")
        attrs.append("color=red")
    elif transition.kind is TransitionKind.POTENTIAL:
        attrs.append("style=dashed")
    return ", ".join(attrs)


def lts_to_dot(lts: LTS, graph_name: str = "privacy_lts",
               show_variables: bool = False,
               max_label_variables: int = 8,
               risks: Optional[Mapping[int, RiskAnnotation]] = None) -> str:
    """Render the LTS as DOT text, labelled from the risk table."""
    risks = risks if risks is not None else {}
    lines = [
        f"digraph {_quote(graph_name)} {{",
        "  rankdir=LR;",
        "  node [shape=circle, fontsize=10];",
    ]
    initial = lts.initial.sid
    for state in lts.states:
        attrs = []
        if show_variables:
            true_vars = state.vector.true_variables()
            shown = [v.label() for v in true_vars[:max_label_variables]]
            if len(true_vars) > max_label_variables:
                shown.append(f"... +{len(true_vars) - max_label_variables}")
            label = state.name()
            if shown:
                label += "\\n" + "\\n".join(shown)
            attrs.append(f"label={_quote(label)}")
        if state.sid == initial:
            attrs.append("style=bold")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(state.name())}{suffix};")
    for transition in lts.transitions:
        lines.append(
            f"  {_quote(f's{transition.source}')} -> "
            f"{_quote(f's{transition.target}')} "
            f"[{_transition_attrs(transition, risks.get(transition.tid))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
