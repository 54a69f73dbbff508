"""The formal privacy model (paper II.B): state variables, LTS,
generation from data-flow models, reachability and properties."""

from .actions import ActionType, TransitionLabel
from .generation import (
    Configuration,
    GenerationOptions,
    ModelGenerator,
    generate_lts,
)
from .lts import LTS, State, Transition, TransitionKind
from .ltssource import LocalLtsSource, LtsSource
from .statevars import (
    PrivacyVector,
    StateVariable,
    VarKind,
    VariableRegistry,
)

__all__ = [
    "ActionType",
    "TransitionLabel",
    "Configuration",
    "GenerationOptions",
    "ModelGenerator",
    "generate_lts",
    "LTS",
    "LtsSource",
    "LocalLtsSource",
    "State",
    "Transition",
    "TransitionKind",
    "PrivacyVector",
    "StateVariable",
    "VarKind",
    "VariableRegistry",
]
