"""Programmatic generation of diverse analysis workloads.

The engine needs fleets of varied (model, users) pairs; this module
manufactures them deterministically from a seed. Four template
families:

- ``surgery`` — the paper's Fig. 1 healthcare model, in its shipped
  (``baseline``) and remediated (``tightened``, the IV.A fix) variants;
- ``loyalty`` — the retail loyalty programme case study;
- ``scaled`` — :func:`~repro.casestudies.build_scaled_system` at
  seed-drawn actor/field/store sizes, pseudonymisation on and off.

Every scenario carries a persona-sampled user population (Westin
fundamentalist / pragmatist / unconcerned), so risk outcomes vary
realistically across the fleet. The whole stream is a pure function of
``(seed, personas_per_scenario)``: the same seed reproduces identical
models, identical users and therefore identical job fingerprints —
which is what makes fleet runs cacheable end to end.

Within one :meth:`ScenarioGenerator.generate` call, scenarios on the
same template (same family, variant and drawn sizes) share one
:class:`~repro.dfd.SystemModel` object: a fleet is built, and hashed by
the id-keyed fingerprint tables downstream, once per distinct model.
Copy a scenario's model before editing it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..casestudies import (
    ANALYTICS_SERVICE,
    CHECKOUT_SERVICE,
    INTAKE_SERVICE,
    MEDICAL_SERVICE,
    OFFERS_SERVICE,
    PROCESSING_SERVICE,
    RESEARCH_SERVICE,
    build_loyalty_system,
    build_scaled_system,
    build_surgery_system,
    tighten_administrator_policy,
)
from ..consent import UserProfile
from ..consent.personas import (
    FUNDAMENTALIST,
    PRAGMATIST,
    UNCONCERNED,
    Persona,
    profile_from_persona,
)
from ..core import GenerationOptions
from ..dfd import SystemModel
from .jobs import AnalysisJob

_PERSONA_CYCLE: Tuple[Persona, ...] = (PRAGMATIST, FUNDAMENTALIST,
                                       UNCONCERNED)


@dataclass(frozen=True)
class ModelScenario:
    """One generated workload: a model and the users to assess it for.

    ``system`` may be shared with other scenarios of the same
    :meth:`ScenarioGenerator.generate` call; copy it before editing.
    """

    name: str
    family: str
    variant: str
    system: SystemModel
    users: Tuple[UserProfile, ...]
    options: Optional[GenerationOptions] = None

    def jobs(self, kind: str = "disclosure") -> List[AnalysisJob]:
        """One ``kind`` analysis job per user of the scenario."""
        return [
            AnalysisJob(
                system=self.system,
                user=user,
                options=self.options,
                kind=kind,
                scenario=self.name,
                family=self.family,
                variant=self.variant,
            )
            for user in self.users
        ]


def scenario_jobs(scenarios: Sequence[ModelScenario],
                  kinds: Sequence[str] = ("disclosure",)
                  ) -> List[AnalysisJob]:
    """Flatten scenarios into the engine's job list.

    With several ``kinds``, scenarios cycle through them — the fleet
    mixes analysis lenses across its models rather than multiplying
    every scenario by every kind (pass the same scenario list once per
    kind for the cross product). Jobs reference their scenario's
    model, which sibling scenarios may share: copy it before editing.
    """
    kinds = tuple(kinds) or ("disclosure",)
    jobs: List[AnalysisJob] = []
    for index, scenario in enumerate(scenarios):
        jobs.extend(scenario.jobs(kind=kinds[index % len(kinds)]))
    return jobs


class ScenarioGenerator:
    """Deterministic scenario stream over the template families.

    ``generate(count)`` cycles the families (surgery baseline, surgery
    tightened, loyalty, scaled) and draws per-scenario parameters and
    user populations from a PRNG seeded once — the same ``seed`` always
    yields the same fleet.

    One call builds each distinct template model once: scenarios keyed
    ``("surgery", tightened)``, ``("loyalty",)`` or ``("scaled",
    actors, fields, stores, pseudonymise)`` alike share one
    :class:`~repro.dfd.SystemModel`. Separate calls never share one.
    """

    def __init__(self, seed: int = 0, personas_per_scenario: int = 2):
        if personas_per_scenario < 1:
            raise ValueError(
                "personas_per_scenario must be >= 1, got "
                f"{personas_per_scenario}")
        self.seed = seed
        self.personas_per_scenario = personas_per_scenario

    # -- users -------------------------------------------------------------

    def _users(self, index: int, system: SystemModel,
               services: Sequence[str], schema_name: str,
               rng: random.Random) -> Tuple[UserProfile, ...]:
        fields = system.schemas[schema_name]
        users = []
        for offset in range(self.personas_per_scenario):
            persona = _PERSONA_CYCLE[(index + offset) % len(_PERSONA_CYCLE)]
            profile = profile_from_persona(
                f"s{index:03d}-u{offset}[{persona.name}]", persona,
                fields, services, rng)
            if not profile.agreed_services:
                # Disclosure analysis needs at least one consent; force
                # the persona onto a deterministic-but-varied service.
                profile.agree_to(services[(index + offset) % len(services)])
            users.append(profile)
        return tuple(users)

    # -- templates ------------------------------------------------------------

    @staticmethod
    def _model(models: Dict[tuple, SystemModel], key: tuple,
               build: Callable[[], SystemModel]) -> SystemModel:
        """The call's one model for template ``key``; builds draw
        nothing from the PRNG, so sharing leaves the stream intact."""
        system = models.get(key)
        if system is None:
            system = models[key] = build()
        return system

    def _surgery(self, index: int, rng: random.Random, tightened: bool,
                 models: Dict[tuple, SystemModel]) -> ModelScenario:
        def build() -> SystemModel:
            system = build_surgery_system()
            return tighten_administrator_policy(system) if tightened \
                else system

        system = self._model(models, ("surgery", tightened), build)
        variant = "tightened" if tightened else "baseline"
        users = self._users(index, system,
                            (MEDICAL_SERVICE, RESEARCH_SERVICE),
                            "EHRSchema", rng)
        return ModelScenario(
            name=f"surgery-{variant}#{index:03d}",
            family="surgery", variant=variant,
            system=system, users=users)

    def _loyalty(self, index: int, rng: random.Random,
                 models: Dict[tuple, SystemModel]) -> ModelScenario:
        system = self._model(models, ("loyalty",), build_loyalty_system)
        users = self._users(
            index, system,
            (CHECKOUT_SERVICE, OFFERS_SERVICE, ANALYTICS_SERVICE),
            "PurchaseSchema", rng)
        return ModelScenario(
            name=f"loyalty-baseline#{index:03d}",
            family="loyalty", variant="baseline",
            system=system, users=users)

    def _scaled(self, index: int, rng: random.Random,
                models: Dict[tuple, SystemModel]) -> ModelScenario:
        actors = rng.randint(2, 6)
        fields = rng.randint(3, 8)
        stores = rng.randint(1, 3)
        pseudonymise = rng.random() < 0.5
        system = self._model(
            models, ("scaled", actors, fields, stores, pseudonymise),
            lambda: build_scaled_system(actors=actors, fields=fields,
                                        stores=stores,
                                        pseudonymise=pseudonymise))
        variant = (f"a{actors}-f{fields}-s{stores}"
                   f"{'-anon' if pseudonymise else ''}")
        users = self._users(index, system,
                            (INTAKE_SERVICE, PROCESSING_SERVICE),
                            "RecordSchema", rng)
        return ModelScenario(
            name=f"scaled-{variant}#{index:03d}",
            family="scaled", variant=variant,
            system=system, users=users)

    # -- the stream ----------------------------------------------------------------

    def generate(self, count: int) -> List[ModelScenario]:
        """The first ``count`` scenarios of this seed's stream.

        Scenarios on the same template share one model object (see the
        class docstring); a later call builds its own.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        rng = random.Random(self.seed)
        models: Dict[tuple, SystemModel] = {}
        scenarios: List[ModelScenario] = []
        for index in range(count):
            kind = index % 4
            if kind == 0:
                scenarios.append(self._surgery(index, rng, False, models))
            elif kind == 1:
                scenarios.append(self._surgery(index, rng, True, models))
            elif kind == 2:
                scenarios.append(self._loyalty(index, rng, models))
            else:
                scenarios.append(self._scaled(index, rng, models))
        return scenarios
