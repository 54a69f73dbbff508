"""Where analyses get their LTSs from.

Every analysis that reads a generated LTS asks an :class:`LtsSource`
for it: ``lts_for(system, options)`` returns a frozen LTS, shareable
with every other reader of the same (model, options) pair. Who holds
the LTSs is the source's business:

- the batch engine's source is its stage-2 memo
  (:attr:`repro.engine.runner.BatchEngine.lts_cache`), shared by every
  job and thread worker of the engine;
- standalone callers (a population analyzer, a monitor pool, a
  one-off consent-change what-if) use a :class:`LocalLtsSource`, which
  generates each (system, options) pair once per source instance.

Analyzers only read what a source hands out; one that adds states or
transitions works on an :meth:`~repro.core.lts.LTS.fork`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .generation import GenerationOptions, ModelGenerator
from .lts import LTS


class LtsSource:
    """The protocol: a frozen LTS per (system, generation options)."""

    def lts_for(self, system, options: GenerationOptions) -> LTS:
        raise NotImplementedError


class LocalLtsSource(LtsSource):
    """A per-instance memo: one :class:`ModelGenerator` per system,
    one generation per (system, ``options.cache_key()``) pair.

    Keyed by ``id(system)``: the memo's generator holds its system, so
    the id cannot be reused while the entry lives. Unbounded — a
    standalone analysis touches a handful of consent combinations.
    """

    def __init__(self):
        self._generators: Dict[int, ModelGenerator] = {}
        self._memo: Dict[Tuple[int, tuple], LTS] = {}

    def lts_for(self, system, options: GenerationOptions) -> LTS:
        key = (id(system), options.cache_key())
        lts = self._memo.get(key)
        if lts is None:
            generator = self._generators.get(id(system))
            if generator is None:
                generator = self._generators[id(system)] = \
                    ModelGenerator(system)
            lts = self._memo[key] = generator.generate(options).freeze()
        return lts

    def __len__(self) -> int:
        """The number of LTSs generated (and held) so far."""
        return len(self._memo)
