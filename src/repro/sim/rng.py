"""Seeded randomness for simulations and workload generators.

Every experiment takes an explicit seed; nothing in the library touches
the global :mod:`random` state, so two runs with the same seed produce
byte-identical results.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def stable_seed(seed: int, label: str) -> int:
    """Mix *label* into *seed* with a process-stable digest.

    Built on :func:`zlib.crc32`, never :func:`hash`: ``hash(str)`` is
    salted per process (``PYTHONHASHSEED``), so seeding with it silently
    breaks reproducibility across runs — every "seeded" experiment would
    draw different streams in different interpreter processes.
    """
    return (seed ^ zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF


class SeededRng:
    """A thin, explicit wrapper around :class:`random.Random`."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        return self._rng.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(items, k)

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival time with the given rate."""
        return self._rng.expovariate(rate)

    def coin(self, probability: float) -> bool:
        """True with the given probability."""
        return self._rng.random() < probability
