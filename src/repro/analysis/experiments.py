"""Experiment repetition helpers.

The paper repeats each experiment three times to validate reproducibility
(§4.1, Fig. 6).  :func:`run_repetitions` runs a seeded experiment factory
once per repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence


@dataclass
class RepetitionResult:
    """Results of one repetition of an experiment."""

    repetition: int
    seed: int
    result: Any


def run_repetitions(
    factory: Callable[[int], Any],
    repetitions: int = 3,
    seeds: Optional[Sequence[int]] = None,
) -> list[RepetitionResult]:
    """Run ``factory(seed)`` once per repetition and collect the results.

    With ``seeds`` omitted, repetition ``i`` uses seed ``i`` — calling this
    twice therefore produces identical outcomes, which is what makes the
    reproducibility comparison meaningful.
    """
    if repetitions <= 0:
        raise ValueError("at least one repetition is required")
    if seeds is not None and len(seeds) != repetitions:
        raise ValueError("number of seeds must match the number of repetitions")
    chosen_seeds = list(seeds) if seeds is not None else list(range(repetitions))
    return [
        RepetitionResult(repetition=index, seed=seed, result=factory(seed))
        for index, seed in enumerate(chosen_seeds)
    ]
