"""Seeded, named random-number streams for reproducible experiments.

Each subsystem (network loss, processing delay, boot times, ...) draws from
its own named stream so that adding randomness to one component does not
perturb the sequence observed by another.  This is what makes the
reproducibility experiment (Fig. 6) meaningful: repeated runs with the same
seed produce identical traces, different seeds produce statistically similar
ones.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RandomStreams:
    """A family of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the named stream."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a new stream family, e.g. one per repetition of a run."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "little"))
