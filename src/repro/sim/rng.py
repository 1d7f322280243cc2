"""Seeded, named random-number streams for reproducible experiments.

Each subsystem (network loss, processing delay, boot times, ...) draws from
its own named stream so that adding randomness to one component does not
perturb the sequence observed by another.  This is what makes the
reproducibility experiment (Fig. 6) meaningful: repeated runs with the same
seed produce identical traces, different seeds produce statistically similar
ones.

A variate that belongs to an identity — a machine's seed, the noise of a
host's k-th usage sample — is instead a pure function of its key
(:func:`keyed`), so neither draw order nor the process that computes it can
move it.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = (1 << 64) - 1
#: splitmix64's increment: the 64-bit golden ratio.
_GAMMA = 0x9E3779B97F4A7C15


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


def key_root(rng: np.random.Generator) -> int:
    """The 63-bit root of keyed draws, read off how ``rng`` was seeded.

    It comes from the generator's seed sequence, so reading it never
    advances ``rng`` and gives the same root before and after any draw.
    """
    return int(rng.bit_generator.seed_seq.generate_state(1, np.uint64)[0]) >> 1


def keyed(root, *key):
    """A 64-bit word that is a pure function of ``(root, *key)``.

    Each key part is folded in by one round of the splitmix64 finaliser.  A
    part is an integer (negative ones wrap modulo 2**64) or an integer
    array; with arrays the result is a ``uint64`` array, element by element
    equal to the scalar result.
    """
    word = root
    for part in key:
        if isinstance(part, np.ndarray):
            part = part.astype(np.int64).view(np.uint64)
        else:
            part = int(part) & _MASK
        word = (word ^ part) + _GAMMA & _MASK
        word = (word ^ word >> 30) * 0xBF58476D1CE4E5B9 & _MASK
        word = (word ^ word >> 27) * 0x94D049BB133111EB & _MASK
        word ^= word >> 31
    return word

