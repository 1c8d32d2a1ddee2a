"""Seeded, splittable random number streams.

Every sampler in this package takes an explicit ``numpy.random.Generator``.
Streams are derived from a 64-bit master seed through a SeedSequence spawn
key, and each runs on the SFC64 bit generator.  Independence between
replicates comes from the spawn key, so replicate r of a run always sees the
same stream however the replicates are scheduled:

    seed_r = SeedSequence(entropy=master, spawn_key=(r,))
"""

import numpy as np

__all__ = ["derive_rng", "derive_seedseq"]


def derive_seedseq(master: int, *path: int) -> np.random.SeedSequence:
    """Seed sequence for the stream addressed by ``path`` under ``master``."""
    return np.random.SeedSequence(entropy=int(master), spawn_key=tuple(int(p) for p in path))


def derive_rng(master: int, *path: int) -> np.random.Generator:
    """SFC64 stream for (master, *path), seeded by its spawn key; same inputs, same stream."""
    return np.random.Generator(np.random.SFC64(derive_seedseq(master, *path)))
