"""The one random stream of the package: Philox keyed by (seed, index)."""

from __future__ import annotations

import numpy as np


def philox(seed: int, index: int) -> np.random.Generator:
    """Generator for stream `index` of a run with `seed` (replication or resample)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
