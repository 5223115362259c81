"""Deterministic stream derivation on top of numpy's Philox generator.

Every random quantity in this package is drawn from a counter-based Philox
stream keyed by ``(seed, purpose, replica)``.  Streams are prefix-stable:
reading n uniforms and later re-reading n+m from a fresh generator with the
same key yields the same first n values, and n uniforms drawn over several
calls equal n drawn in one.  So a sampler may draw in blocks of any size
without changing the value at any index: perfect simulation stores each
replica's past letters, drawing a block ahead of the horizon it needs, and
forward runs and graph samplers draw in fixed chunks.  Identical keys give
bit-identical streams on a fixed numpy build; distribution inversion uses
libm, so letter streams are documented as reproducible per platform.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Purpose ids keep logically distinct streams disjoint even for equal seeds.
STREAM_FORWARD = 1   # forward-chain letters
STREAM_PAST = 2      # past letters for coupling-from-the-past (index i = time -i)
STREAM_PROBE = 3     # fresh one-step letters for the stationary estimator
STREAM_GRAPH = 4     # random-DAG edge sampling
STREAM_CORPUS = 5    # randomized test corpora


def stream(seed: int, purpose: int, replica: int = 0) -> np.random.Generator:
    """Generator for the Philox stream keyed by (seed, purpose, replica).

    Args:
        seed: user-facing 64-bit seed (any int; reduced mod 2^64).
        purpose: one of the STREAM_* constants.
        replica: replica index, < 2^32.

    Returns:
        An independent ``np.random.Generator``; same arguments always yield
        the same stream.
    """
    if not 0 <= replica < (1 << 32):
        raise ValueError("replica must be in [0, 2^32)")
    key = np.array(
        [seed & _MASK64, ((purpose & 0xFFFFFFFF) << 32) | replica],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
