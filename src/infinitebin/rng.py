"""Deterministic stream derivation on top of numpy's Philox generator.

Every random quantity in this package is drawn from a counter-based Philox
stream keyed by ``(seed, purpose, replica)``.  Streams are prefix-stable:
reading n uniforms and later re-reading n+m from a fresh generator with the
same key yields the same first n values, and n uniforms drawn over several
calls equal n drawn in one.  So a sampler may draw in blocks of any size
without changing the value at any index: perfect simulation reads each
replica's past letters from a prefix of its stream, redrawn at least twice
as long whenever a horizon outgrows it, and forward runs and graph samplers
draw in fixed chunks.  Identical keys give bit-identical streams on a fixed
numpy build; distribution inversion uses libm, so letter streams are
documented as reproducible per platform.  Philox is counter-based, so a key
and a counter alone define a stream: :func:`first_uniforms` re-keys one
generator per replica, resetting its counter and buffer, and reads the same
numbers a new generator would; it draws every past prefix, a block of
replicas at a time or one replica's longer prefix.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Purpose ids keep logically distinct streams disjoint even for equal seeds.
# Id 3 is retired (the stationary estimator draws no letters of its own);
# renumbering would change the key, and so the draws, of every later stream.
STREAM_FORWARD = 1   # forward-chain letters
STREAM_PAST = 2      # past letters for coupling-from-the-past (index i = time -i)
STREAM_GRAPH = 4     # random-DAG edge sampling
STREAM_CORPUS = 5    # randomized test corpora


#: Replica indices are the low 32 bits of a stream's key: 0 <= replica < 2^32.
MAX_REPLICAS = 1 << 32


def _key(seed: int, purpose: int, replica: int) -> np.ndarray:
    """Philox key of the stream (seed, purpose, replica)."""
    if not 0 <= replica < MAX_REPLICAS:
        raise ValueError("replica must be in [0, 2^32)")
    return np.array(
        [seed & _MASK64, ((purpose & 0xFFFFFFFF) << 32) | replica],
        dtype=np.uint64,
    )


def check_replica_count(replicas: int) -> None:
    """Reject a replica count whose indices 0..replicas-1 have no stream."""
    if not 1 <= replicas <= MAX_REPLICAS:
        raise ValueError(f"replicas must be in [1, 2^32], got {replicas}")


def stream(seed: int, purpose: int, replica: int = 0) -> np.random.Generator:
    """Generator for the Philox stream keyed by (seed, purpose, replica).

    Args:
        seed: user-facing 64-bit seed (any int; reduced mod 2^64).
        purpose: one of the STREAM_* constants.
        replica: replica index, < ``MAX_REPLICAS``.

    Returns:
        An independent ``np.random.Generator``; same arguments always yield
        the same stream.
    """
    key = _key(seed, purpose, replica)
    return np.random.Generator(np.random.Philox(key=key))


def first_uniforms(seed: int, purpose: int, replicas, n: int) -> np.ndarray:
    """The first n uniforms of each replica's stream, one row per replica.

    Row i is bit-identical to ``stream(seed, purpose, replicas[i]).random(n)``.
    One Philox serves every row: its state is reset to that of a new
    generator and then re-keyed, which skips the per-stream construction
    (mostly OS entropy that numpy seeds and then discards).
    """
    bits = np.random.Philox(key=_key(0, 0, 0))
    gen = np.random.Generator(bits)
    fresh = bits.state
    out = np.empty((len(replicas), n))
    for row, replica in zip(out, replicas):
        fresh["state"]["key"] = _key(seed, purpose, replica)
        bits.state = fresh
        gen.random(out=row)
    return out
