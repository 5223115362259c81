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
and a counter alone define each output word: :func:`first_uniforms` runs
Philox4x64-10 in numpy over a whole block of replicas' keys and counters at
once and yields, bit for bit, what numpy's generator reads from each
replica's stream (the tests compare the two).  Perfect simulation draws its
blocks of short past prefixes with it; a replica that needs a longer prefix
reads it from its own :func:`stream`.
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
    _check_replicas((replica,))
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


def _check_replicas(replicas) -> None:
    """Reject a replica index outside [0, 2^32): it has no stream."""
    if len(replicas) and not 0 <= min(replicas) <= max(replicas) < MAX_REPLICAS:
        raise ValueError("replica must be in [0, 2^32)")


def _limbs(m: int) -> tuple:
    """A 64-bit multiplier and its high and low 32-bit limbs, as uint64."""
    return np.uint64(m), np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): the round multipliers with their 32-bit limbs, and the key
# increments.
_M0, _M1 = _limbs(0xD2E7470EE14C6C93), _limbs(0xCA5A826395121157)
_W0, _W1 = 0x9E3779B97F4A7C15, np.uint64(0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)


def _mulhilo(m: tuple, x: np.ndarray) -> tuple:
    """(high, low) 64-bit words of the 128-bit product m * x, per element.

    The low word is the wrapping uint64 product; the high word sums the
    32-bit limb products, none of which can overflow 64 bits.
    """
    m64, m_hi, m_lo = m
    x_hi, x_lo = x >> 32, x & _LO32
    mid = m_hi * x_lo
    cross = (m_lo * x_lo >> 32) + (mid & _LO32) + m_lo * x_hi
    return m_hi * x_hi + (mid >> 32) + (cross >> 32), m64 * x


def first_uniforms(seed: int, purpose: int, replicas, n: int) -> np.ndarray:
    """The first n uniforms of each replica's stream, one row per replica.

    Row i is bit-identical to ``stream(seed, purpose, replicas[i]).random(n)``:
    numpy's Philox turns counter c = 1, 2, ... into four 64-bit words x,
    and ``random`` returns ``(x >> 11) * 2**-53``.  This runs those ten
    Philox4x64 rounds in numpy over every (replica, counter) lane at once,
    each row keyed by its replica, so a block of rows costs a fixed few
    hundred array operations rather than one re-keyed generator per row.
    The tests check it bit for bit against numpy's generator.
    """
    _check_replicas(replicas)
    k0 = seed & _MASK64
    k1 = np.array(replicas, dtype=np.uint64).reshape(-1, 1)
    k1 |= np.uint64((purpose & 0xFFFFFFFF) << 32)
    zero = np.zeros((1, 1), dtype=np.uint64)
    # counter words 1-3 stay 0 below 2^64 counters; broadcasting keeps the
    # first rounds' lanes that do not yet depend on the key small
    counters = (n + 3) // 4
    x = [np.arange(1, counters + 1, dtype=np.uint64).reshape(1, -1),
         zero, zero, zero]
    for _round in range(10):
        hi0, lo0 = _mulhilo(_M0, x[0])
        hi1, lo1 = _mulhilo(_M1, x[2])
        x = [hi1 ^ x[1] ^ np.uint64(k0), lo1, hi0 ^ x[3] ^ k1, lo0]
        k0 = (k0 + _W0) & _MASK64
        k1 = k1 + _W1
    words = np.stack(np.broadcast_arrays(*x), axis=-1)
    return (words.reshape(len(k1), 4 * counters)[:, :n] >> 11) * 2.0**-53
