"""Counter-based random streams.

Every random draw made by the batch-forming schemes is a pure function of
``(seed, stream, slot)``: there is no hidden generator state, so a draw at
iteration t is reproducible regardless of execution order, and independent
trajectories can run concurrently or vectorized without interfering.

The construction is the splitmix64 finalizer (Stafford mix 13) applied to a
weyl-sequence counter, the same scheme SplittableRandom uses.  All helpers
operate on uint64 ndarrays; Python-int seeds are folded in modulo 2**64.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_ROUND = 0xD1342543DE82EF95
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / float(1 << 53)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; input and output are uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def stream_keys(seeds, stream) -> np.ndarray:
    """One 64-bit key per (seed, stream) pair.

    ``stream`` separates independent uses of the same seed (e.g. the draw at
    iteration t uses stream t).  One stream gives keys of shape (S,); an
    array of K streams gives (S, K), column k equal to the keys of stream k.
    """
    s = np.atleast_1d(np.asarray(seeds)).astype(np.uint64)
    k = _mix(s * _GOLDEN + _GOLDEN)
    # uint64 products wrap, which is (stream * _ROUND) mod 2**64
    offset = np.asarray(stream).astype(np.uint64) * np.uint64(_ROUND)
    return _mix(k.reshape(k.shape + (1,) * offset.ndim) + offset)


def raw64(keys: np.ndarray, slots, round_: int = 0) -> np.ndarray:
    """uint64 values at the given slots of each key's stream.

    ``keys`` has shape (S,), ``slots`` any integer array shape (m,) or (S, m);
    the result broadcasts to (S, m).  ``round_`` derives replacement values
    for rejection resampling.
    """
    sl = np.asarray(slots).astype(np.uint64)
    if sl.ndim == 1:
        sl = sl[None, :]
    ctr = keys[:, None] + (sl + np.uint64(1)) * _GOLDEN
    if round_:
        ctr = ctr + np.uint64((int(round_) * _ROUND) & _MASK64)
    return _mix(ctr)


def uniforms(keys: np.ndarray, slots, round_: int = 0) -> np.ndarray:
    """float64 in [0, 1) with 53 random bits."""
    return (raw64(keys, slots, round_) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def randints(keys: np.ndarray, slots, n) -> np.ndarray:
    """Exactly uniform integers in [0, n) for each (key, slot) pair.

    ``n`` is one modulus, or an array of moduli that broadcasts against the
    slots; each value depends only on its key, slot and modulus.  Uses the
    multiply-shift bound (Lemire) on the top 32 bits with rejection, so the
    distribution is exactly uniform.  The rejection branch fires with
    probability < n / 2**32 and resamples from derived rounds.
    """
    n = np.asarray(n)
    if n.size and not (n.min() >= 1 and n.max() <= (1 << 31)):
        raise ValueError(f"modulus out of range: {n}")
    nn = n.astype(np.uint64)
    lo_mask = np.uint64(0xFFFFFFFF)
    threshold = (np.uint64(1 << 32) - nn) % nn
    x = raw64(keys, slots) >> np.uint64(32)
    prod = x * nn
    out = (prod >> np.uint64(32)).astype(np.int64)
    reject = (prod & lo_mask) < threshold
    round_ = 0
    while np.any(reject):
        round_ += 1
        x = raw64(keys, slots, round_) >> np.uint64(32)
        prod = x * nn
        out = np.where(reject, (prod >> np.uint64(32)).astype(np.int64), out)
        reject = reject & ((prod & lo_mask) < threshold)
    return out


def weighted_indices(keys: np.ndarray, slots, cumulative: np.ndarray) -> np.ndarray:
    """Indices drawn from the distribution with the given cumulative weights."""
    u = uniforms(keys, slots)
    idx = np.searchsorted(cumulative, u, side="right")
    return np.minimum(idx, len(cumulative) - 1).astype(np.int64)
