"""Flajolet-Martin (FM) distinct-count sketches as one ``uint32`` bit matrix.

Section 3.5 of the paper replaces the per-site trajectory-cover lists with FM
sketches so that Inc-Greedy's marginal-utility updates become cheap bitwise
OR operations, and Section 4.1 counts Greedy-GDSP coverage the same way.
Each sketch is a 32-bit word (the paper's choice); ``f`` independent copies
with different hash seeds are averaged to reduce the estimation error
(Table 8 studies the effect of ``f``).

A set of items is one row of ``f`` words, and a collection of sets is an
``(n, f)`` ``uint32`` matrix: :func:`hash_items` gives every item its own
one-bit-per-copy row, the sketch of a set is the bitwise OR of its items'
rows (so the union of two sets is the OR of their rows), and
:func:`estimate_rows` estimates every row at once.

The classic FM estimator for a single bit vector is ``2^R / phi`` where ``R``
is the index of the lowest unset bit and ``phi ≈ 0.77351`` is the FM
correction constant.  With ``f`` copies the mean of the ``R`` values is used
before exponentiation, as in the original paper by Flajolet and Martin.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["hash_items", "estimate_rows"]

_PHI = 0.77351
_WORD_BITS = 32


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix used as the per-copy hash function.

    ``uint64`` array arithmetic wraps modulo ``2^64``, which is the mix's
    intended overflow.
    """
    values = values + np.uint64(0x9E3779B97F4A7C15)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def hash_items(items: np.ndarray, num_sketches: int) -> np.ndarray:
    """The ``(len(items), f)`` ``uint32`` sketch rows of single items.

    Copy ``c`` of item ``x`` hashes ``x ^ (c * 0x5BD1E995 + 0x1B873593)``
    with splitmix64 and sets the bit at the index of the hash's lowest set
    bit, capped at 31 (a zero hash also sets bit 31).
    """
    require_positive(num_sketches, "num_sketches")
    items = np.asarray(items, dtype=np.int64).astype(np.uint64)
    salts = np.arange(num_sketches, dtype=np.uint64) * np.uint64(0x5BD1E995)
    salts += np.uint64(0x1B873593)
    hashed = _splitmix64(items[:, np.newaxis] ^ salts[np.newaxis, :])
    # the trailing zeros of a word are the set bits of ~h & (h - 1); a zero
    # hash counts 64 and is capped like any other
    rho = np.minimum(np.bitwise_count(~hashed & (hashed - np.uint64(1))), _WORD_BITS - 1)
    return np.left_shift(np.uint32(1), rho.astype(np.uint32))


def estimate_rows(bits: np.ndarray) -> np.ndarray:
    """FM cardinality estimate of every row of an ``(n, f)`` bit matrix.

    A single ``(f,)`` row gives a 0-d estimate.
    """
    bits = np.asarray(bits, dtype=np.uint32)
    # the lowest unset bit of a word is its count of trailing ones, the set
    # bits of w & ~(w + 1); a full word (w + 1 wraps to 0) counts 32
    lowest_unset = np.bitwise_count(bits & ~(bits + np.uint32(1)))
    return np.power(2.0, lowest_unset.sum(axis=-1) / bits.shape[-1]) / _PHI
