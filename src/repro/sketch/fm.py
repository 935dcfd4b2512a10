"""Flajolet-Martin (FM) distinct-count sketches.

Section 3.5 of the paper replaces the per-site trajectory-cover lists with FM
sketches so that Inc-Greedy's marginal-utility updates become cheap bitwise
OR operations.  Each sketch is a 32-bit word (the paper's choice); ``f``
independent copies with different hash seeds are averaged to reduce the
estimation error (Table 8 studies the effect of ``f``).

The classic FM estimator for a single bit vector is ``2^R / phi`` where ``R``
is the index of the lowest unset bit and ``phi ≈ 0.77351`` is the FM
correction constant.  With ``f`` copies the mean of the ``R`` values is used
before exponentiation, as in the original paper by Flajolet and Martin.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.utils.validation import require, require_positive

__all__ = ["FMSketch", "FMSketchFamily"]

_PHI = 0.77351
_WORD_BITS = 32
_MASK = (1 << _WORD_BITS) - 1


def _splitmix64(value: int) -> int:
    """Deterministic 64-bit mix used as the per-copy hash function."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def _rho(hashed: int) -> int:
    """Index of the least-significant set bit (0-based), capped at 31."""
    if hashed == 0:
        return _WORD_BITS - 1
    return min((hashed & -hashed).bit_length() - 1, _WORD_BITS - 1)


class FMSketch:
    """A family-of-one FM sketch; see :class:`FMSketchFamily` for ``f`` copies."""

    __slots__ = ("seed", "bits")

    def __init__(self, seed: int = 0, bits: int = 0) -> None:
        self.seed = seed
        self.bits = bits & _MASK

    def add(self, item: int) -> None:
        """Hash *item* and set the corresponding bit."""
        hashed = _splitmix64(item ^ (self.seed * 0x5BD1E995 + 0x1B873593))
        self.bits |= 1 << _rho(hashed)

    def union(self, other: "FMSketch") -> "FMSketch":
        """Return the sketch of the union of the two underlying sets."""
        require(self.seed == other.seed, "can only union sketches with equal seeds")
        return FMSketch(self.seed, self.bits | other.bits)

    def union_in_place(self, other: "FMSketch") -> None:
        """OR *other* into this sketch."""
        require(self.seed == other.seed, "can only union sketches with equal seeds")
        self.bits |= other.bits

    def lowest_unset_bit(self) -> int:
        """Return the index of the lowest zero bit of the bit vector."""
        bits = self.bits
        idx = 0
        while bits & 1:
            bits >>= 1
            idx += 1
        return idx

    def estimate(self) -> float:
        """FM cardinality estimate from this single copy."""
        return (2 ** self.lowest_unset_bit()) / _PHI

    def copy(self) -> "FMSketch":
        """Return an independent copy."""
        return FMSketch(self.seed, self.bits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FMSketch)
            and other.seed == self.seed
            and other.bits == self.bits
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"FMSketch(seed={self.seed}, bits={self.bits:032b})"


class FMSketchFamily:
    """``f`` independent FM sketches summarising one set of integer items.

    The family supports insertion, union (bitwise OR across matching copies)
    and cardinality estimation.  All copies are stored in a single NumPy
    ``uint32`` vector so that unions across many families vectorise.
    """

    __slots__ = ("num_copies", "bits")

    def __init__(self, num_copies: int = 30, bits: np.ndarray | None = None) -> None:
        require_positive(num_copies, "num_copies")
        self.num_copies = num_copies
        if bits is None:
            self.bits = np.zeros(num_copies, dtype=np.uint32)
        else:
            require(len(bits) == num_copies, "bits length must equal num_copies")
            self.bits = bits.astype(np.uint32, copy=True)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_items(cls, items: Iterable[int], num_copies: int = 30) -> "FMSketchFamily":
        """Build a family summarising *items*."""
        family = cls(num_copies)
        for item in items:
            family.add(int(item))
        return family

    def add(self, item: int) -> None:
        """Insert *item* into every copy."""
        for copy_idx in range(self.num_copies):
            hashed = _splitmix64(item ^ (copy_idx * 0x5BD1E995 + 0x1B873593))
            self.bits[copy_idx] |= np.uint32(1 << _rho(hashed))

    # ------------------------------------------------------------------ #
    def union(self, other: "FMSketchFamily") -> "FMSketchFamily":
        """Return the family summarising the union of the two sets."""
        require(
            other.num_copies == self.num_copies,
            "families must have the same number of copies",
        )
        return FMSketchFamily(self.num_copies, np.bitwise_or(self.bits, other.bits))

    def union_in_place(self, other: "FMSketchFamily") -> None:
        """OR *other* into this family."""
        require(
            other.num_copies == self.num_copies,
            "families must have the same number of copies",
        )
        np.bitwise_or(self.bits, other.bits, out=self.bits)

    # ------------------------------------------------------------------ #
    def estimate(self) -> float:
        """Estimate the number of distinct inserted items."""
        return self.estimate_from_bits(self.bits)

    @staticmethod
    def estimate_from_bits(bits: np.ndarray) -> float:
        """Cardinality estimate from a raw ``uint32`` bit array of copies."""
        lowest_unset = FMSketchFamily._lowest_unset_bits(bits)
        return float(2.0 ** np.mean(lowest_unset) / _PHI)

    @staticmethod
    def _lowest_unset_bits(bits: np.ndarray) -> np.ndarray:
        inverted = ~bits
        # lowest set bit of the inverted word == lowest unset bit of the word
        isolated = inverted & (-inverted.astype(np.int64)).astype(np.uint32)
        # log2 of an isolated bit gives its index; isolated is never 0 because
        # a 32-bit word cannot have all 2^32 positions set by _rho (capped 31)
        # unless every bit is set, in which case report 32.
        result = np.zeros(len(bits), dtype=np.float64)
        nonzero = isolated != 0
        result[nonzero] = np.log2(isolated[nonzero])
        result[~nonzero] = _WORD_BITS
        return result

    def copy(self) -> "FMSketchFamily":
        """Return an independent copy of the family."""
        return FMSketchFamily(self.num_copies, self.bits.copy())

    def is_empty(self) -> bool:
        """Return ``True`` if no item has been inserted."""
        return not self.bits.any()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FMSketchFamily)
            and other.num_copies == self.num_copies
            and bool(np.array_equal(other.bits, self.bits))
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"FMSketchFamily(f={self.num_copies}, estimate={self.estimate():.1f})"
