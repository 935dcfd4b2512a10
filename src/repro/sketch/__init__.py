"""Probabilistic counting substrate (Flajolet-Martin sketches)."""

from repro.sketch.fm import estimate_rows, hash_items

__all__ = ["estimate_rows", "hash_items"]
