"""Computational-geometry kernels behind the refinement predicates."""

from repro.geometry.algorithms import distance, measures, pairwise, predicates, segments

__all__ = ["distance", "measures", "pairwise", "predicates", "segments"]
