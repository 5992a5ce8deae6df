"""Data-parallel cost terms shared by the fleet search (section 3.4).

The fleet measurer (``repro.fleet.measure``) prices a data-parallel step
as the slowest replica's measured compute plus the exposed part of the
gradient all-reduce; this module holds the two model-independent pieces
of that price.
"""

from __future__ import annotations

#: fraction of the all-reduce hidden under the backward pass by bucketed
#: overlap (gradients for early layers are ready while later layers still
#: compute); the residue is exposed at the end of the step
OVERLAP_FRACTION = 0.6


def gradient_bytes(graph) -> int:
    """Bytes all-reduced per step: one gradient per parameter."""
    return sum(n.spec.size_bytes for n in graph.params())
