"""Fabrics and scope attribution used by the fleet search.

The degree and the kind of multi-GPU partitioning (paper sections 3.4
and 6.7) are chosen by measurement in :mod:`repro.fleet`; this package
holds the pieces it builds on: the interconnect models, the data-parallel
cost terms, and the per-layer-scope time attribution of pipeline stages.
"""

from .data_parallel import OVERLAP_FRACTION, gradient_bytes
from .interconnect import INTERCONNECTS, Interconnect, NVLINK, PCIE
from .pipeline import attribute_to_scopes, stage_unit_times

__all__ = [
    "OVERLAP_FRACTION", "gradient_bytes",
    "INTERCONNECTS", "Interconnect", "NVLINK", "PCIE",
    "attribute_to_scopes", "stage_unit_times",
]
