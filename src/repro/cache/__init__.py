"""Set-associative cache substrate.

This subpackage models the memory system the paper's evaluation runs
on: cache geometry and address decomposition, a set-associative cache
stored as flat per-line columns (tag, owner, dirty, true-LRU recency
stamp), UCP's partition-aware victim selection, a banked DRAM model
with writeback/bandwidth accounting, and the private-L1 / shared-L2
hierarchy from Table 2 of the paper.
"""

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy, HierarchyAccess
from repro.cache.line import CacheLine
from repro.cache.memory import MainMemory
from repro.cache.replacement import PartitionAwareVictimSelector
from repro.cache.set_associative import AccessResult, SetAssociativeCache

__all__ = [
    "AccessResult",
    "CacheGeometry",
    "CacheHierarchy",
    "CacheLine",
    "HierarchyAccess",
    "MainMemory",
    "PartitionAwareVictimSelector",
    "SetAssociativeCache",
]
