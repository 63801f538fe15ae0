"""Set-associative cache substrate.

This subpackage models the memory system the paper's evaluation runs
on: cache geometry and address decomposition, a set-associative cache
stored as flat per-line columns (tag, owner, dirty, true-LRU recency
stamp), UCP's partition-aware victim selection, and a banked DRAM
model with writeback/bandwidth accounting.

It holds state, not the access path.  The private-L1 / shared-L2
access of Table 2 runs in :class:`repro.sim.simulator.CMPSimulator`
(``_l1_access``, through the cache's own per-set operations), in
:meth:`repro.partitioning.base.BaseSharedCachePolicy.access_fast`
and in the C kernel, the last two indexing these columns in place.
"""

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import MainMemory
from repro.cache.replacement import PartitionAwareVictimSelector
from repro.cache.set_associative import SetAssociativeCache

__all__ = [
    "CacheGeometry",
    "MainMemory",
    "PartitionAwareVictimSelector",
    "SetAssociativeCache",
]
