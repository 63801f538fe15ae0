"""Private-L1 / shared-L2 cache hierarchy (Table 2).

Each core has a private, write-back, write-allocate L1 data cache
modelled with plain LRU.  L1 misses and L1 dirty evictions reach the
shared last-level cache through whatever partitioning policy is
installed; the policy returns hit/miss, the number of tag ways it had
to probe (the dynamic-energy quantity of the paper) and any memory
latency it incurred.

Instruction fetches are assumed to hit the L1 instruction cache: the
workload substrate generates *data-reference* traces, which is the
standard trace-driven simplification and does not affect any result in
the paper (all evaluated quantities are LLC-derived).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.cache.geometry import CacheGeometry
from repro.cache.set_associative import SetAssociativeCache


class SharedCachePolicy(Protocol):
    """What the hierarchy needs from a partitioning policy."""

    def access(self, core: int, line_address: int, is_write: bool, now: int) -> "LLCOutcome":
        """Perform one LLC access on behalf of ``core``."""


@dataclass(frozen=True)
class LLCOutcome:
    """Result of one shared-cache access.

    Attributes
    ----------
    hit:
        Whether the access hit in the LLC.
    ways_probed:
        Tag ways consulted — the per-access dynamic-energy driver.
    memory_latency:
        Extra cycles spent fetching from DRAM (0 on a hit).
    """

    hit: bool
    ways_probed: int
    memory_latency: int = 0


@dataclass(frozen=True)
class HierarchyAccess:
    """Result of a full hierarchy access from a core."""

    latency: int
    l1_hit: bool
    llc_hit: bool | None  # None when the access was satisfied by L1
    llc_ways_probed: int = 0


class CacheHierarchy:
    """Per-core L1s in front of a shared, policy-managed LLC."""

    def __init__(
        self,
        n_cores: int,
        l1_geometry: CacheGeometry,
        l1_latency: int,
        l2_latency: int,
        llc_policy: SharedCachePolicy,
    ) -> None:
        self.n_cores = n_cores
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.llc_policy = llc_policy
        self.l1 = [
            SetAssociativeCache(l1_geometry, track_copies=False)
            for _ in range(n_cores)
        ]
        self.l1_hits = [0] * n_cores
        self.l1_misses = [0] * n_cores
        self.l1_writebacks = [0] * n_cores

    def access(self, core: int, line_address: int, is_write: bool, now: int) -> HierarchyAccess:
        """Issue one data reference from ``core`` at cycle ``now``."""
        l1 = self.l1[core]
        hit, way, set_index = l1.probe(line_address)
        if hit:
            l1.touch(set_index, way)
            if is_write:
                l1.dirty[set_index * l1.ways + way] = 1
            self.l1_hits[core] += 1
            return HierarchyAccess(latency=self.l1_latency, l1_hit=True, llc_hit=None)

        self.l1_misses[core] += 1
        # Fetch the line from the shared LLC (write-allocate).
        outcome = self.llc_policy.access(core, line_address, False, now)
        # Make room in L1, writing back the victim through the LLC.
        victim_way = l1.victim(set_index)
        result = l1.fill(line_address, core, is_write, victim_way)
        if result.evicted_dirty and result.evicted_tag is not None:
            victim_address = l1.geometry.rebuild_line_address(result.evicted_tag, set_index)
            self.l1_writebacks[core] += 1
            self.llc_policy.access(core, victim_address, True, now)
        latency = self.l1_latency + self.l2_latency + outcome.memory_latency
        return HierarchyAccess(
            latency=latency,
            l1_hit=False,
            llc_hit=outcome.hit,
            llc_ways_probed=outcome.ways_probed,
        )
