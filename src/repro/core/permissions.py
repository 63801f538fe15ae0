"""RAP/WAP way-permission registers (paper Section 2.2).

Each LLC way has a Read Access Permission register and a Write Access
Permission register with one bit per core.  The three architected
modes per (core, way) pair are:

=====  =====  =========================================
RAP    WAP    meaning
=====  =====  =========================================
1      1      full access — the way belongs to the core
1      0      read-only — the core is donating this way
0      0      no access
=====  =====  =========================================

Invariants (property-tested in ``tests/core/test_permissions.py``):
at most one core holds write permission on a way at any time, and at
most two cores hold read permission — two only while the way is in a
takeover transition (donor read-only + recipient full access).
"""

from __future__ import annotations


class WayPermissionFile:
    """The RAP/WAP register file for one shared cache.

    Permissions are stored as per-way bitmasks over cores.  The
    per-core way tuples that the hot probe path needs are cached and
    rebuilt lazily after any register change.
    """

    def __init__(self, n_ways: int, n_cores: int) -> None:
        if n_ways <= 0 or n_cores <= 0:
            raise ValueError(f"need positive ways/cores, got {n_ways}/{n_cores}")
        self.n_ways = n_ways
        self.n_cores = n_cores
        self.rap = [0] * n_ways
        self.wap = [0] * n_ways
        self._readable_cache: dict[int, tuple[int, ...]] = {}
        self._writable_cache: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Register mutation
    # ------------------------------------------------------------------
    def revoke_read(self, way: int, core: int) -> None:
        """Clear RAP[way][core]."""
        self.rap[way] &= ~(1 << core)
        self._invalidate()

    def revoke_write(self, way: int, core: int) -> None:
        """Clear WAP[way][core]."""
        self.wap[way] &= ~(1 << core)
        self._invalidate()

    def grant_full(self, way: int, core: int) -> None:
        """Give ``core`` read and write access to ``way``."""
        bit = 1 << core
        self.rap[way] |= bit
        self.wap[way] |= bit
        self._invalidate()

    def revoke_all(self, way: int) -> None:
        """Clear every core's permissions on ``way`` (power gating)."""
        self.rap[way] = 0
        self.wap[way] = 0
        self._invalidate()

    def _invalidate(self) -> None:
        self._readable_cache.clear()
        self._writable_cache.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def readable_ways(self, core: int) -> tuple[int, ...]:
        """Ways ``core`` must consult on a probe (cached)."""
        cached = self._readable_cache.get(core)
        if cached is None:
            bit = 1 << core
            cached = tuple(w for w in range(self.n_ways) if self.rap[w] & bit)
            self._readable_cache[core] = cached
        return cached

    def writable_ways(self, core: int) -> tuple[int, ...]:
        """Ways ``core`` may fill into (cached)."""
        cached = self._writable_cache.get(core)
        if cached is None:
            bit = 1 << core
            cached = tuple(w for w in range(self.n_ways) if self.wap[w] & bit)
            self._writable_cache[core] = cached
        return cached

    # ------------------------------------------------------------------
    # Invariant checking (used by tests and debug assertions)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if the architected modes are violated."""
        for way in range(self.n_ways):
            writers = bin(self.wap[way]).count("1")
            readers = bin(self.rap[way]).count("1")
            assert writers <= 1, f"way {way}: {writers} cores hold write permission"
            assert readers <= 2, f"way {way}: {readers} cores hold read permission"
            # WAP implies RAP: a full owner must also be able to read.
            assert self.wap[way] & ~self.rap[way] == 0, (
                f"way {way}: write permission without read permission"
            )
            if readers == 2:
                assert writers == 1, (
                    f"way {way}: two readers require an in-flight transition"
                )
