"""Banked main-memory model with writeback/bandwidth accounting.

Table 2 of the paper: 8 DRAM banks, 400-cycle latency, 64 outstanding
requests.  We model per-bank occupancy (a request holds its bank for a
fixed service time) so that flush bursts — exactly what Figure 16
measures — contend with demand fetches.  Every writeback is also
recorded into a time-bucketed histogram so the flush-bandwidth
timeline after a partitioning decision can be reproduced.
"""

from __future__ import annotations

from array import array
from collections import defaultdict


class MainMemory:
    """DRAM with ``n_banks`` independent banks.

    A demand read completes after ``latency`` cycles plus any queueing
    delay on its bank; the bank stays busy for ``bank_busy`` cycles.
    Demand reads are charged where LLC misses happen, inline in
    :meth:`~repro.partitioning.base.BaseSharedCachePolicy.access_fast`
    (and the C kernel), against :attr:`_bank_free_at`.  Writebacks
    (flushes) are fire-and-forget from the core's point of view but
    still occupy the bank, so heavy flushing delays demand fetches —
    the performance cost of Dynamic CPE's immediate flushes.
    """

    def __init__(
        self,
        latency: int = 400,
        n_banks: int = 8,
        bank_busy: int = 40,
        line_address_bank_shift: int = 0,
    ) -> None:
        if n_banks <= 0:
            raise ValueError(f"need at least one bank, got {n_banks}")
        self.latency = latency
        self.n_banks = n_banks
        self.bank_busy = bank_busy
        self._bank_shift = line_address_bank_shift
        #: cycle each bank frees up; an ``array('q')`` the C kernel
        #: shares in place
        self._bank_free_at = array("q", [0]) * n_banks
        # Statistics.
        self.reads = 0
        self.writebacks = 0
        self.read_stall_cycles = 0
        #: cycle-bucket -> number of lines written back in that bucket;
        #: bucket width is set by :attr:`flush_bucket_cycles`.
        self.flush_bucket_cycles = 250_000
        self.flush_timeline: dict[int, int] = defaultdict(int)

    def _bank_of(self, line_address: int) -> int:
        return (line_address >> self._bank_shift) % self.n_banks

    # ------------------------------------------------------------------
    # Writebacks / flushes
    # ------------------------------------------------------------------
    def writeback(self, line_address: int, now: int) -> None:
        """Write a dirty line back to memory (asynchronous to the core)."""
        bank = self._bank_of(line_address)
        start = max(now, self._bank_free_at[bank])
        self._bank_free_at[bank] = start + self.bank_busy
        self.writebacks += 1
        self.flush_timeline[now // self.flush_bucket_cycles] += 1

    def writeback_burst(self, line_addresses: list[int], now: int) -> int:
        """Write back many lines at once (CPE's immediate flush).

        Returns the number of cycles until the burst drains, which the
        caller may charge as a stall.  The burst is spread round-robin
        over the banks.
        """
        if not line_addresses:
            return 0
        finish = now
        for line_address in line_addresses:
            bank = self._bank_of(line_address)
            start = max(now, self._bank_free_at[bank])
            self._bank_free_at[bank] = start + self.bank_busy
            finish = max(finish, start + self.bank_busy)
            self.writebacks += 1
            self.flush_timeline[now // self.flush_bucket_cycles] += 1
        return finish - now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Clear counters (bank state is kept — it is microarchitectural)."""
        self.reads = 0
        self.writebacks = 0
        self.read_stall_cycles = 0
        self.flush_timeline = defaultdict(int)

    def flush_series(self, horizon_buckets: int) -> list[int]:
        """Flush counts for buckets ``0..horizon_buckets-1`` (Figure 16)."""
        return [self.flush_timeline.get(b, 0) for b in range(horizon_buckets)]
