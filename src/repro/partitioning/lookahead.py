"""Threshold-extended UCP lookahead allocation (paper Algorithm 1).

The classic UCP lookahead algorithm repeatedly finds the application
with the highest marginal utility (miss reduction per extra way,
maximised over every possible extension of its current allocation) and
awards it the ways that realise that utility, until every way is
handed out.

The paper modifies the loop with a threshold ``T``: ways keep being
awarded only while the marginal benefit remains *significant*, so that
low-utility ways are left unallocated and can be power-gated.

As printed, the paper's pseudocode gates allocation on
``|prev_max_mu - max_mu| < prev_max_mu * T`` with ``prev_max_mu = 0``
initially, which never admits the first allocation for any ``T`` and
contradicts the stated behaviour of the extremes ("a threshold value
of 0 corresponds to an allocation of ways in the same manner as UCP";
"a threshold value of 1 would mean that no ways were ever allocated").
We implement the clearly intended semantics:

* the first winning marginal utility is remembered as ``mu_peak``;
* allocation continues while the current winner's utility is at least
  ``T * mu_peak`` (and positive, when ``T > 0``);
* ``T = 0`` degenerates to exact UCP lookahead — every way is
  allocated, including zero-utility ones;
* ``T = 1`` allocates the first winner and any later one whose utility
  equals the peak;
* any ``T > 1`` allocates nothing beyond the per-core minimum, so every
  such ``T`` is the same setting: :func:`check_threshold` confines each
  configured ``T`` (the system's and a policy spec's) to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

_NEG_INF = float("-inf")


def check_threshold(name: str, value: float) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``0 <= value <= 1``."""
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one partitioning decision.

    Attributes
    ----------
    allocations:
        Ways awarded to each core (index = core id).
    unallocated:
        Ways left unowned — candidates for power gating.
    rounds:
        Winner per allocation round, for tests/diagnostics: a list of
        ``(core, ways_awarded, marginal_utility)`` tuples.
    """

    allocations: list[int]
    unallocated: int
    rounds: list[tuple[int, int, float]] = field(default_factory=list)


def _max_marginal_utility(
    curve: list[int], alloc: int, balance: int
) -> tuple[float, int]:
    """Best miss-reduction rate reachable from ``alloc`` within ``balance``.

    Implements ``get_max_mu``/``get_mu_value`` from Algorithm 1:
    examines every extension ``alloc + j`` (1 <= j <= balance) and
    returns ``(max_mu, blocks_req)`` where ``blocks_req`` is the
    smallest extension that achieves ``max_mu``, or ``(0.0, 0)`` when
    no extension fits.
    """
    limit = len(curve) - 1 - alloc
    if balance < limit:
        limit = balance
    if limit < 1:
        return 0.0, 0
    base_misses = curve[alloc]
    max_mu = float(base_misses - curve[alloc + 1])
    blocks_req = 1
    for j in range(2, limit + 1):
        mu = (base_misses - curve[alloc + j]) / j
        if mu > max_mu:
            max_mu = mu
            blocks_req = j
    return max_mu, blocks_req


def check_lookahead(
    n_cores: int, total_ways: int, threshold: float, min_ways: int
) -> None:
    """Raise the ``ValueError`` :func:`lookahead_partition` raises for
    these arguments, if any (the kernel's lookahead checks the same)."""
    if n_cores == 0:
        raise ValueError("need at least one core")
    if total_ways < n_cores * min_ways:
        raise ValueError(
            f"{total_ways} ways cannot give {n_cores} cores {min_ways} each"
        )
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")


def lookahead_partition(
    miss_curves: list[list[int]],
    total_ways: int,
    threshold: float = 0.0,
    min_ways: int = 1,
) -> AllocationResult:
    """Partition ``total_ways`` among cores given their miss curves.

    Parameters
    ----------
    miss_curves:
        One curve per core; ``curve[w]`` = estimated misses with ``w``
        ways.  Curves shorter than ``total_ways + 1`` simply cap how
        many ways that core will bid for.
    total_ways:
        Ways available in the shared cache.
    threshold:
        The paper's ``T``: 0 reproduces UCP (allocate everything),
        larger values leave weak-utility ways unallocated for gating.
    min_ways:
        Guaranteed floor per core (UCP-style; prevents starvation — a
        core with zero ways could never cache anything).
    """
    n_cores = len(miss_curves)
    check_lookahead(n_cores, total_ways, threshold, min_ways)

    allocations = [min_ways] * n_cores
    balance = total_ways - n_cores * min_ways
    rounds: list[tuple[int, int, float]] = []
    mu_peak: float | None = None
    # each core's (mu, blocks) bid at its allocation and the balance
    bids = [
        _max_marginal_utility(curve, min_ways, balance) for curve in miss_curves
    ]

    while balance > 0:
        winner = -1
        winner_mu = _NEG_INF
        winner_blocks = 0
        for core, (mu, blocks) in enumerate(bids):
            if blocks == 0:
                continue
            # Ties go to the core with the smaller allocation so that
            # identical utility curves split the cache evenly instead
            # of starving all but the first core.
            if mu > winner_mu or (
                mu == winner_mu and winner >= 0 and allocations[core] < allocations[winner]
            ):
                winner, winner_mu, winner_blocks = core, mu, blocks
        if winner < 0:
            break
        if mu_peak is None:
            mu_peak = winner_mu
        if threshold > 0:
            # Stop once the marginal benefit is no longer significant.
            if winner_mu <= 0 or winner_mu < threshold * mu_peak:
                break
        allocations[winner] += winner_blocks
        balance -= winner_blocks
        rounds.append((winner, winner_blocks, winner_mu))
        # A loser's bid stands while its blocks fit the new balance:
        # its smallest argmax over the old range lies in the new one.
        for core, (_, blocks) in enumerate(bids):
            if core == winner or blocks > balance:
                bids[core] = _max_marginal_utility(
                    miss_curves[core], allocations[core], balance
                )

    return AllocationResult(
        allocations=allocations,
        unallocated=balance,
        rounds=rounds,
    )
