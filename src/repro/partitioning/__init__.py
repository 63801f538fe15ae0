"""Partitioning policies and the shared allocation algorithm.

This subpackage contains the four comparison schemes from Section 3.4
of the paper (Unmanaged, Fair Share, UCP, Dynamic CPE) plus the
threshold-extended lookahead allocation algorithm (paper Algorithm 1)
that both UCP and Cooperative Partitioning use.  The Cooperative
Partitioning policy itself lives in :mod:`repro.core`.

:mod:`repro.partitioning.registry` is the pluggable policy registry:
every scheme — built-in or third-party — registers with the
:func:`~repro.partitioning.registry.register_policy` decorator and is
addressed by a typed :class:`~repro.partitioning.registry.PolicySpec`.
"""

from repro.partitioning.base import BaseSharedCachePolicy, PolicyStats
from repro.partitioning.cpe import CPEParams, DynamicCPEPolicy
from repro.partitioning.fair_share import FairSharePolicy
from repro.partitioning.lookahead import AllocationResult, lookahead_partition
from repro.partitioning.registry import (
    POLICY_NAMES,
    NoParams,
    PolicySpec,
    RegisteredPolicy,
    build_policy,
    policy_info,
    register_policy,
    registered_policies,
    unregister_policy,
)
from repro.partitioning.ucp import UCPPolicy
from repro.partitioning.unmanaged import UnmanagedPolicy

__all__ = [
    "AllocationResult",
    "BaseSharedCachePolicy",
    "CPEParams",
    "DynamicCPEPolicy",
    "FairSharePolicy",
    "NoParams",
    "POLICY_NAMES",
    "PolicySpec",
    "PolicyStats",
    "RegisteredPolicy",
    "UCPPolicy",
    "UnmanagedPolicy",
    "build_policy",
    "lookahead_partition",
    "policy_info",
    "register_policy",
    "registered_policies",
    "unregister_policy",
]
