"""The policy, governor and rule registries share one implementation
(:mod:`repro.registry`) and so behave alike on the paths they share."""

import dataclasses
from typing import Callable

import pytest

from repro.analysis.registry import (
    register_rule,
    registered_rules,
    rule_info,
    unregister_rule,
)
from repro.dvfs.governors import (
    BaseGovernor,
    governor_info,
    register_governor,
    registered_governors,
    unregister_governor,
)
from repro.partitioning.base import BaseSharedCachePolicy
from repro.partitioning.registry import (
    policy_info,
    register_policy,
    registered_policies,
    unregister_policy,
)


def _extra_policy():
    class ExtraPolicy(BaseSharedCachePolicy):
        name = "Extra"

    return register_policy, ExtraPolicy


def _extra_governor():
    class ExtraGovernor(BaseGovernor):
        name = "Extra"

    return register_governor, ExtraGovernor


def _extra_rule():
    def check_nothing(context):
        """A rule that never fires."""
        return ()

    # Rules list sorted by (category, name): a late id in the last
    # category lists after every built-in.
    return (
        lambda name: register_rule(name, category="meta", default_severity="info"),
        check_nothing,
    )


@dataclasses.dataclass(frozen=True)
class Case:
    kind: str
    extra: Callable  # () -> (decorator factory taking a name, owner)
    unregister: Callable
    listing: Callable
    info: Callable
    a_builtin: str
    #: built-ins in listing order (None: the rule listing is sorted)
    builtins: tuple | None


CASES = [
    Case("policy", _extra_policy, unregister_policy, registered_policies,
         policy_info, "unmanaged",
         ("unmanaged", "fair_share", "cpe", "ucp", "cooperative")),
    Case("governor", _extra_governor, unregister_governor,
         registered_governors, governor_info, "fixed",
         ("fixed", "ondemand", "coordinated")),
    Case("rule", _extra_rule, unregister_rule, registered_rules, rule_info,
         "unseeded-random", None),
]


@pytest.fixture(params=CASES, ids=lambda case: case.kind)
def case(request):
    return request.param


def test_unknown_name_lists_the_registered_ones(case):
    with pytest.raises(
        ValueError, match=f"unknown {case.kind} 'zz-nope'; registered "
    ) as error:
        case.info("zz-nope")
    assert case.a_builtin in str(error.value)


def test_double_registration_names_the_first_owner(case):
    register, owner = case.extra()
    register("zz-extra")(owner)
    try:
        with pytest.raises(
            ValueError,
            match=rf"{case.kind} 'zz-extra' is already registered "
                  rf"\(by .*{owner.__name__}\); "
                  rf"call unregister_{case.kind}\('zz-extra'\) first",
        ):
            register("zz-extra")(owner)
    finally:
        case.unregister("zz-extra")


def test_unregistering_an_unknown_name_raises(case):
    with pytest.raises(
        ValueError, match=f"{case.kind} 'zz-nope' is not registered; registered "
    ):
        case.unregister("zz-nope")


def test_builtins_list_first_then_registrations(case):
    before = case.listing()
    if case.builtins is not None:
        assert before[: len(case.builtins)] == case.builtins
    register, owner = case.extra()
    register("zz-extra")(owner)
    try:
        assert case.listing() == before + ("zz-extra",)
    finally:
        case.unregister("zz-extra")
    assert case.listing() == before
