"""Unit and property tests for the RAP/WAP permission registers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.permissions import WayPermissionFile


def _owner(permissions, way):
    """The core holding both RAP and WAP on ``way``, or None."""
    both = permissions.rap[way] & permissions.wap[way]
    return both.bit_length() - 1 if both else None


def _in_transition(permissions, way):
    """Whether a donor keeps read-only access while a writer holds ``way``."""
    rap, wap = permissions.rap[way], permissions.wap[way]
    return bool(rap & ~wap) and wap != 0


def _cores(mask):
    """The cores whose bits are set in a RAP/WAP register."""
    return [core for core in range(mask.bit_length()) if mask >> core & 1]


class TestBasicOperations:
    def test_initially_no_access(self):
        permissions = WayPermissionFile(8, 2)
        for way in range(8):
            assert permissions.rap[way] == permissions.wap[way] == 0
        for core in range(2):
            assert permissions.readable_ways(core) == ()
            assert permissions.writable_ways(core) == ()

    def test_grant_full(self):
        permissions = WayPermissionFile(8, 2)
        permissions.grant_full(3, 1)
        assert 3 in permissions.readable_ways(1)
        assert 3 in permissions.writable_ways(1)
        assert _owner(permissions, 3) == 1
        assert 3 not in permissions.readable_ways(0)

    def test_revoke_write_keeps_read(self):
        permissions = WayPermissionFile(8, 2)
        permissions.grant_full(0, 0)
        permissions.revoke_write(0, 0)
        assert 0 in permissions.readable_ways(0)
        assert 0 not in permissions.writable_ways(0)
        assert _owner(permissions, 0) is None

    def test_revoke_all_gates_way(self):
        permissions = WayPermissionFile(8, 2)
        permissions.grant_full(5, 0)
        permissions.revoke_all(5)
        assert permissions.rap[5] == permissions.wap[5] == 0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            WayPermissionFile(0, 2)
        with pytest.raises(ValueError):
            WayPermissionFile(8, 0)


class TestWayTuples:
    def test_readable_ways_reflect_rap(self):
        permissions = WayPermissionFile(4, 2)
        permissions.grant_full(0, 0)
        permissions.grant_full(2, 0)
        permissions.grant_full(1, 1)
        assert permissions.readable_ways(0) == (0, 2)
        assert permissions.readable_ways(1) == (1,)
        assert permissions.writable_ways(0) == (0, 2)

    def test_cache_invalidated_on_change(self):
        permissions = WayPermissionFile(4, 2)
        permissions.grant_full(0, 0)
        assert permissions.readable_ways(0) == (0,)
        permissions.grant_full(3, 0)
        assert permissions.readable_ways(0) == (0, 3)
        permissions.revoke_read(0, 0)
        assert permissions.readable_ways(0) == (3,)


class TestTransitionEncoding:
    """The paper's three architected modes (Section 2.2, Figure 3)."""

    def test_transition_state(self):
        permissions = WayPermissionFile(4, 2)
        # Initially way 2 belongs to core 1.
        permissions.grant_full(2, 1)
        assert not _in_transition(permissions, 2)
        # Decision: transfer way 2 to core 0 (Figure 3's middle state).
        permissions.grant_full(2, 0)
        permissions.revoke_write(2, 1)
        assert _in_transition(permissions, 2)
        assert _cores(permissions.rap[2]) == [0, 1]
        assert _cores(permissions.wap[2]) == [0]
        permissions.check_invariants()
        # Completion: donor loses read permission.
        permissions.revoke_read(2, 1)
        assert not _in_transition(permissions, 2)
        assert _owner(permissions, 2) == 0

    def test_invariant_violation_detected(self):
        permissions = WayPermissionFile(4, 2)
        permissions.wap[0] |= 1  # write without read
        with pytest.raises(AssertionError):
            permissions.check_invariants()


@given(st.lists(
    st.tuples(
        st.sampled_from(["transfer", "complete", "power_off", "power_on"]),
        st.integers(0, 7),
        st.integers(0, 3),
    ),
    max_size=80,
))
def test_permission_mode_invariants_hold_under_protocol(operations):
    """Driving the registers through the takeover protocol's legal
    moves (Algorithm 2 + completion) never produces more than one
    writer or an illegal reader combination."""
    permissions = WayPermissionFile(8, 4)
    for way in range(8):
        permissions.grant_full(way, way % 4)
    for op, way, core in operations:
        owner = _owner(permissions, way)
        if op == "transfer":
            # Legal only on a settled, owned way, to a different core.
            if owner is None or owner == core or _in_transition(permissions, way):
                continue
            permissions.grant_full(way, core)
            permissions.revoke_write(way, owner)
        elif op == "complete":
            if not _in_transition(permissions, way):
                continue
            writer = _cores(permissions.wap[way])[0]
            for reader in _cores(permissions.rap[way]):
                if reader != writer:
                    permissions.revoke_read(way, reader)
        elif op == "power_off":
            if owner is None or _in_transition(permissions, way):
                continue
            permissions.revoke_all(way)
        else:  # power_on
            if permissions.rap[way] or permissions.wap[way]:
                continue
            permissions.grant_full(way, core)
        permissions.check_invariants()
    permissions.check_invariants()
