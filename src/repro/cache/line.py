"""Cache line value object.

The hot simulation paths store line state in the flat columns of
:class:`repro.cache.set_associative.SetAssociativeCache`; :class:`CacheLine`
is the read-only view handed out at API boundaries (tests, debugging,
policy introspection).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Owner value meaning "no core owns this line".
NO_OWNER = -1


@dataclass(frozen=True)
class CacheLine:
    """Snapshot of one cache line.

    Attributes
    ----------
    tag:
        Tag bits stored for the line, or ``None`` when invalid.
    valid:
        Whether the line holds data.
    dirty:
        Whether the line has been written since it was filled (and so
        must be written back to memory on eviction or flush).
    owner:
        Core id whose access installed the line.  The paper tracks this
        with "an extra two bits added to each tag entry to distinguish
        data belonging to each core" (Section 2.5); :data:`NO_OWNER`
        for invalid lines.
    """

    tag: int | None
    valid: bool
    dirty: bool
    owner: int

    @staticmethod
    def invalid() -> "CacheLine":
        """An empty (invalid) line."""
        return CacheLine(tag=None, valid=False, dirty=False, owner=NO_OWNER)
