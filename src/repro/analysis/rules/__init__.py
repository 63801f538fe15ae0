"""Built-in rules: importing this package registers all of them.

The modules group by category — :mod:`determinism` (seeding,
wall-clock, salted hashes, iteration order, serialization),
:mod:`concurrency` (store write atomicity, fork-shared state) and
:mod:`meta` (suppression hygiene).  The registry imports this module
lazily on first lookup; third-party rules import
:func:`repro.analysis.registry.register_rule` directly.
"""

from repro.analysis.rules import (  # noqa: F401  (import = register)
    concurrency,
    determinism,
    meta,
)
