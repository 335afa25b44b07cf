"""Built-in rules; importing this package registers them all.

====================  =================================================
Rule                  Hazard
====================  =================================================
``DET001``            unseeded / module-global RNG use
``DET002``            wall-clock reads inside simulated-time packages
``DET003``            iteration over unordered sets in decision paths
``DET004``            ``id()`` in sort keys / heap tuples / tie-breaks
``LAYOUT001``         hot-module class without ``__slots__``
``LAYOUT002``         slotted class inheriting a non-slotted base
``REG001``            registry factory signature / duplicate names
``API001``            CLI flag with no matching ``Scenario`` field
``OBS001``            ledger emit site off the frozen schema table
====================  =================================================

(The runner itself emits ``NOQA001`` for suppressions that no longer
suppress anything and ``BASE001`` for stale baseline entries; those
are bookkeeping, not AST rules, so they live in
:mod:`repro.analysis.runner`.)
"""

from . import api_drift  # noqa: F401
from . import determinism  # noqa: F401
from . import layout  # noqa: F401
from . import obs_conformance  # noqa: F401
from . import registry_conformance  # noqa: F401
