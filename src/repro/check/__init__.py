"""HPDR-San: correctness tooling for the HPDR reproduction.

Two modes (DESIGN.md §3.2):

* runtime sanitizer — :class:`SanitizingAdapter` ("tsan mode",
  ``HPDR_SAN=1`` / ``--sanitize``), plus the CMM steady-state checks in
  :mod:`repro.check.cmm`;
* static analysis — :mod:`repro.check.static` (``scripts/hpdrlint.py``):
  four rule packs on one parse per file; :class:`Finding` and
  :func:`format_findings` are what every pack reports.

This package is imported lazily by the adapters layer: when
``HPDR_SAN`` is unset nothing here loads, so the tooling costs zero on
production paths.
"""

from repro.check.cmm import CMMWatch, assert_steady_state, check_not_poisoned
from repro.check.errors import (
    ContextThrashError,
    HaloRaceError,
    SanitizerError,
    ScratchAliasError,
    SteadyStateLeakError,
    UseAfterEvictError,
)
from repro.check.lint import Finding, format_findings
from repro.check.sanitizer import (
    SanitizingAdapter,
    sanitize_enabled,
    wrap_if_enabled,
)

__all__ = [
    "CMMWatch",
    "ContextThrashError",
    "Finding",
    "HaloRaceError",
    "SanitizerError",
    "SanitizingAdapter",
    "ScratchAliasError",
    "SteadyStateLeakError",
    "UseAfterEvictError",
    "assert_steady_state",
    "check_not_poisoned",
    "format_findings",
    "sanitize_enabled",
    "wrap_if_enabled",
]
