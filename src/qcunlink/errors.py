"""Exception shared by the modules that check internal invariants."""

from __future__ import annotations

__all__ = ["InvariantViolation"]


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug upstream.

    Raised instead of ``assert`` so that the check also runs under
    ``python -O``; the command line maps it to exit code 5.
    """
