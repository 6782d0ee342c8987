"""Exception types shared across the package.

Plain ValueError is used for rejected inputs (bad parameters, out-of-range
arguments).  The two classes below mark conditions with dedicated CLI exit
codes: a failed internal identity (something the theory guarantees) and an
evaluation that would need local (power series) analysis to resolve.  The
GK2_THREADS check lives here too: every CLI command runs it, and so does
fengrao.table, so it must not sit in a module only some commands load.
"""

import os


class InternalConsistencyError(AssertionError):
    """A proven identity failed at runtime; indicates an arithmetic bug."""


class NeedsLocalResolutionError(ValueError):
    """Function evaluation hit an unresolved 0/0; no silent value is emitted."""


class PoleEvaluationError(ValueError):
    """Function evaluated at a point where it has a pole."""


def _check_threads_env() -> None:
    """Validate GK2_THREADS; tables are computed in one pass whatever its value."""
    raw = os.environ.get("GK2_THREADS", "").strip()
    try:
        if not raw or int(raw) >= 1:
            return
    except ValueError:
        pass
    raise ValueError(f"GK2_THREADS must be a positive integer, got {raw!r}")
