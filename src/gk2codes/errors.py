"""Exception types shared across the package.

Plain ValueError is used for rejected inputs (bad parameters, out-of-range
arguments).  The classes below mark conditions with dedicated CLI exit
codes: a command line the CLI rejects, a failed internal identity
(something the theory guarantees) and an evaluation that would need local
(power series) analysis to resolve.
"""


class UsageError(Exception):
    """A command line or input the CLI rejects; it exits 1 with one line."""


class InternalConsistencyError(AssertionError):
    """A proven identity failed at runtime; indicates an arithmetic bug."""


class NeedsLocalResolutionError(ValueError):
    """Function evaluation hit an unresolved 0/0; no silent value is emitted."""


class PoleEvaluationError(ValueError):
    """Function evaluated at a point where it has a pole."""
