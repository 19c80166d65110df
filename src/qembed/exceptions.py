"""Exception types shared across the pipeline.

The CLI maps these onto distinct exit codes, so new failure modes should
subclass one of the three categories below rather than raising bare
ValueError from deep inside a stage.
"""


class QembedError(Exception):
    """Base class for all package errors."""

    stage = None  # the pipeline stage it was raised in, set by the CLI driver


class InputError(QembedError):
    """Malformed user input: geometry files, config values, atom indices."""


class ConvergenceError(QembedError):
    """An iterative solver (SCF, localization sweeps, the sector eigensolver) failed to converge."""


class PartitionError(QembedError):
    """Active/environment split is degenerate, ambiguous, or empty."""


class ProjectionError(QembedError):
    """Embedded orbitals retain environment character beyond safe limits."""
