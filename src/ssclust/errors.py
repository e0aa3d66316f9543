"""Exception types shared across the package, with the exit codes of the CLI."""


class SsclustError(Exception):
    """Base class for all package errors."""


class ConfigError(SsclustError):
    """Invalid or inconsistent run configuration."""

    exit_code = 2


class InputError(SsclustError):
    """Invalid input data or parameters."""

    exit_code = 3


class FormatError(InputError):
    """Malformed file content (e.g. a broken PGM payload)."""


class DivergenceError(SsclustError):
    """Solver produced non-finite values."""

    exit_code = 4
