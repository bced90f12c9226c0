"""Exception taxonomy shared across the package.

Each class maps to a distinct CLI exit code so failures are
distinguishable in scripts.
"""


class ConfigError(Exception):
    """Bad configuration: unknown key, invalid value, shape mismatch."""

    exit_code = 2


class CheckpointError(Exception):
    """Unreadable, truncated, or incompatible checkpoint file or run directory."""

    exit_code = 3


class NumericError(Exception):
    """Non-finite value where the training contract requires finiteness."""

    exit_code = 4
