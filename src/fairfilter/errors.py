"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI: 0 ok, 2 config, 3 data, 4 numeric
divergence, 5 I/O.
"""

from contextlib import contextmanager


class FairFilterError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(FairFilterError):
    """Invalid or missing configuration."""

    exit_code = 2


class DataError(FairFilterError):
    """Malformed corpus, word-vector file, or record-level violation."""

    exit_code = 3


class DivergenceError(FairFilterError):
    """Non-finite loss, parameters, scores, filters or JSON artifact values, or
    a dead (all-zero) generated filter in training."""

    exit_code = 4


class DimensionError(FairFilterError):
    """Tensor shape mismatch; message names the offending operand."""

    exit_code = 1


class GraphError(FairFilterError):
    """Autodiff contract violation (e.g. backward on a non-scalar)."""

    exit_code = 1


class CheckpointError(FairFilterError):
    """Corrupt, incompatible, or version-mismatched checkpoint."""

    exit_code = 5


@contextmanager
def utf8_or(error: type[FairFilterError], path):
    """Raise `error` naming `path` if the block reads bytes that are not UTF-8."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"'{path}' is not UTF-8 text ({exc.reason})") from None
