"""Exception types shared across the toolkit, and the setting checks raising them.

Every error carries a short machine-readable ``code`` that the CLI uses
when reporting failures on stderr (``error: <code>: <message>``).
"""

import numpy as np


class ToolkitError(Exception):
    """Base class for all morphreduce domain errors."""

    code = "error"


class MeshFormatError(ToolkitError):
    """A mesh file could not be parsed."""

    code = "mesh_format"


class MeshTopologyError(ToolkitError):
    """Mesh connectivity violates what an operation requires (e.g. open surface)."""

    code = "mesh_topology"


class DomainError(ToolkitError):
    """An input lies outside the mathematical domain of an operation."""

    code = "domain"


class ConfigError(ToolkitError):
    """Invalid configuration document or inconsistent settings."""

    code = "config"


class EvaluatorError(ToolkitError):
    """A builtin or external objective evaluation failed."""

    code = "evaluator"


def _is_real(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _require_int(label: str, value, low: int, high: int | None = None) -> None:
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{label} must be an int {span}, got {value!r}")
