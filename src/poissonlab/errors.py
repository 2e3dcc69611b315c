"""Shared exception types.

Plain ValueError is used for ordinary domain errors; the classes here mark
conditions that callers (notably the CLI) route differently.
"""


class ConfigError(ValueError):
    """Invalid configuration document; message carries the JSON path."""


class ResourceError(RuntimeError):
    """An enumeration or scan guard would be exceeded."""


class InternalCheckError(RuntimeError):
    """A built-in self-check of an exact identity or analytic bound failed."""


class UnsupportedModelError(ValueError):
    """Operation not defined for this measure model."""


class InsufficientDataError(ValueError):
    """Too few samples for a statistical check to mean anything."""
