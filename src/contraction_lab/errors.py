"""Exception taxonomy shared across the package.

Parameter problems raise before any numerics run; construction and numerical
failures carry enough context to diagnose the offending operator.
"""

from __future__ import annotations


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class ConstructionError(RuntimeError):
    """A requested object cannot be built (e.g. an infeasible band pattern)."""


class NumericalError(RuntimeError):
    """A numerical routine failed; the message says where."""


class ConfigError(Exception):
    """Base class for configuration-document problems."""


class ConfigSyntaxError(ConfigError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = "" if line is None else f" at line {line}" + ("" if column is None else f", column {column}")
        super().__init__(f"config syntax error{loc}: {message}")
        self.line = line
        self.column = column


class UnknownConfigKeyError(ConfigError):
    def __init__(self, key: str, section: str, suggestion: str | None = None):
        hint = f"; did you mean {suggestion!r}?" if suggestion else ""
        super().__init__(f"unknown key {key!r} in section {section!r}{hint}")
        self.key = key
        self.section = section
        self.suggestion = suggestion


class ConfigInvariantError(ConfigError):
    def __init__(self, field: str, message: str):
        super().__init__(f"invalid value for {field!r}: {message}")
        self.field = field
