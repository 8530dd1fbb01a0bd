"""Configuration dataclass construction on every supported Python.

The stable facade (:mod:`repro.api`) makes every configuration
constructor keyword-only.  Python 3.9's ``dataclass`` has no
``kw_only=`` option, so :func:`keyword_only` enforces it instead.
:func:`from_mapping` builds a configuration dataclass from plain JSON
data, refusing what the class cannot take.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Mapping, Optional, Type, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def keyword_only(cls: Type[T]) -> Type[T]:
    """Make a dataclass's ``__init__`` keyword-only: positional
    arguments raise a :class:`TypeError` naming the class."""
    original_init = cls.__init__

    @functools.wraps(original_init)
    def __init__(self, *args, **kwargs):
        if args:
            raise TypeError(
                f"{cls.__name__}() takes keyword arguments only "
                f"({len(args)} positional given)"
            )
        original_init(self, **kwargs)

    cls.__init__ = __init__
    return cls


def require_mapping(data: object, part: str) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` naming ``part``
    unless ``data`` is a mapping."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{part} must be a mapping, got {data!r}")


def from_mapping(cls: Type[T], data: object, part: Optional[str] = None) -> T:
    """Build the dataclass ``cls`` from the plain mapping ``data``.

    Raises :class:`~repro.errors.ConfigurationError` naming ``part``
    (default: the class name) when ``data`` is not a mapping, carries a
    key that is not a field of ``cls`` (a config typo), or lacks a field
    that has no default; the constructor checks the values.
    """
    part = part or cls.__name__
    require_mapping(data, part)
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ConfigurationError(
            f"unknown {part} keys: {sorted(unknown, key=str)}"
        )
    missing = [
        f.name
        for f in fields
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigurationError(f"{part} lacks required keys: {missing}")
    return cls(**data)
