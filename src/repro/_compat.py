"""Backward-compatibility helpers for the public-API transition.

The stable facade (:mod:`repro.api`) normalizes every configuration
constructor to keyword-only arguments.  Call sites that still pass
positionals keep working for one deprecation cycle through
:func:`keyword_only`, which maps positionals onto field names and emits a
single :class:`DeprecationWarning` per class.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings
from typing import Type, TypeVar

T = TypeVar("T")

#: Classes that have already warned about positional construction this
#: process; tests reset via :func:`reset_deprecation_warnings`.
_WARNED: set = set()


def reset_deprecation_warnings() -> None:
    """Forget which classes have warned (test isolation hook)."""
    _WARNED.clear()


def keyword_only(cls: Type[T]) -> Type[T]:
    """Make a dataclass's ``__init__`` keyword-only, tolerating
    positional calls for one deprecation cycle.

    Positional arguments are mapped onto the dataclass's fields in
    declaration order and a :class:`DeprecationWarning` is emitted —
    once per class, not per call — before delegating to the generated
    initializer.
    """
    original_init = cls.__init__
    field_names = [f.name for f in dataclasses.fields(cls) if f.init]

    @functools.wraps(original_init)
    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > len(field_names):
                raise TypeError(
                    f"{cls.__name__}() takes at most {len(field_names)} "
                    f"arguments ({len(args)} given)"
                )
            if cls not in _WARNED:
                _WARNED.add(cls)
                warnings.warn(
                    f"positional arguments to {cls.__name__}() are "
                    f"deprecated; pass fields by keyword",
                    DeprecationWarning,
                    stacklevel=2,
                )
            for name, value in zip(field_names, args):
                if name in kwargs:
                    raise TypeError(
                        f"{cls.__name__}() got multiple values for "
                        f"argument {name!r}"
                    )
                kwargs[name] = value
        original_init(self, **kwargs)

    cls.__init__ = __init__
    return cls
