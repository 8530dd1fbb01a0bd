"""Keyword-only dataclass construction on every supported Python.

The stable facade (:mod:`repro.api`) makes every configuration
constructor keyword-only.  Python 3.9's ``dataclass`` has no
``kw_only=`` option, so :func:`keyword_only` enforces it instead.
"""

from __future__ import annotations

import functools
from typing import Type, TypeVar

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
