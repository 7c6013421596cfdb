"""Frozen value records, without the import cost of ``dataclasses``.

A subclass declares its fields as annotations, with optional defaults, and may
define ``__post_init__`` to validate them. Its ``__init__`` (positional or
keyword) is compiled once per class, as ``collections.namedtuple`` compiles
its ``__new__``, into the code a frozen dataclass would have: fields are set
with ``object.__setattr__``, so they stay in the instance's compact attribute
storage. It inherits ``__eq__`` (same class only) and ``__hash__``, which
compare and hash the field tuple that one key per class reads, the
``Name(field=value, ...)`` repr, ``_replace`` and the classmethod
``_built``, which takes every field's value and skips ``__post_init__``, for
internal constructors whose values are valid by construction. Assignment and
deletion raise ``AttributeError``; ``functools.cached_property`` still works,
as it writes the instance ``__dict__`` directly.
"""

from __future__ import annotations

from operator import attrgetter

_INIT = "def __init__(_self, {args}):{stores}{post}"


class Record:
    _fields: tuple[str, ...]  # the field names, in declaration order

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = tuple(getattr(cls, f) for f in fields if hasattr(cls, f))
        if any(not hasattr(cls, f) for f in fields[len(fields) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with")
        namespace = {"_setattr": object.__setattr__}
        exec(_INIT.format(
            args=", ".join(fields),
            stores="".join(f"\n    _setattr(_self, {f!r}, {f})" for f in fields),
            post="\n    _self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        ), namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = defaults
        cls.__init__ = init
        cls._fields = fields
        # the field tuple, whose hash a frozen dataclass takes; attrgetter
        # gives one field's value bare, so that one is wrapped
        get = attrgetter(*fields)
        cls._key = staticmethod((lambda record: (get(record),)) if len(fields) == 1 else get)

    @classmethod
    def _built(cls, *values):
        """An instance from every field's value, in order, with nothing checked:
        for internal constructors whose values are valid by construction."""
        record = object.__new__(cls)
        vars(record).update(zip(cls._fields, values))
        return record

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy with some fields changed, validated as a new instance is."""
        return self.__class__(**{**{f: getattr(self, f) for f in self._fields}, **changes})
