"""Frozen value records, without the import cost of ``dataclasses``.

A subclass declares its fields as annotations, with optional defaults, and may
define ``__post_init__`` to validate them. Its ``__init__`` (positional or
keyword), ``__eq__`` (same class only) and ``__hash__`` are compiled once per
class, as ``collections.namedtuple`` compiles its ``__new__``, into the code a
frozen dataclass would have: fields are set with ``object.__setattr__``, so
they stay in the instance's compact attribute storage, and compared and
hashed as one tuple. It also gets the ``Name(field=value, ...)`` repr,
``_replace`` and the classmethod ``_built``, which takes every field's value
and skips ``__post_init__``, for internal constructors whose values are
valid by construction. Assignment and deletion raise ``AttributeError``;
``functools.cached_property`` still works, as it writes the instance
``__dict__`` directly.
"""

from __future__ import annotations

_METHODS = """
def __init__(_self, {args}):{stores}{post}
def __eq__(_self, _other):
    if _other.__class__ is _self.__class__:
        return ({own}) == ({other})
    return NotImplemented
def __hash__(_self):
    return hash(({own}))
"""


class Record:
    _fields: tuple[str, ...]  # the field names, in declaration order

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = tuple(getattr(cls, f) for f in fields if hasattr(cls, f))
        if any(not hasattr(cls, f) for f in fields[len(fields) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with")
        namespace = {"_setattr": object.__setattr__}
        exec(_METHODS.format(
            args=", ".join(fields),
            stores="".join(f"\n    _setattr(_self, {f!r}, {f})" for f in fields),
            post="\n    _self.__post_init__()" if hasattr(cls, "__post_init__") else "",
            own="".join(f"_self.{f}, " for f in fields),
            other="".join(f"_other.{f}, " for f in fields),
        ), namespace)
        for name in ("__init__", "__eq__", "__hash__"):
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, namespace[name])
        cls.__init__.__defaults__ = defaults
        cls._fields = fields

    @classmethod
    def _built(cls, *values):
        """An instance from every field's value, in order, with nothing checked:
        for internal constructors whose values are valid by construction."""
        record = object.__new__(cls)
        vars(record).update(zip(cls._fields, values))
        return record

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
