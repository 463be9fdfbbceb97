"""The readers of input numbers, and the base of the package's record classes.

The readers (``real``, ``finite_real``, ``coefficient``, ``integer``) are the
package's one rule for what counts as a number; none takes a bool.  The base
replaces ``dataclasses``, whose import (it loads ``inspect``) and per-class
code generation took about a fifth of every command-line call: its methods
are written once and read each class's field names from its annotations.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import LogSpaceError

_set = object.__setattr__
# the heads of a reader's messages for a wrong type and for a value not finite, given (name, what)
_MUST = ("{} must be {}", "{} must be finite")


def real(value, name: str) -> float:
    """`value`, the field `name`, as a float: an int or a float, never a bool or a string."""
    if value.__class__ is float:
        return value
    return _read_number(value, name, (int, float), float, "a real number")


def finite_real(value, name: str) -> float:
    """`value` read as `real` reads it, and neither NaN nor infinite (for which x - x is NaN)."""
    if value.__class__ is float and value - value == 0.0:
        return value
    return _read_number(value, name, (int, float), float, "a real number", True)


def coefficient(value, name: str) -> complex:
    """`value`, the field `name`, as a complex: an int, a float or a complex, never a bool or a string."""
    if value.__class__ is complex or value.__class__ is float:
        return complex(value)
    return _read_number(value, name, (int, float, complex), complex, "a number")


def integer(value, name: str, what: str = "an integer") -> int:
    """`value`, the field `name`, as an int: never a bool, a float or a string."""
    if value.__class__ is int:
        return value
    return _read_number(value, name, int, int, what)


def _read_number(value, name: str, types, convert, what: str, finite: bool = False, wording: tuple = _MUST):
    """convert(value) if value is one of types, not a bool, and finite if asked; the fast paths skip this."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise LogSpaceError(f"{wording[0].format(name, what)}, got {value!r}")
    try:
        v = convert(value)
    except OverflowError:
        raise LogSpaceError(f"{wording[1].format(name)}, got an integer too large for a float") from None
    if finite and v - v != 0.0:
        raise LogSpaceError(f"{wording[1].format(name)}, got {value!r}")
    return v


class Value:
    """A record whose fields are its class annotations, in order.

    A default is a class attribute, and a slotted subclass lists its fields
    in ``__slots__``.  The constructor binds the fields like a function's
    parameters and then calls ``__post_init__``.  Equality and hashing are
    those of the field tuple, and ``==`` with an instance of another class
    is ``NotImplemented``; the repr is ``Name(field=value, ...)``.  Fields
    cannot be assigned or deleted, unless the subclass is declared with
    ``frozen=False``, which also makes it unhashable.
    """

    __slots__ = ()
    # the field names, which are also what pattern matching binds
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        slots = cls.__dict__.get("__slots__", ())
        cls.__match_args__ = names
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__ and n not in slots}
        # an instance's field values as one tuple, which ==, hash and pickling
        # use; attrgetter returns a bare value for a single name
        if len(names) > 1:
            cls._values = staticmethod(attrgetter(*names))
        else:
            cls._values = staticmethod(lambda obj: tuple([getattr(obj, n) for n in names]))
        if not frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = _set, object.__delattr__, None

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, from arguments bound as a function binds its parameters."""
        names, values = cls.__match_args__, list(args)
        if len(values) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments, got {len(args)}")
        for name in names[len(values) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:  # an unknown name, or a field given by position as well
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__qualname__}() got an unexpected argument {name!r}")
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # pickling and copying restore the fields past the guard
    def __getstate__(self):
        return self._values(self)

    def __setstate__(self, state):
        for name, value in zip(self.__match_args__, state):
            _set(self, name, value)
