"""Tuple records: `Record` gives a class what ``collections.namedtuple`` does.

The fields are the class annotations, each with an optional default, and
a record has namedtuple's repr, ``_make``, ``_replace`` and pickling.
Building a record class reads the field names and compiles nothing.
`_integer`, the one-integer reader every layer uses, lives here too, so
that ``brill_noether`` reads its integers without loading ``curve``.
"""

from operator import index as _index

try:
    from _collections import _tuplegetter  # namedtuple's field property, without collections
except ImportError:
    from collections import _tuplegetter

_new = tuple.__new__
_MISSING = object()


class _RecordType(type):
    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns[f] for f in fields if f in ns}
        ns.update((f, _tuplegetter(i, f"Alias for field number {i}")) for i, f in enumerate(fields))
        ns.update(__slots__=(), _fields=fields, __match_args__=fields, _field_defaults=defaults)
        return super().__new__(mcls, name, bases, ns)


class Record(tuple, metaclass=_RecordType):
    def __new__(cls, /, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        return _new(cls, args)

    @classmethod
    def _bind(cls, args, kwargs):
        # kept out of __new__: a comprehension there makes every call build cells before 3.12
        fields, get = cls._fields, cls._field_defaults.get
        args = (*args, *[kwargs.pop(f, get(f, _MISSING)) for f in fields[len(args):]])
        if kwargs or len(args) != len(fields) or any(a is _MISSING for a in args):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        return args

    @classmethod
    def _make(cls, iterable):  # exactly one value per field, as namedtuple's
        made = _new(cls, iterable)
        if len(made) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(made)}")
        return made

    def _replace(self, **changes):
        return self.__class__(**{**dict(zip(self._fields, self)), **changes})

    def __repr__(self):
        return f"{self.__class__.__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def __getnewargs__(self):
        return tuple(self)


def _integer(value: int, what: str, error: type[ValueError] = ValueError) -> int:
    """The value as an int (True is 1); a float or any other non-integer raises ``error``."""
    try:
        return _index(value)
    except TypeError as exc:
        raise error(f"{what} must be an integer: {exc}") from None
