"""The base class of the package's immutable records."""


class Record:
    """An immutable record whose fields are its class's `__slots__`.

    A record is built from all its fields, by position or by keyword.
    Once the fields are set, `__post_init__` runs: a subclass checks or
    converts its fields there, setting them with `object.__setattr__`.
    Records are equal only to records of the same class with equal
    fields, hash by their fields and refuse assignment and deletion.
    Pickling and copying rebuild a record by calling its class, so
    `__post_init__` runs again.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        name = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names or names.index(key) < len(args):
                raise TypeError(f"{name}() got an unexpected or repeated field {key!r}")
            values[key] = value
        for key in names:
            if key not in values:
                raise TypeError(f"{name}() missing field {key!r}")
            object.__setattr__(self, key, values[key])
        self.__post_init__()

    def __post_init__(self):
        """Check or convert the fields just set; nothing by default."""

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def __reduce__(self):
        return type(self), self._values()
