"""Immutable record classes for the package's value and result types.

They behave like ``@dataclass(frozen=True)`` for what the package uses, but
importing :mod:`dataclasses` also loads inspect, ast, dis and tokenize: about
1 MB of resident memory and some 30 ms of start-up for every CLI call.
"""

from __future__ import annotations


def record(cls: type) -> type:
    """Make ``cls`` an immutable record of the fields annotated on it.

    ``__init__`` takes the fields in their order, by position or by name;
    a class attribute of the same name is the field's default.  It then
    calls ``__post_init__``, if the class has one (which may set a field
    with ``object.__setattr__``).  Records are equal when their classes
    and fields are, hash by their fields, print as ``Name(field=value,
    ...)``, and refuse assignment to any attribute.  ``cls._fields`` is
    the tuple of field names, in order.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                if name not in defaults:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                values[name] = defaults[name]
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def values(self):
        return tuple(getattr(self, name) for name in fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._fields = fields
    return cls
