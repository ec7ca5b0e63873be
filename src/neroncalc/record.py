"""Immutable value records, the one base of neroncalc's data classes.

A subclass lists its fields as class annotations, in order, and writes its
own ``__init__`` that stores each field with ``object.__setattr__``.
:class:`Record` adds what a frozen dataclass would: equality of the field
tuples within one class, a hash of the field tuple, a ``Name(field=value)``
repr, and refusal to set or delete an attribute.  Importing it costs
nothing: no :mod:`dataclasses`, no methods compiled per class.
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(vars(cls).get("__annotations__", ()))
        get = attrgetter(*fields)
        cls._fields = fields
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self._fields, self._values(self))
        return "%s(%s)" % (type(self).__qualname__, ", ".join("%s=%r" % kv for kv in pairs))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
