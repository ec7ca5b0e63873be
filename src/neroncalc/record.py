"""Immutable value records, the one base of neroncalc's data classes.

A subclass lists its fields as class annotations, in order.
``Record.__init__`` takes one value per field, positional ones first and then
keywords, and stores them in field order, so the instances of a class share
their ``__dict__`` keys.  A subclass writes its own ``__init__`` only to
check or normalize its input, and stores the fields with one
``super().__init__`` call; :class:`~neroncalc.curves.SncdCurve`, which
also stores its vertex columns, fills its ``__dict__`` in the same order
itself.  :class:`Record` adds what a frozen dataclass
would: equality of the field tuples within one class, a hash of the field
tuple, a ``Name(field=value)`` repr, and refusal to set or delete an
attribute.  Importing it costs nothing: no :mod:`dataclasses`, no methods
compiled per class.

>>> from neroncalc.basechange import EdgeRecord
>>> EdgeRecord(None, inserted=("a|b|0|1",))
EdgeRecord(local=None, inserted=('a|b|0|1',))
>>> EdgeRecord(None)
Traceback (most recent call last):
    ...
TypeError: EdgeRecord() takes each of ('local', 'inserted') once; got 1 positional, keywords ()
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(vars(cls).get("__annotations__", ()))
        get = attrgetter(*fields)
        cls._fields = fields
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for i, value in enumerate(args):  # faster than zip(fields, args)
            object.__setattr__(self, fields[i], value)

    def _bind(self, args, kwargs):
        """``args`` then ``kwargs`` as one value per field, in field order."""
        fields, rest = self._fields, self._fields[len(args):]
        if len(args) > len(fields) or kwargs.keys() != set(rest):
            raise TypeError("%s() takes each of %s once; got %d positional, keywords %s"
                            % (type(self).__qualname__, fields, len(args), tuple(kwargs)))
        return args + tuple(kwargs[key] for key in rest)

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
