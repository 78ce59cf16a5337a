"""The frozen base of whitdim's value classes.

A subclass names its fields, in order, in ``_fields``.  One with nothing to
check declares only that: the base's ``__init__`` stores the fields, given
by position or by keyword, and refuses a wrong count or an unknown name with
:class:`TypeError`.  One that checks writes its own ``__init__``, which
checks and coerces the arguments and puts each field into the instance dict
once, with ``self.__dict__.update``.  The base gives equality and a hash
over the fields, only between instances of one class, the repr
``Name(field=value, ...)``, and an :class:`AttributeError` on assigning or
deleting any attribute; no subclass unfreezes itself.  What else the
instance dict holds (values found by validation, ``cached_property``
results, point records) takes no part in any of them.
"""


class Frozen:
    _fields = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        # the package's own calls give every field by position
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            # a surplus or repeated argument leaves fewer values than arguments
            if len(values) != len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__qualname__}() takes the fields "
                                f"{', '.join(fields)}, each once, by position or keyword")
            args = [values[name] for name in fields]
        self.__dict__.update(zip(fields, args))

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
