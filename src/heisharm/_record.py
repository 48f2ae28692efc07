"""Base class of the package's immutable records.

A record validates its inputs in __init__ and sets each attribute once,
through _assign; any later assignment or deletion raises AttributeError.
Records compare and hash by identity, as object does: most hold numpy
arrays, whose elementwise == has no single truth value, so a value
comparison is an explicit method (QuadratureGrid.same_as).

Plain __slots__ classes cost nothing to define at import; a generator of
record classes would load inspect, ast and tokenize on every start-up.
"""

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def _assign(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; "
                             f"cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; "
                             f"cannot delete {name!r}")
