"""Exception types shared across the package, and _Value, the base of its
immutable value classes: a value is its public slots, and a slot whose name
starts with an underscore is a memo, never part of the value."""

import operator


class _Value:
    """Base of an immutable value class whose fields are its public
    __slots__, in order; the subclass's own constructor sets them with
    object.__setattr__.

    A slot whose name starts with an underscore is a memo: something the
    value computed or was handed once and keeps, set with
    object.__setattr__ too.  A memo is not a field: it is not compared,
    hashed, pickled or shown in repr, and a copy or an unpickled twin holds
    only the memos that the constructor sets.

    Assigning or deleting an attribute raises AttributeError.  Two values
    are equal when they are of the same class with equal fields, the hash
    is the field tuple's, and repr is Name(field=value, ...).  A copy or an
    unpickled twin is built by the constructor from the fields, passed by
    position.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls._names = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # the field tuple, read by a C getter; attrgetter of one name returns
        # the bare value, which is wrapped
        get = operator.attrgetter(*names)
        cls._fields = staticmethod(get if len(names) > 1 else lambda self: (get(self),))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), self._fields(self))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._names, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"


class JtlabError(ValueError):
    """Base class for all domain errors raised by jtlab."""


class NotCIShape(JtlabError):
    """Sequence is not the Hilbert function of a graded complete intersection
    in two variables, i.e. not of the form (1,2,...,d-1,d^k,d-1,...,2,1)."""


class SizeMismatch(JtlabError):
    """Two partitions that should partition the same integer do not."""


class DiagonalMismatch(JtlabError):
    """A partition's diagonal lengths differ from the given Hilbert function."""


class BudgetExceeded(JtlabError):
    """The input asks for more work than a fixed up-front budget allows."""


class InternalInconsistency(JtlabError):
    """Two independent criteria that must agree disagreed.  A bug, never
    expected to fire."""


class InvalidLabel(JtlabError):
    """Branch label fails the interval conditions for its (d, k)."""


class NotCIJT(JtlabError):
    """Partition is not a complete intersection Jordan type."""


class NotCIJTWithDParts(NotCIJT):
    """The rectangle-flip map is only defined on CIJT partitions with
    exactly d parts."""


class InvalidSubset(JtlabError):
    """Hessian index subset not contained in the active range."""


class TopRequiresKGe2(JtlabError):
    """The top-Hessian generic Jordan type only exists when k >= 2."""


class ZeroInput(JtlabError):
    """An operation received the zero polynomial where nonzero is required."""


class ZeroForm(ZeroInput):
    """The linear form of a multiplication map is zero."""


class NotArtinian(JtlabError):
    """The quotient R/I is not finite dimensional."""


class DegreeOutOfRange(JtlabError):
    """Requested graded piece lies outside the algebra's degree range."""


class OrderOutOfRange(JtlabError):
    """Hessian order i outside [0, d-1]."""


class ParseError(JtlabError):
    """Malformed text input (partition, Hilbert function, or polynomial)."""
