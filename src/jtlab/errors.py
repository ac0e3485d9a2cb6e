"""Exception types shared across the package; _Value, the base of its
immutable value classes: a value is its public slots, and a slot whose name
starts with an underscore is a memo, never part of the value; and the
readers of a number that comes from outside the package.

Each reader has one rule, and raises ParseError for anything else.  A bool
is a flag, not a number, so every reader refuses it.  _integer takes an int
as it is and any other value with __index__ through operator.index; a str,
a float (even 1.0), a Fraction (even 2/1) and None are refused, never
parsed or rounded.  _integers reads each entry of a non-str iterable so.
_rational takes an int as it is and reads any other value exactly by
Fraction, an integral one as its int, so a finite float or the text "1/2"
is fine, and NaN, an infinity, None or a complex number is refused.  _rationals reads each entry
of a non-str iterable so, and then asks for exactly n of them.  Each
reader's message opens with its caller's `what`, the rule in the caller's
words, and ends with the value it refused; a wrong length has a message of
its own, which ends with the length.  Text grammars such as the caret
list "6,2^2" keep their own parsers.
"""

import contextlib
import operator
from fractions import Fraction


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
    """Malformed input: text that its grammar does not read (a partition, a
    Hilbert function, a polynomial), or a value that is not the number or
    sequence of numbers asked for (see the readers below)."""


def _integer(value, what):
    """value as an int: an int as it is, any other non-bool with __index__
    through operator.index; ParseError(what, value) for anything else."""
    if type(value) is int or not isinstance(value, bool) and hasattr(type(value), "__index__"):
        return operator.index(value)
    raise ParseError(f"{what}, not {value!r}")


def _integers(values, what):
    """The entries of a non-str iterable as a tuple of ints, each read by
    _integer; ParseError(what, ...) for a str, a non-iterable or an entry
    that is no integer."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ParseError(f"{what}, not {values!r}")
    return tuple(_integer(v, what) for v in values)


def _rational(value, what):
    """value as an exact rational: an int as it is, any other value read by
    Fraction, and an integral one as its int; ParseError(what, value) for a
    bool or for what Fraction cannot read exactly (NaN, an infinity, None,
    a complex number, text that is no fraction)."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError, OverflowError, ZeroDivisionError):
            value = value if type(value) is int else Fraction(value)
            return value.numerator if value.denominator == 1 else value
    raise ParseError(f"{what}, not {value!r}")


def _rationals(values, n, what, length=None):
    """The n entries of a non-str iterable as a tuple, each read by
    _rational.  ParseError(what, ...) for a str, a non-iterable or an entry
    that is no rational; then, for a length other than n, ParseError whose
    message opens with length, the caller's rule for it (by default what,
    and exactly n of them), and ends with the length it got."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ParseError(f"{what}, not {values!r}")
    values = tuple(_rational(v, what) for v in values)
    if len(values) != n:
        raise ParseError(f"{length or f'{what}, exactly {n} of them'}, not {len(values)}")
    return values
